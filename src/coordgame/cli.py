"""Command-line harness exposing every experiment with reproducible output.

Each subcommand runs one experiment and emits a single machine-readable
record (JSON object or CSV with a header row).  Every record carries the
subcommand name, tool version, seed, and echoed parameters, and the same
command line always produces byte-identical output.  Floats are printed
with 9 significant digits.

Exit codes: 0 success; 2 invalid parameters, memory exhausted, or output
not writable (one line on stderr); 3 internal invariant failure, which
includes a non-finite float in a JSON or CSV record.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from itertools import repeat

import numpy as np

from . import __version__
from .bounds import (
    classical_bound,
    enumerate_deterministic_pairs,
    lhv_profile,
    lhv_supremum_payoff,
    quantum_bound,
    sweep_quantum_payoff,
)
from .classical import (
    MODES,
    ClassicalConfig,
    analytic_classical_profile,
    classical_strategy,
    generate_sequences,
)
from .game import (
    STATE_PAIRS,
    DegenerateProfile,
    MismatchProfile,
    analytic_report,
    empirical_report,
    match_profile,
    payoff,
    play_match,
)
from .quantum import GeneralAnglePlan, SingletSampler, quantum_player_strategy, quantum_profile

__all__ = ["main", "build_parser"]

# Nothing here calls these two names any more, but the benchmark tracer
# wraps them in this module at install; they go when tracing moves into
# the package.
run_match = empirical_profile = None

_MOVE_NAMES = ("A", "B")


class Table:
    """A result table as named, equal-length columns, one entry per row.

    A column is a list or a 1-D numpy array.  ``len`` is the row count.
    Renderers format a table column by column, never row by row.
    """

    def __init__(self, columns: dict):
        lengths = {len(column) for column in columns.values()}
        if len(lengths) != 1:
            raise RuntimeError(f"table needs columns of one length, got lengths {sorted(lengths)}")
        self.columns = columns
        self._rows = lengths.pop()

    def __len__(self) -> int:
        return self._rows


def _profile_dict(profile: MismatchProfile) -> dict:
    return {f"q{i}{j}": profile.entry(i, j) for i, j in STATE_PAIRS}


def _verdict_dict(verdict) -> dict:
    return {"holds": verdict.holds, "slack": verdict.slack}


def _payoff_block(profile: MismatchProfile, samples: int | None = None) -> dict:
    """Profile plus payoff, with a degeneracy flag instead of a 0/0 crash."""
    try:
        report = analytic_report(profile) if samples is None else empirical_report(profile, samples)
    except DegenerateProfile:
        report = None
    block = {
        "profile": _profile_dict(profile),
        "payoff": None if report is None else report.payoff,
        "degenerate": report is None,
    }
    if samples is not None:
        block["confidence_halfwidth"] = None if report is None else report.confidence_halfwidth
        block["samples_per_state_pair"] = samples
    return block


def _bounds_block(profile: MismatchProfile) -> dict:
    return {
        "classical": _verdict_dict(classical_bound(profile)),
        "quantum": _verdict_dict(quantum_bound(profile)),
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _cmd_classical(args) -> tuple[dict, dict, str | None]:
    _require(args.rounds_per_pair >= 1, "rounds-per-pair must be >= 1")
    config = ClassicalConfig(n=args.N, q=args.q, mode=args.mode, seed=args.seed)
    analytic = analytic_classical_profile(args.q, args.mode)

    sequences = generate_sequences(config)
    empirical = match_profile(
        classical_strategy(1, sequences),
        classical_strategy(2, sequences),
        args.rounds_per_pair,
        seed=args.seed,
    )

    params = {
        "N": args.N,
        "q": args.q,
        "mode": args.mode,
        "rounds_per_pair": args.rounds_per_pair,
    }
    results = {
        "analytic": _payoff_block(analytic),
        "empirical": _payoff_block(empirical, samples=args.rounds_per_pair),
        "bounds": _bounds_block(analytic),
    }
    return params, results, None


def _cmd_quantum(args) -> tuple[dict, dict, str | None]:
    _require(0.0 < args.delta < math.pi / 3.0, "delta must lie in (0, pi/3)")
    _require(args.rounds_per_pair >= 1, "rounds-per-pair must be >= 1")
    analytic = quantum_profile(args.delta)

    plan = GeneralAnglePlan.equally_spaced(args.delta)
    one, two = quantum_player_strategy(plan, SingletSampler(args.seed))
    empirical = match_profile(one, two, args.rounds_per_pair, seed=args.seed)

    params = {"delta": args.delta, "rounds_per_pair": args.rounds_per_pair}
    results = {
        "analytic": _payoff_block(analytic),
        "empirical": _payoff_block(empirical, samples=args.rounds_per_pair),
        "bounds": _bounds_block(analytic),
    }
    return params, results, None


def _cmd_sweep(args) -> tuple[dict, dict, str | None]:
    deltas, profile = sweep_quantum_payoff(args.delta_min, args.delta_max, args.steps)
    rows = Table(
        {
            "delta": deltas,
            "q00": profile.q00,
            "q01": profile.q01,
            "payoff_quantum": payoff(profile),
            "classical_bound_slack": classical_bound(profile).slack,
        }
    )
    params = {
        "delta_min": args.delta_min,
        "delta_max": args.delta_max,
        "steps": args.steps,
    }
    return params, {"rows": rows}, "rows"


def _cmd_lhv(args) -> tuple[dict, dict, str | None]:
    pairs = enumerate_deterministic_pairs()
    supremum, witness = lhv_supremum_payoff()
    witness_profile = lhv_profile(witness)

    maps = [pair for pair, _ in pairs]
    profiles = [profile for _, profile in pairs]
    holds = [classical_bound(profile).holds for profile in profiles]
    vertices = Table(
        {
            "vertex_index": list(range(len(pairs))),
            "m1_state0": [_MOVE_NAMES[pair.m1[0]] for pair in maps],
            "m1_state1": [_MOVE_NAMES[pair.m1[1]] for pair in maps],
            "m2_state0": [_MOVE_NAMES[pair.m2[0]] for pair in maps],
            "m2_state1": [_MOVE_NAMES[pair.m2[1]] for pair in maps],
            "d00": [int(profile.q00) for profile in profiles],
            "d01": [int(profile.q01) for profile in profiles],
            "d10": [int(profile.q10) for profile in profiles],
            "d11": [int(profile.q11) for profile in profiles],
            "satisfies_bound": holds,
            "witness_weight": witness.weights,
        }
    )

    results = {
        "vertices": vertices,
        "all_vertices_satisfy_bound": all(holds),
        "supremum_payoff": supremum,
        "witness_q": 0.1,
        "witness_profile": _profile_dict(witness_profile),
        "witness_payoff": payoff(witness_profile),
    }
    return {}, results, "vertices"


def _cmd_bounds(args) -> tuple[dict, dict, str | None]:
    values = (args.q00, args.q01, args.q10, args.q11)
    profile = MismatchProfile(*values)  # rejects an entry outside [0, 1]

    params = dict(zip(("q00", "q01", "q10", "q11"), values))
    results = {
        **_payoff_block(profile),
        "classical_bound": _verdict_dict(classical_bound(profile)),
        "quantum_bound": _verdict_dict(quantum_bound(profile)),
    }
    return params, results, None


def _cmd_match(args) -> tuple[dict, dict, str | None]:
    _require(args.rounds_per_pair >= 1, "rounds-per-pair must be >= 1")
    # both are echoed, whichever strategy family runs
    _require(
        math.isfinite(args.q) and math.isfinite(args.delta),
        f"q and delta must be finite, got q={args.q!r}, delta={args.delta!r}",
    )
    if args.strategy == "classical":
        config = ClassicalConfig(n=args.N, q=args.q, mode=args.mode, seed=args.seed)
        sequences = generate_sequences(config)
        one, two = classical_strategy(1, sequences), classical_strategy(2, sequences)
    else:
        _require(0.0 < args.delta < math.pi / 3.0, "delta must lie in (0, pi/3)")
        one, two = quantum_player_strategy(
            GeneralAnglePlan.equally_spaced(args.delta), SingletSampler(args.seed)
        )

    r = args.rounds_per_pair
    chunks = play_match(one, two, r, seed=args.seed)  # checks r before the columns exist
    move_one = np.empty(4 * r, dtype=np.uint8)
    move_two = np.empty(4 * r, dtype=np.uint8)
    differ = [0, 0, 0, 0]
    for start, chunk_one, chunk_two in chunks:
        move_one[start : start + len(chunk_one)] = chunk_one
        move_two[start : start + len(chunk_two)] = chunk_two
        differ[start // r] += np.count_nonzero(chunk_one != chunk_two)
    empirical = MismatchProfile(*(float(d) / r for d in differ))
    states = np.repeat(np.array(STATE_PAIRS, dtype=np.uint8), r, axis=0)
    move_names = np.array(_MOVE_NAMES)
    rounds = Table(
        {
            "round_index": np.arange(4 * r),
            "state_one": states[:, 0],
            "state_two": states[:, 1],
            "move_one": move_names[move_one],
            "move_two": move_names[move_two],
        }
    )

    params = {
        "strategy": args.strategy,
        "N": args.N,
        "q": args.q,
        "mode": args.mode,
        "delta": args.delta,
        "rounds_per_pair": args.rounds_per_pair,
    }
    results = {
        "rounds": rounds,
        "empirical": _payoff_block(empirical, samples=args.rounds_per_pair),
    }
    return params, results, "rounds"


_HANDLERS = {
    "classical": _cmd_classical,
    "quantum": _cmd_quantum,
    "sweep": _cmd_sweep,
    "lhv": _cmd_lhv,
    "bounds": _cmd_bounds,
    "match": _cmd_match,
}


def _round_floats(value):
    """Round floats to 9 significant digits so JSON output is stable and diffable."""
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float("%.9g" % float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _flatten(record: dict, prefix: str = "") -> dict:
    """Flatten nested result dicts to CSV columns with underscore-joined names."""
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{prefix}{key}_"))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "%.9g" % float(value)
    return str(value)


def _check_finite(params: dict, results: dict) -> None:
    """Both renderers' one check: a NaN or infinite float, which JSON cannot
    spell and CSV would print as ``nan`` or ``inf``, raises ``RuntimeError``."""
    for name, value in _flatten({"parameters": params, "results": results}).items():
        for column in value.columns.values() if isinstance(value, Table) else [[value]]:
            if not isinstance(column, np.ndarray):
                column = np.array([v for v in column if isinstance(v, (float, np.floating))])
            if column.dtype.kind == "f" and not np.isfinite(column).all():
                raise RuntimeError(f"{name} holds a non-finite float")


def _column_cells(column) -> list:
    """The CSV cells of one table column, each equal to ``_cell`` of its entry."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iuU":
            return column.astype(str).tolist()
        column = column.tolist()
    return list(map(_cell, column))


def _json_floats(values: list) -> list:
    """``repr(float("%.9g" % v))`` for each float, the way ``json.dumps`` prints it rounded.

    All values go through one ``%`` format.  A ``%.9g`` text in plain
    decimal notation with a point is already that ``repr``: its exponent
    lies in [-4, 9), where ``repr`` also writes plain decimals, and no
    other decimal of at most 9 digits reads back as the same normal
    float, so ``repr`` picks the same digits.  Only integer-valued and
    exponent-notation texts (which include subnormals) are read back and
    printed with ``repr``.
    """
    texts = ("%.9g\n" * len(values) % tuple(values)).split("\n")
    texts.pop()
    return [t if "." in t and "e" not in t else repr(float(t)) for t in texts]


def _json_cells(column) -> list:
    """The JSON texts of one table column, each what ``json.dumps`` prints for its entry."""
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "f":
            return _json_floats(column.tolist())
        values = column.tolist()
        if kind in "iu":
            return list(map(str, values))
        if kind in "bU":
            # encode each distinct value once, then look it up
            encoded = {v: json.dumps(v) for v in set(values)}
            return list(map(encoded.__getitem__, values))
        column = values
    return [json.dumps(_round_floats(v), allow_nan=False) for v in column]


# a table is a value of "results", two levels into the record
_TABLE_INDENT = "    "


def _json_table(table: Table) -> str:
    """A table as the indented JSON list of row objects that sits under ``results``."""
    if not len(table):
        return "[]"
    cells = [_json_cells(column) for column in table.columns.values()]
    fields = ",\n".join(
        _TABLE_INDENT + "    " + json.dumps(name).replace("%", "%%") + ": %s"
        for name in table.columns
    )
    row = _TABLE_INDENT + "  {\n" + fields + "\n" + _TABLE_INDENT + "  }"
    rows = ",\n".join(map(row.__mod__, zip(*cells)))
    return "[\n" + rows + "\n" + _TABLE_INDENT + "]"


def render_json(subcommand: str, seed: int, params: dict, results: dict) -> str:
    """The record as one JSON object with a 2-space indent.

    Every float is printed as the ``repr`` of its value rounded to 9
    significant digits, exactly as ``json.dumps`` prints that rounded
    float.  A non-finite float raises ``RuntimeError``: JSON has no
    spelling for it.  Tables are formatted column by column and spliced
    into the indented envelope in place of a marker string.
    """
    _check_finite(params, results)
    markers = {key: f"\0table:{key}" for key, value in results.items() if isinstance(value, Table)}
    payload = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": seed,
        "parameters": params,
        "results": {key: markers.get(key, value) for key, value in results.items()},
    }
    text = json.dumps(_round_floats(payload), indent=2, allow_nan=False)
    for key, marker in markers.items():
        text = text.replace(json.dumps(marker), _json_table(results[key]), 1)
    return text + "\n"


def render_csv(
    subcommand: str, seed: int, params: dict, results: dict, table_key: str | None
) -> str:
    """One header row, then one row per table row (a single row without a table).

    The envelope, parameters and non-table results repeat on every row;
    each of their cells and each table column is formatted once.
    """
    _check_finite(params, results)
    lead = {"subcommand": subcommand, "version": __version__, "seed": seed}
    lead.update(_flatten(params))
    summary = _flatten({k: v for k, v in results.items() if k != table_key})
    if table_key is None:
        table, rows = {}, 1
    else:
        table, rows = results[table_key].columns, len(results[table_key])
    header = [*lead, *table, *summary]
    if len(set(header)) != len(header):
        duplicates = sorted({name for name in header if header.count(name) > 1})
        raise RuntimeError(f"duplicate CSV column names: {', '.join(duplicates)}")

    columns = [repeat(_cell(v), rows) for v in lead.values()]
    columns += [_column_cells(column) for column in table.values()]
    columns += [repeat(_cell(v), rows) for v in summary.values()]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buffer.getvalue()


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        default="json",
        help="output format (default json)",
    )
    common.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")

    parser = argparse.ArgumentParser(
        prog="coordgame",
        description="Coordination-game experiments: shared-sequence and "
        "singlet-based strategies, payoff bounds, and sweeps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "classical", parents=[common], help="shared-sequence strategy end to end"
    )
    p.add_argument("--N", type=int, default=100_000, help="sequence length (default 100000)")
    p.add_argument("--q", type=float, default=0.1, help="flip fraction per step (default 0.1)")
    p.add_argument("--mode", choices=MODES, default="disjoint-flips")
    p.add_argument(
        "--rounds-per-pair",
        type=int,
        default=100_000,
        help="match rounds per state pair (default 100000)",
    )

    p = sub.add_parser(
        "quantum", parents=[common], help="singlet-measurement strategy end to end"
    )
    p.add_argument("--delta", type=float, default=0.1, help="angle spacing (default 0.1)")
    p.add_argument(
        "--rounds-per-pair",
        type=int,
        default=100_000,
        help="match rounds per state pair (default 100000)",
    )

    p = sub.add_parser("sweep", parents=[common], help="quantum payoff over a delta grid")
    p.add_argument("--delta-min", type=float, default=0.01)
    p.add_argument("--delta-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100)

    sub.add_parser(
        "lhv",
        parents=[common],
        help="deterministic-pair enumeration and the exact classical optimum",
    )

    p = sub.add_parser(
        "bounds", parents=[common], help="check both bound inequalities on a profile"
    )
    p.add_argument("q00", type=float)
    p.add_argument("q01", type=float)
    p.add_argument("q10", type=float)
    p.add_argument("q11", type=float)

    p = sub.add_parser("match", parents=[common], help="round-by-round match record dump")
    p.add_argument(
        "--strategy",
        choices=("classical", "quantum"),
        default="classical",
        help="strategy family for both players (default classical)",
    )
    p.add_argument("--N", type=int, default=8, help="sequence length (default 8)")
    p.add_argument("--q", type=float, default=0.1, help="flip fraction per step (default 0.1)")
    p.add_argument("--mode", choices=MODES, default="disjoint-flips")
    p.add_argument("--delta", type=float, default=0.1, help="angle spacing (default 0.1)")
    p.add_argument(
        "--rounds-per-pair",
        type=int,
        default=8,
        help="match rounds per state pair (default 8)",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    prefix = f"coordgame {args.subcommand}"
    try:
        params, results, table_key = _HANDLERS[args.subcommand](args)
        if args.format == "json":
            text = render_json(args.subcommand, args.seed, params, results)
        else:
            text = render_csv(args.subcommand, args.seed, params, results, table_key)
    except ValueError as exc:
        print(f"{prefix}: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"{prefix}: out of memory: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError, ArithmeticError) as exc:
        print(f"{prefix}: internal invariant failure: {exc}", file=sys.stderr)
        return 3

    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"{prefix}: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
