"""Command-line harness exposing every experiment with reproducible output.

Each subcommand runs one experiment and emits a single machine-readable
record (JSON object or CSV with a header row).  Every record carries the
subcommand name, tool version, seed, and echoed parameters, and the same
command line always produces byte-identical output.  The echoed
parameters are the arguments listed in the subcommand's ``_SUBCOMMANDS``
entry, in ``--help`` order; ``--seed`` is in the envelope.  Floats are
printed with 9 significant digits.

Exit codes: 0 success; 2 invalid parameters, memory exhausted, or output
not writable (one line on stderr); 3 internal invariant failure, which
includes a non-finite float in a JSON or CSV record.  Every check runs
before ``--out`` is opened, so an input that fails one leaves an existing
file as it was.  The record is then written slice by slice as it is
rendered: memory exhausted or a write error mid-record still exits 2, but
can leave partial output.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib.util
import json
import math
import os
import sys
from functools import partial
from itertools import chain
from types import SimpleNamespace

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
    confidence_halfwidth,
    match_profile,
    payoff,
    play_match,
)
from .quantum import GeneralAnglePlan, quantum_match_profile, quantum_player_strategy, quantum_profile

__all__ = ["main", "entry", "build_parser"]

# Nothing here calls these four names any more, but the benchmark tracer
# wraps them in this module at install; they go when tracing moves into
# the package.
run_match = empirical_profile = analytic_report = empirical_report = None

_MOVE_NAMES = np.array(["A", "B"])

#: Rows per slice that the renderers format by one ``%`` each; no byte depends on it.
#: Small slices reuse the heap's freed texts and cell lists rather than fault in new ones.
RENDER_SLICE_ROWS = 1024


class Table:
    """A result table as named, equal-length 1-D numpy columns, one entry per row.

    A column holds bools, integers, floats or strings.  ``len`` is the row
    count.  Renderers format a table in slices of ``RENDER_SLICE_ROWS``
    rows, each slice by one ``%`` operation, never row by row.

    Raises:
        RuntimeError: on a column that is not such an array, or on columns
            of unequal length.
    """

    def __init__(self, columns: dict):
        for name, column in columns.items():
            array = isinstance(column, np.ndarray) and column.ndim == 1
            if not (array and column.dtype.kind in "biufU"):
                raise RuntimeError(
                    f"table column {name!r} is not a 1-D numpy array of bools, numbers or strings"
                )
        lengths = {len(column) for column in columns.values()}
        if len(lengths) != 1:
            raise RuntimeError(f"table needs columns of one length, got lengths {sorted(lengths)}")
        self.columns, self.names, self._rows = columns, list(columns), lengths.pop()

    @classmethod
    def stream(cls, names: list, rows: int, slices) -> Table:
        """A table of ``rows`` rows that holds no column (``columns`` is empty).  ``slices`` replaces
        the method and makes them anew on each call; none may hold floats, checked only when held."""
        table = cls.__new__(cls)
        table.columns, table.names, table._rows, table.slices = {}, names, rows, slices
        return table

    def __len__(self) -> int:
        return self._rows

    def slices(self, size: int):
        """The columns in slices of at most ``size`` rows, one list of arrays per slice."""
        return ([c[start : start + size] for c in self.columns.values()] for start in range(0, len(self), size))


# Every echoed argument once: its flag (a positional's is its name) and its
# add_argument keywords.  A help text prints the subcommand's default.
_ARGUMENTS = {
    "strategy": (
        "--strategy",
        dict(choices=("classical", "quantum"), help="strategy family for both players (default %(default)s)"),
    ),
    "N": ("--N", dict(type=int, help="sequence length (default %(default)s)")),
    "q": ("--q", dict(type=float, help="flip fraction per step (default %(default)s)")),
    "mode": ("--mode", dict(choices=MODES, help="sequence generation mode (default %(default)s)")),
    "delta": ("--delta", dict(type=float, help="angle spacing (default %(default)s)")),
    "rounds_per_pair": ("--rounds-per-pair", dict(type=int, help="match rounds per state pair (default %(default)s)")),
    "delta_min": ("--delta-min", dict(type=float, help="first angle spacing of the grid (default %(default)s)")),
    "delta_max": ("--delta-max", dict(type=float, help="last angle spacing of the grid (default %(default)s)")),
    "steps": ("--steps", dict(type=int, help="number of equally spaced grid points (default %(default)s)")),
    **{name: (name, dict(type=float)) for name in ("q00", "q01", "q10", "q11")},
}

# Each subcommand's help and its own arguments with their defaults, in
# --help order: the parameters it echoes.  A positional's default is unused.
_SUBCOMMANDS = {
    "classical": (
        "shared-sequence strategy end to end",
        {"N": 100_000, "q": 0.1, "mode": "disjoint-flips", "rounds_per_pair": 100_000},
    ),
    "quantum": ("singlet-measurement strategy end to end", {"delta": 0.1, "rounds_per_pair": 100_000}),
    "sweep": ("quantum payoff over a delta grid", {"delta_min": 0.01, "delta_max": 1.0, "steps": 100}),
    "lhv": ("deterministic-pair enumeration and the exact classical optimum", {}),
    "bounds": ("check both bound inequalities on a profile", dict.fromkeys(("q00", "q01", "q10", "q11"))),
    "match": (
        "round-by-round match record dump",
        {"strategy": "classical", "N": 8, "q": 0.1, "mode": "disjoint-flips", "delta": 0.1, "rounds_per_pair": 8},
    ),
}


def _profile_dict(profile: MismatchProfile) -> dict:
    return {f"q{i}{j}": v for (i, j), v in zip(STATE_PAIRS, profile.q.tolist())}


def _verdict_dict(verdict) -> dict:
    return {"holds": verdict.holds, "slack": verdict.slack}


def _payoff_block(profile: MismatchProfile, samples: int | None = None) -> dict:
    """Profile plus payoff, with a degeneracy flag instead of a 0/0 crash."""
    try:
        value = payoff(profile)
        halfwidth = None if samples is None else confidence_halfwidth(profile, samples)
    except DegenerateProfile:
        value = halfwidth = None
    block = {
        "profile": _profile_dict(profile),
        "payoff": value,
        "degenerate": value is None,
    }
    if samples is not None:
        block["confidence_halfwidth"] = halfwidth
        block["samples_per_state_pair"] = samples
    return block


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _echo(args) -> dict:
    """The echoed parameters: the arguments of the subcommand's ``_SUBCOMMANDS`` entry, in order."""
    return {name: getattr(args, name) for name in _SUBCOMMANDS[args.subcommand][1]}


def _checked_config(args) -> ClassicalConfig | None:
    """The checks of every match parameter the command has, whichever family plays:
    rounds, then ``--q``, then ``--delta``; the classical config, if the command has one."""
    _require(args.rounds_per_pair >= 1, "rounds-per-pair must be >= 1")
    config = ClassicalConfig(n=args.N, q=args.q, mode=args.mode, seed=args.seed) if hasattr(args, "q") else None
    if hasattr(args, "delta"):
        _require(0.0 < args.delta < math.pi / 3.0, "delta must lie in (0, pi/3)")
    return config


def _players(args, family: str):
    """Both players of ``family``, built after :func:`_checked_config`, for a classical count and ``match``'s replay."""
    config = _checked_config(args)
    if family == "classical":
        sequences = generate_sequences(config)
        return classical_strategy(1, sequences), classical_strategy(2, sequences)
    return quantum_player_strategy(GeneralAnglePlan.equally_spaced(args.delta), args.seed)


def _count_play(args, family: str):
    """``family``'s counts-only match, after :func:`_checked_config`, as a call of no arguments.

    This is the one place that picks each family's count.  The count is
    returned unplayed, so ``_end_to_end`` computes the analytic profile
    after the players are built and before they play, and its errors keep
    their place among the checks.  Classical players are built here and
    play :func:`match_profile`.  A singlet count reads player two's coins
    alone, so it builds no players and draws no coin of player one's
    (:func:`quantum_match_profile`).
    """
    r = args.rounds_per_pair
    if family == "classical":
        return partial(match_profile, *_players(args, family), r)
    _checked_config(args)
    return partial(quantum_match_profile, GeneralAnglePlan.equally_spaced(args.delta), args.seed, r)


def _end_to_end(args, analytic_profile) -> tuple[dict, dict, str | None]:
    """One counts-only match of the command's family against its analytic profile."""
    count = _count_play(args, args.subcommand)
    analytic = analytic_profile()
    empirical = count()
    results = {
        "analytic": _payoff_block(analytic),
        "empirical": _payoff_block(empirical, samples=args.rounds_per_pair),
        "bounds": {
            "classical": _verdict_dict(classical_bound(analytic)),
            "quantum": _verdict_dict(quantum_bound(analytic)),
        },
    }
    return _echo(args), results, None


def _cmd_classical(args) -> tuple[dict, dict, str | None]:
    return _end_to_end(args, lambda: analytic_classical_profile(args.q, args.mode))


def _cmd_quantum(args) -> tuple[dict, dict, str | None]:
    return _end_to_end(args, lambda: quantum_profile(args.delta))


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
    return _echo(args), {"rows": rows}, "rows"


def _cmd_lhv(args) -> tuple[dict, dict, str | None]:
    moves, vertices = enumerate_deterministic_pairs()
    supremum, weights = lhv_supremum_payoff()
    witness_profile = lhv_profile(weights)

    holds = classical_bound(vertices).holds
    move_names = _MOVE_NAMES[moves]
    columns = {"vertex_index": np.arange(len(moves))}
    for c, name in enumerate(("m1_state0", "m1_state1", "m2_state0", "m2_state1")):
        columns[name] = move_names[:, c]
    for (i, j), column in zip(STATE_PAIRS, vertices.q):
        columns[f"d{i}{j}"] = column.astype(np.int64)
    columns["satisfies_bound"] = holds
    columns["witness_weight"] = weights

    results = {
        "vertices": Table(columns),
        "all_vertices_satisfy_bound": bool(holds.all()),
        "supremum_payoff": supremum,
        "witness_q": witness_profile.q01,
        "witness_profile": _profile_dict(witness_profile),
        "witness_payoff": payoff(witness_profile),
    }
    return _echo(args), results, "vertices"


def _cmd_bounds(args) -> tuple[dict, dict, str | None]:
    # rejects an entry outside [0, 1]
    profile = MismatchProfile(args.q00, args.q01, args.q10, args.q11)
    results = {
        **_payoff_block(profile),
        "classical_bound": _verdict_dict(classical_bound(profile)),
        "quantum_bound": _verdict_dict(quantum_bound(profile)),
    }
    return _echo(args), results, None


def _cmd_match(args) -> tuple[dict, dict, str | None]:
    """The counts of one play, and a table that plays the same seeded players to list its rounds."""
    r = args.rounds_per_pair
    empirical = _count_play(args, args.strategy)()
    names = ["round_index", "state_one", "state_two", "move_one", "move_two"]

    def slices(size: int):
        for start, move_one, move_two in play_match(*_players(args, args.strategy), r):
            n = len(move_one)
            states = (np.full(n, state) for state in STATE_PAIRS[start // r])  # no chunk crosses a block
            columns = [np.arange(start, start + n), *states, _MOVE_NAMES[move_one], _MOVE_NAMES[move_two]]
            yield from Table(dict(zip(names, columns))).slices(size)

    results = {"rounds": Table.stream(names, 4 * r, slices), "empirical": _payoff_block(empirical, samples=r)}
    return _echo(args), results, "rounds"


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
        if isinstance(value, Table):
            finite = all(np.isfinite(c).all() for c in value.columns.values() if c.dtype.kind == "f")
        else:
            finite = not isinstance(value, (float, np.floating)) or math.isfinite(value)
        if not finite:
            raise RuntimeError(f"{name} holds a non-finite float")


def _may_print_unlike_repr(floats: np.ndarray) -> np.ndarray:
    """Where an entry's ``%.9g`` text may not be its JSON text (see :func:`_format_slices`)."""
    magnitude = np.abs(floats)
    return (np.abs(floats - np.rint(floats)) <= 1e-8 * magnitude) | (magnitude >= 9e7) | (magnitude < 2.3e-308)


def _format_slices(table: Table, row: str, separator: str, encode, json_floats: bool):
    """The table's rows as one text per slice of ``RENDER_SLICE_ROWS`` rows, each made by one ``%``.

    ``row`` holds a ``%s`` for each column's conversion and escapes each
    ``%`` of its own text twice.  Integers print by ``%d``, floats by
    ``%.9g``, bools and strings by ``%s``, ``encode``d once per distinct
    value.  With ``json_floats`` a float prints as ``repr(float(t))`` for
    its ``%.9g`` text t, which is t unless the rounded value is whole (``3``,
    ``-0``), lies in [1e9, 1e16) or is subnormal: no other decimal of at
    most 15 digits reads back as the same float, so ``repr`` keeps the
    digits and, outside exponents [-4, 9), writes two or more exponent
    digits as ``%g`` does, also when negative (``1e-05``).  A float column
    slice where :func:`_may_print_unlike_repr` flags an entry, a superset of
    those cases, gets per-cell texts, each flagged one printed by ``repr``.
    """
    for columns in table.slices(RENDER_SLICE_ROWS):
        rows = len(columns[0])
        conversions, cells = [], [None] * (len(columns) * rows)
        for i, column in enumerate(columns):
            values = column.tolist()
            conversion = {"i": "%d", "u": "%d", "f": "%.9g"}.get(column.dtype.kind, "%s")
            if conversion == "%s":
                encoded = {v: encode(v) for v in set(values)}
                values = list(map(encoded.__getitem__, values))
            elif conversion == "%.9g" and json_floats and (suspects := _may_print_unlike_repr(column)).any():
                conversion = "%s"
                values = ("%.9g\n" * rows % tuple(values)).split("\n")[:-1]
                for j in np.flatnonzero(suspects).tolist():
                    values[j] = repr(float(values[j]))
            conversions.append(conversion)
            cells[i :: len(columns)] = values
        yield separator.join([row % tuple(conversions)] * rows) % tuple(cells)


# a table is a value of "results", two levels into the record
_TABLE_INDENT = "    "


def _json_table(table: Table):
    """A table as the indented JSON list of row objects that sits under ``results``, in pieces."""
    if not len(table):
        yield "[]"
        return
    names = (json.dumps(name).replace("%", "%%%%") for name in table.names)
    fields = ",\n".join(f"{_TABLE_INDENT}    {name}: %s" for name in names)
    row = _TABLE_INDENT + "  {\n" + fields + "\n" + _TABLE_INDENT + "  }"
    separator = "[\n"
    for text in _format_slices(table, row, ",\n", json.dumps, True):
        yield separator + text
        separator = ",\n"
    yield "\n" + _TABLE_INDENT + "]"


def render_json(subcommand: str, seed: int, params: dict, results: dict):
    """The record as one JSON object with a 2-space indent, as an iterator of text pieces.

    Every float is printed as the ``repr`` of its value rounded to 9
    significant digits, exactly as ``json.dumps`` prints that rounded
    float.  A non-finite float raises ``RuntimeError`` before the return:
    JSON has no spelling for it.  Tables, whose columns are numpy arrays,
    are formatted by :func:`_format_slices`, one ``%`` per row slice, in
    place of a marker string in the indented envelope.
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
    pieces = []
    for key, marker in markers.items():
        head, text = text.split(json.dumps(marker), 1)
        pieces += [[head], _json_table(results[key])]
    return chain(*pieces, [text + "\n"])


def render_csv(subcommand: str, seed: int, params: dict, results: dict, table_key: str | None):
    """One header row, then one row per table row (a single row without a table).

    Returns an iterator of text pieces, the header and then one per row
    slice, after every check.  The envelope, parameters and non-table
    results repeat on every row, so they are quoted once into a row
    template.  Table columns are numpy arrays, formatted by
    :func:`_format_slices` as in ``render_json``; their bools and strings
    are quoted once per distinct value per slice.  All quoting is
    ``csv.writer``'s, whose rules differ between versions.
    """
    _check_finite(params, results)
    lead = {"subcommand": subcommand, "version": __version__, "seed": seed}
    lead.update(_flatten(params))
    summary = _flatten({k: v for k, v in results.items() if k != table_key})
    table = [] if table_key is None else results[table_key].names
    header = [*lead, *table, *summary]
    if len(set(header)) != len(header):
        duplicates = sorted({name for name in header if header.count(name) > 1})
        raise RuntimeError(f"duplicate CSV column names: {', '.join(duplicates)}")

    # writerow returns what its file's write returns: here, the row's text
    write_row = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    if table_key is None:
        return iter([write_row(header) + write_row(map(_cell, [*lead.values(), *summary.values()]))])
    lead_cells = [_cell(v).replace("%", "%%%%") for v in lead.values()]
    summary_cells = [_cell(v).replace("%", "%%%%") for v in summary.values()]
    row = write_row([*lead_cells, *["%s"] * len(table), *summary_cells])

    def encode(value) -> str:
        return write_row((_cell(value), ""))[:-2]  # a lone empty field would be written as ""

    return chain([write_row(header)], _format_slices(results[table_key], row, "", encode, False))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
    common.add_argument(
        "--format", choices=("csv", "json"), default="json", help="output format (default %(default)s)"
    )
    common.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")

    parser = argparse.ArgumentParser(
        prog="coordgame",
        description="Coordination-game experiments: shared-sequence and "
        "singlet-based strategies, payoff bounds, and sweeps.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=summary)
        for dest, default in defaults.items():
            flag, keywords = _ARGUMENTS[dest]
            p.add_argument(flag, default=default, **keywords)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    prefix = f"coordgame {args.subcommand}"
    try:
        params, results, table_key = _HANDLERS[args.subcommand](args)
        if args.format == "json":
            pieces = render_json(args.subcommand, args.seed, params, results)
        else:
            pieces = render_csv(args.subcommand, args.seed, params, results, table_key)
        # every check has passed; each piece is written as soon as it is made
        if args.out is None:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
    except ValueError as exc:
        print(f"{prefix}: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"{prefix}: out of memory: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError, ArithmeticError) as exc:
        print(f"{prefix}: internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"{prefix}: cannot write output: {exc}", file=sys.stderr)
        if args.out is None:
            # the interpreter flushes stdout again at exit; let that flush succeed
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0


# CPython's own hash modules, which hashlib and hmac fall back to when
# OpenSSL's _hashlib cannot be imported; 3.12 merged _sha256 and _sha512.
_BUILTIN_HASHES = (
    ("_md5", "_sha1", "_sha2", "_blake2", "_sha3")
    if sys.version_info >= (3, 12)
    else ("_md5", "_sha1", "_sha256", "_sha512", "_blake2", "_sha3")
)


def entry() -> int:
    """The process entry: the ``coordgame`` script and ``python -m coordgame.cli``.

    It freezes the heap built by the imports before running :func:`main`,
    so collections during the run and at interpreter exit skip those
    objects (mostly numpy's) instead of walking them again.  Exit still
    flushes and runs ``atexit`` as usual.

    It also keeps OpenSSL out of the process.  ``numpy.random`` imports
    ``secrets``, whose ``hmac`` import loads ``_hashlib`` and with it
    ``libcrypto``, about 3.4 MiB resident, though every draw here is seeded
    and nothing is hashed.  A ``None`` entry for ``_hashlib`` in
    ``sys.modules`` makes that import fail, and ``hashlib`` and ``hmac``
    then use CPython's built-in hash modules instead.  If any of those is
    missing, ``hashlib`` would log an error for each absent hash on import,
    so OpenSSL is left alone; it is also left alone if already loaded.

    Only the process entry does either: importing this module or calling
    ``main`` leaves the collector and ``sys.modules`` as they are.
    """
    gc.freeze()
    if all(importlib.util.find_spec(name) for name in _BUILTIN_HASHES):
        sys.modules.setdefault("_hashlib", None)
    return main()


if __name__ == "__main__":
    sys.exit(entry())
