"""Command-line harness exposing every experiment with reproducible output.

Each subcommand runs one experiment and emits a single machine-readable
record (JSON object or CSV with a header row).  Every record carries the
subcommand name, tool version, seed, and echoed parameters, and the same
command line always produces byte-identical output.  Floats are printed
with 9 significant digits.

Exit codes: 0 success, 2 invalid parameters, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

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
    DegenerateProfile,
    MismatchProfile,
    analytic_report,
    empirical_profile,
    empirical_report,
    match_profile,
    payoff,
    run_match,
    uniform_schedule,
)
from .quantum import AnglePlan, SingletSampler, quantum_player_strategy, quantum_profile

__all__ = ["main", "build_parser"]

_MOVE_NAMES = ("A", "B")


def _profile_dict(profile: MismatchProfile) -> dict:
    return {
        "q00": profile.q00,
        "q01": profile.q01,
        "q10": profile.q10,
        "q11": profile.q11,
    }


def _verdict_dict(verdict) -> dict:
    return {"holds": verdict.holds, "slack": verdict.slack}


def _payoff_block(profile: MismatchProfile, samples: int | None = None) -> dict:
    """Profile plus payoff, with a degeneracy flag instead of a 0/0 crash."""
    block = {"profile": _profile_dict(profile)}
    try:
        if samples is None:
            report = analytic_report(profile)
        else:
            report = empirical_report(profile, samples)
    except DegenerateProfile:
        block["payoff"] = None
        block["degenerate"] = True
        if samples is not None:
            block["confidence_halfwidth"] = None
            block["samples_per_state_pair"] = samples
        return block
    block["payoff"] = report.payoff
    block["degenerate"] = False
    if samples is not None:
        block["confidence_halfwidth"] = report.confidence_halfwidth
        block["samples_per_state_pair"] = report.samples_per_state_pair
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
        uniform_schedule(args.rounds_per_pair),
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

    one, two = quantum_player_strategy(AnglePlan(args.delta), SingletSampler(args.seed))
    empirical = match_profile(one, two, uniform_schedule(args.rounds_per_pair), seed=args.seed)

    params = {"delta": args.delta, "rounds_per_pair": args.rounds_per_pair}
    results = {
        "analytic": _payoff_block(analytic),
        "empirical": _payoff_block(empirical, samples=args.rounds_per_pair),
        "bounds": _bounds_block(analytic),
    }
    return params, results, None


def _cmd_sweep(args) -> tuple[dict, dict, str | None]:
    table = sweep_quantum_payoff(args.delta_min, args.delta_max, args.steps)
    rows = [
        {
            "delta": row.delta,
            "q00": row.profile.q00,
            "q01": row.profile.q01,
            "payoff_quantum": row.payoff,
            "classical_bound_slack": classical_bound(row.profile).slack,
        }
        for row in table
    ]
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

    vertices = []
    for k, (pair, profile) in enumerate(pairs):
        vertices.append(
            {
                "vertex_index": k,
                "m1_state0": _MOVE_NAMES[pair.m1[0]],
                "m1_state1": _MOVE_NAMES[pair.m1[1]],
                "m2_state0": _MOVE_NAMES[pair.m2[0]],
                "m2_state1": _MOVE_NAMES[pair.m2[1]],
                "d00": int(profile.q00),
                "d01": int(profile.q01),
                "d10": int(profile.q10),
                "d11": int(profile.q11),
                "satisfies_bound": classical_bound(profile).holds,
                "witness_weight": float(witness.weights[k]),
            }
        )

    results = {
        "vertices": vertices,
        "all_vertices_satisfy_bound": all(v["satisfies_bound"] for v in vertices),
        "supremum_payoff": supremum,
        "witness_q": 0.1,
        "witness_profile": _profile_dict(witness_profile),
        "witness_payoff": payoff(witness_profile),
    }
    return {}, results, "vertices"


def _cmd_bounds(args) -> tuple[dict, dict, str | None]:
    values = (args.q00, args.q01, args.q10, args.q11)
    for name, v in zip(("q00", "q01", "q10", "q11"), values):
        _require(0.0 <= v <= 1.0, f"{name}={v!r} outside [0, 1]")
    profile = MismatchProfile(*values)

    params = dict(zip(("q00", "q01", "q10", "q11"), values))
    results = {
        **_payoff_block(profile),
        "classical_bound": _verdict_dict(classical_bound(profile)),
        "quantum_bound": _verdict_dict(quantum_bound(profile)),
    }
    return params, results, None


def _cmd_match(args) -> tuple[dict, dict, str | None]:
    _require(args.rounds_per_pair >= 1, "rounds-per-pair must be >= 1")
    if args.strategy == "classical":
        config = ClassicalConfig(n=args.N, q=args.q, mode=args.mode, seed=args.seed)
        sequences = generate_sequences(config)
        one, two = classical_strategy(1, sequences), classical_strategy(2, sequences)
    else:
        _require(0.0 < args.delta < math.pi / 3.0, "delta must lie in (0, pi/3)")
        one, two = quantum_player_strategy(
            AnglePlan(args.delta), SingletSampler(args.seed)
        )

    records = run_match(one, two, uniform_schedule(args.rounds_per_pair), seed=args.seed)
    rows = [
        {
            "round_index": r.round_index,
            "state_one": int(r.states.player_one),
            "state_two": int(r.states.player_two),
            "move_one": _MOVE_NAMES[r.move_one],
            "move_two": _MOVE_NAMES[r.move_two],
        }
        for r in records
    ]
    empirical = empirical_profile(records)

    params = {
        "strategy": args.strategy,
        "N": args.N,
        "q": args.q,
        "mode": args.mode,
        "delta": args.delta,
        "rounds_per_pair": args.rounds_per_pair,
    }
    results = {
        "rounds": rows,
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
    """Flatten nested result dicts to CSV columns with underscore-joined names.

    List values are omitted; tables are emitted as CSV rows, not columns.
    """
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{prefix}{key}_"))
        elif not isinstance(value, (list, tuple)):
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


def render_json(subcommand: str, seed: int, params: dict, results: dict) -> str:
    payload = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": seed,
        "parameters": params,
        "results": results,
    }
    return json.dumps(_round_floats(payload), indent=2) + "\n"


def render_csv(
    subcommand: str, seed: int, params: dict, results: dict, table_key: str | None
) -> str:
    lead = {"subcommand": subcommand, "version": __version__, "seed": seed}
    lead.update(_flatten(params))
    if table_key is None:
        rows = [_flatten(results)]
    else:
        summary = _flatten({k: v for k, v in results.items() if k != table_key})
        rows = [{**_flatten(row), **summary} for row in results[table_key]]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(lead) + list(rows[0]))
    for row in rows:
        writer.writerow([_cell(v) for v in {**lead, **row}.values()])
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
    try:
        params, results, table_key = _HANDLERS[args.subcommand](args)
    except ValueError as exc:
        print(f"coordgame {args.subcommand}: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError, ArithmeticError) as exc:
        print(f"coordgame {args.subcommand}: internal invariant failure: {exc}", file=sys.stderr)
        return 3

    if args.format == "json":
        text = render_json(args.subcommand, args.seed, params, results)
    else:
        text = render_csv(args.subcommand, args.seed, params, results, table_key)

    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
