"""Output checks for each benchmark workload.

Every check takes the workload's parameters and one operation's stdout
and returns a list of problems; an empty list means the output is
correct.  The expected values are the paper's closed forms, so a check
holds on every seed:

* a full-cycle shared-sequence match (rounds per pair a multiple of N)
  has empirical payoff exactly 3;
* the singlet strategy's payoff is (1 + 2 cos delta)^2, and a sampled
  estimate lies within 4 reported half-widths of it;
* a sweep row's classical-bound slack is 3 q01 - q00 with
  q01 = sin^2(delta/2) and q00 = sin^2(3 delta/2).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# The CLI prints floats with 9 significant digits; one unit in the ninth
# digit is at most 1e-8 of the value.
NINE_DIGITS = 1e-8


def _close(value, expected: float) -> bool:
    return isinstance(value, (int, float)) and math.isclose(
        value, expected, rel_tol=NINE_DIGITS, abs_tol=1e-15
    )


def singlet_payoff(delta: float) -> float:
    """Analytic payoff of the equally-spaced singlet plan."""
    return (1.0 + 2.0 * math.cos(delta)) ** 2


def check_classical_match(params: dict, stdout: bytes) -> list[str]:
    empirical = json.loads(stdout)["results"]["empirical"]
    if empirical["payoff"] != 3.0:
        return [f"full-cycle empirical payoff {empirical['payoff']!r} != 3"]
    return []


def check_quantum_match(params: dict, stdout: bytes) -> list[str]:
    empirical = json.loads(stdout)["results"]["empirical"]
    expected = singlet_payoff(params["delta"])
    value, halfwidth = empirical["payoff"], empirical["confidence_halfwidth"]
    if value is None or halfwidth is None:
        return ["empirical payoff is degenerate"]
    if abs(value - expected) > 4.0 * halfwidth:
        return [f"empirical payoff {value} is more than 4 half-widths ({halfwidth}) from {expected}"]
    return []


def check_sweep(params: dict, stdout: bytes) -> list[str]:
    rows = json.loads(stdout)["results"]["rows"]
    deltas = np.linspace(params["delta_min"], params["delta_max"], params["steps"])
    if len(rows) != len(deltas):
        return [f"{len(rows)} rows, expected {len(deltas)}"]
    problems = []
    for k, (row, delta) in enumerate(zip(rows, deltas.tolist())):
        q00 = math.sin(1.5 * delta) ** 2
        q01 = math.sin(0.5 * delta) ** 2
        if not (
            _close(row["delta"], delta)
            and _close(row["payoff_quantum"], singlet_payoff(delta))
            and _close(row["classical_bound_slack"], 3.0 * q01 - q00)
        ):
            problems.append(f"row {k} disagrees with the closed form: {row}")
            if len(problems) >= 3:
                break
    return problems


def check_match_dump(params: dict, stdout: bytes) -> list[str]:
    reader = csv.DictReader(io.StringIO(stdout.decode("utf-8")))
    rows = list(reader)
    rounds = 4 * params["rounds_per_pair"]
    if len(rows) != rounds:
        return [f"{len(rows)} CSV rows, expected {rounds}"]
    mismatches = {"00": 0, "01": 0, "10": 0, "11": 0}
    totals = dict.fromkeys(mismatches, 0)
    for k, row in enumerate(rows):
        if int(row["round_index"]) != k:
            return [f"row {k} has round_index {row['round_index']}"]
        pair = row["state_one"] + row["state_two"]
        totals[pair] += 1
        mismatches[pair] += row["move_one"] != row["move_two"]
    problems = []
    summary = rows[0]
    for pair, count in mismatches.items():
        expected = count / totals[pair] if totals[pair] else math.nan
        reported = float(summary[f"empirical_profile_q{pair}"])
        if not _close(reported, expected):
            problems.append(f"q{pair}: summary {reported}, recount {expected}")
    if float(summary["empirical_payoff"]) != 3.0:
        problems.append(f"full-cycle empirical payoff {summary['empirical_payoff']} != 3")
    return problems


CHECKS = {
    "classical-match": check_classical_match,
    "quantum-match": check_quantum_match,
    "match-dump": check_match_dump,
    "sweep": check_sweep,
}


def check_output(workload: str, params: dict, returncode: int, stdout: bytes) -> list[str]:
    """Problems with one operation's result; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        return CHECKS[workload](params, stdout)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, csv.Error) as exc:
        return [f"output does not parse: {type(exc).__name__}: {exc}"]
