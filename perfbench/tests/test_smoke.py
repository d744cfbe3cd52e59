"""Smoke test for the benchmark: tiny workloads, every metric printed, failures counted.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

TINY = {
    "classical-match": {"N": 1000, "q": 0.1, "rounds_per_pair": 1000},
    "quantum-match": {"delta": 0.5, "rounds_per_pair": 2000},
    "match-dump": {"strategy": "classical", "N": 50, "rounds_per_pair": 100, "format": "csv"},
    "sweep": {"delta_min": 0.01, "delta_max": 1.0, "steps": 50},
}

# Runs the real CLI, then damages its stdout the way the mode says.
SHIM = '''
import contextlib, io, json, os, sys, time
from coordgame import cli

buffer = io.StringIO()
with contextlib.redirect_stdout(buffer):
    code = cli.main(sys.argv[1:])
text = buffer.getvalue()
if os.environ["SHIM_MODE"] == "nondeterministic":
    # trailing whitespace keeps the JSON valid; the clock makes every run's bytes differ
    text += format(time.time_ns(), "b").replace("0", " ").replace("1", "\t")
elif sys.argv[1] == "match":
    lines = text.splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[13] = "B" if cells[13] == "A" else "A"  # flip the last round's move_two
    text = "".join(lines[:-1]) + ",".join(cells)
else:
    doc = json.loads(text)
    if sys.argv[1] == "sweep":
        doc["results"]["rows"][-1]["classical_bound_slack"] *= 1.001
    else:
        doc["results"]["empirical"]["payoff"] = 100.0
    text = json.dumps(doc, indent=2) + "\\n"
sys.stdout.write(text)
sys.exit(code)
'''


def printed(result) -> list[str]:
    return bench.report_lines(result) + [json.dumps(bench.summary(result))]


def shim_cli(tmp_path, monkeypatch, mode: str) -> list[str]:
    path = tmp_path / "shim.py"
    path.write_text(SHIM)
    monkeypatch.setenv("SHIM_MODE", mode)
    return [sys.executable, str(path)]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    result = bench.run(workload, seed=1, seconds=0.1, trace=trace, params=TINY[workload])
    lines = printed(result)
    last = json.loads(lines[-1])
    assert list(last) == ["correct", "attempted", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 3
    units = bench.units(trace)
    assert {name: m["unit"] for name, m in last["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[0] == name and line.split()[2] == unit for line in lines[:-1])
    assert any(line.split()[:2] == ["error_rate", "0"] for line in lines)
    if trace:
        # every traced operation went through all the wrapped layers it uses
        assert result.metrics["cli.build_parser_s"] > 0 and result.metrics["cli.render_s"] > 0
        assert result.metrics["trace.spans"] >= 3


def test_times_scale_with_the_local_reference():
    result = bench.Result("sweep", 1, False, {}, {})
    nominal = bench.NOMINAL_REFERENCE_S
    # a slow phase (reference twice nominal) up to position 10, nominal from 20
    result.reference_s = [(p, 2 * nominal) for p in range(0, 12, 2)] + [
        (p, nominal) for p in range(20, 40, 2)
    ]
    assert bench.speed_scale(result, 5) == pytest.approx(0.5)
    assert bench.speed_scale(result, 30) == pytest.approx(1.0)
    assert bench.speed_scale(result, 19) == pytest.approx(1 / 1.5)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.units(False)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.units(True)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_corrupted_output_counts_in_error_rate(workload, tmp_path, monkeypatch):
    cli = shim_cli(tmp_path, monkeypatch, "corrupt")
    result = bench.run(workload, seed=1, seconds=0.1, trace=False, params=TINY[workload], cli=cli)
    last = json.loads(printed(result)[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] >= 3
    assert any(line.split()[:2] == ["error_rate", "1"] for line in printed(result))


def test_nondeterministic_output_fails_the_repeat(tmp_path, monkeypatch):
    cli = shim_cli(tmp_path, monkeypatch, "nondeterministic")
    result = bench.run("sweep", seed=1, seconds=0.1, trace=False, params=TINY["sweep"], cli=cli)
    failed = [op for op in result.ops if op.problems]
    assert failed == [result.ops[-1]]
    assert "differs from the first run" in failed[0].problems[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / "perfbench" / "out").exists()
