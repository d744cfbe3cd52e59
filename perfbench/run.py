"""Benchmark for the coordgame CLI: fresh-process operations in a closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one operation at a time and waits for it to finish.
Each operation is one ``python -m coordgame.cli ...`` invocation in a new
interpreter, with ``src`` on ``PYTHONPATH`` and a ``--seed`` drawn from
the workload seed.  Every output is checked (see ``checks.py``).

With ``--trace 0`` the run reports the end-to-end metrics, with its times
scaled to a nominal machine speed by reference probes timed between the
operations (see ``REFERENCE``).  With ``--trace 1`` every second operation
runs under ``trace_child.py``, which records a span around each layer call
without editing ``src/``; the run reports per-layer metrics from those
operations and the tracing overhead against the untraced operations
between them.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit, the machine block and the computed work counts.
Each run also writes its operations, machine block and spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# A fixed program that touches neither coordgame nor the checkout:
# interpreter start-up, the numpy import, memory-bound numpy passes, and
# building and formatting small Python records: the same mix of work as an
# operation.  On a shared machine the speed of all of these drifts together,
# by 20% and more within minutes.  An untraced run times this program
# between its operations and scales every time it reports to the machine
# speed at which the program takes NOMINAL_REFERENCE_S.
REFERENCE = """
import numpy as np
x = np.random.default_rng(0).random(1_000_000)
for _ in range(2):
    x = np.sqrt(x).cumsum() % 1.0
rows = [{"index": i, "move": "AB"[i & 1], "value": i / 7} for i in range(25_000)]
text = "\\n".join(f"{r['index']},{r['move']},{r['value']:.9g}" for r in rows)
"""
# About the reference's time on a 2-core Intel Xeon VM with Python 3.11 and
# numpy 2.4, where it ranged from 0.22 to 0.38 s.
NOMINAL_REFERENCE_S = 0.25

# The reference runs after every second operation and setup_s after every
# fourth, so the probes span the run like the operations do.
REFERENCE_EVERY = 2
SETUP_EVERY = 4
REFERENCE_WINDOW = 3

# What setup_s times in a fresh interpreter.
SETUP = "import coordgame.cli"

# A child still running after this many seconds is killed and its operation
# fails, so that a hung program cannot hold the run past its time limit.
OP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    subcommand: str
    params: dict
    item: str  # what work_per_s counts: "rounds" or "rows"
    why: str

    def argv(self, params: dict, seed: int) -> list[str]:
        args = [self.subcommand]
        for key, value in params.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        return args + ["--seed", str(seed)]

    def work(self, params: dict) -> int:
        return 4 * params["rounds_per_pair"] if self.item == "rounds" else params["steps"]


WORKLOADS = {
    "classical-match": Workload(
        "classical",
        {"N": 1_000_000, "q": 0.1, "rounds_per_pair": 1_000_000},
        "rounds",
        "sequence generation and the game kernels do the work; rounds per pair = N "
        "gives full cycles, so the payoff is exactly 3",
    ),
    "quantum-match": Workload(
        "quantum",
        {"delta": 0.1, "rounds_per_pair": 1_000_000},
        "rounds",
        "singlet sampling dominates beside the same run_match/empirical_profile; "
        "largest resident memory",
    ),
    "match-dump": Workload(
        "match",
        {"strategy": "classical", "N": 2500, "rounds_per_pair": 2500, "format": "csv"},
        "rounds",
        "game per record (a RoundRecord per round) and CSV rendering; the kernels "
        "are a few milliseconds",
    ),
    "sweep": Workload(
        "sweep",
        {"delta_min": 0.01, "delta_max": 1.0, "steps": 10_000},
        "rows",
        "the only workload where bounds and the scalar quantum_profile do real work; "
        "covers JSON rendering",
    ),
}

END_TO_END_UNITS = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "work_per_s": "items/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# name -> (unit, span name or count name, field); field "count" reads a
# computed work count, the others read the span totals of one operation.
PER_LAYER = {
    "game.run_match_s": ("s", "game.run_match", "total_s"),
    "game.run_match_self_s": ("s", "game.run_match", "self_s"),
    "game.run_match_peak_mib": ("MiB", "game.run_match", "peak_bytes"),
    "game.empirical_profile_s": ("s", "game.empirical_profile", "total_s"),
    "game.empirical_profile_peak_mib": ("MiB", "game.empirical_profile", "peak_bytes"),
    "game.payoff_s": ("s", "game.payoff", "total_s"),
    "game.rounds": ("count", "game.rounds", "count"),
    "game.shared_random_bytes": ("B", "game.shared_random_bytes", "count"),
    "game.record_bytes": ("B", "game.record_bytes", "count"),
    "classical.generate_sequences_s": ("s", "classical.generate_sequences", "total_s"),
    "classical.generate_sequences_peak_mib": ("MiB", "classical.generate_sequences", "peak_bytes"),
    "classical.moves_s": ("s", "classical.moves", "total_s"),
    "classical.moves_peak_mib": ("MiB", "classical.moves", "peak_bytes"),
    "classical.bits_generated": ("count", "classical.bits_generated", "count"),
    "quantum.moves_one_s": ("s", "quantum.moves_one", "total_s"),
    "quantum.moves_two_s": ("s", "quantum.moves_two", "total_s"),
    "quantum.moves_one_peak_mib": ("MiB", "quantum.moves_one", "peak_bytes"),
    "quantum.moves_two_peak_mib": ("MiB", "quantum.moves_two", "peak_bytes"),
    "quantum.random_bytes": ("B", "quantum.random_bytes", "count"),
    "quantum.profile_s": ("s", "quantum.profile", "total_s"),
    "quantum.profile_calls": ("count", "quantum.profile", "calls"),
    "bounds.sweep_s": ("s", "bounds.sweep", "total_s"),
    "bounds.sweep_self_s": ("s", "bounds.sweep", "self_s"),
    "bounds.classical_bound_s": ("s", "bounds.classical_bound", "total_s"),
    "bounds.classical_bound_calls": ("count", "bounds.classical_bound", "calls"),
    "bounds.quantum_bound_s": ("s", "bounds.quantum_bound", "total_s"),
    "cli.handler_s": ("s", "cli.handler", "total_s"),
    "cli.handler_self_s": ("s", "cli.handler", "self_s"),
    "cli.render_s": ("s", "cli.render", "total_s"),
    "cli.build_parser_s": ("s", "cli.build_parser", "total_s"),
    "cli.rows": ("count", "cli.rows", "count"),
}

# Per-layer metrics from outside the span totals: import times taken by the
# traced child, and output bytes and tracing overhead taken by this process.
PER_LAYER_EXTRA_UNITS = {
    "cli.output_bytes": "B",
    "setup.numpy_import_s": "s",
    "setup.coordgame_import_s": "s",
    "trace.spans": "count",
    "trace.op_s_p50": "s",
    "trace.untraced_op_s_p50": "s",
    "trace.overhead_pct": "%",
}

# Work counts derived from array sizes and outputs, labelled "computed".
COMPUTED = {name for name, spec in PER_LAYER.items() if spec[2] == "count"} | {"cli.output_bytes"}


@dataclass
class Op:
    index: int
    seed: int
    traced: bool
    timed: bool
    wall_s: float
    maxrss_kib: int
    returncode: int
    output_bytes: int
    digest: str
    problems: list
    work: int
    position: int
    layers: dict | None = None
    stderr: str = ""


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    params: dict
    machine: dict
    ops: list = field(default_factory=list)
    # (position, wall s) of each probe; a position orders all the run's
    # operations and probes in time
    setup_s: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> value
    raw: dict = field(default_factory=dict)  # unscaled wall times, name -> s
    notes: dict = field(default_factory=dict)  # name -> text printed beside the value


class FatalError(RuntimeError):
    """The program cannot be run at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(cmd: list[str], env: dict) -> tuple[float, int, bytes, bytes, int]:
    """Run one child to exit: (wall s, exit code, stdout, stderr, ru_maxrss KiB)."""
    with open(OUT / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        return wall, proc.returncode, stdout, err.read(), usage.ru_maxrss


def probe(code: str, env: dict) -> float:
    """Wall seconds for a fresh interpreter that runs ``code`` and exits."""
    wall, status, _, stderr, _ = spawn([sys.executable, "-c", code], env)
    if status != 0:
        raise FatalError(f"probe {code.strip()!r} failed: {stderr.decode(errors='replace')}")
    return wall


def next_position(result: Result) -> int:
    return len(result.ops) + len(result.setup_s) + len(result.reference_s)


def speed_scale(result: Result, position: int) -> float:
    """NOMINAL_REFERENCE_S over the local reference time at ``position``.

    The local reference time is the mean of the REFERENCE_WINDOW nearest
    reference probes before the measurement and as many after it, which
    spans about ten seconds of the run.
    """
    positions = [p for p, _ in result.reference_s]
    i = bisect.bisect(positions, position)
    near = result.reference_s[max(i - REFERENCE_WINDOW, 0) : i + REFERENCE_WINDOW]
    return NOMINAL_REFERENCE_S / statistics.fmean(wall for _, wall in near)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    Below 21 samples that percentile would not exceed the median; the
    maximum is returned instead, as the 100th percentile.
    """
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) >= 21 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def machine_block() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def layer_values(doc: dict) -> dict:
    values = {}
    for name, (unit, source, key) in PER_LAYER.items():
        if key == "count":
            value = doc["counts"].get(source, 0)
        else:
            value = doc["totals"].get(source, {}).get(key, 0)
        values[name] = value / 2**20 if unit == "MiB" else value
    values["setup.numpy_import_s"] = doc["imports_s"]["numpy"]
    values["setup.coordgame_import_s"] = doc["imports_s"]["coordgame"]
    values["trace.spans"] = doc["spans_recorded"]
    return values


def run_op(result: Result, workload: Workload, index: int, seed: int, traced: bool,
           timed: bool, cli: list[str], env: dict) -> Op:
    argv = workload.argv(result.params, seed)
    spans_path = OUT / f"spans-{index}.json"
    if traced:
        cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans_path), str(index), *argv]
    else:
        cmd = [*cli, *argv]
    wall, code, stdout, stderr, maxrss = spawn(cmd, env)
    problems = checks.check_output(result.workload, result.params, code, stdout)
    op = Op(
        index=index,
        seed=seed,
        traced=traced,
        timed=timed,
        wall_s=wall,
        maxrss_kib=maxrss,
        returncode=code,
        output_bytes=len(stdout),
        digest=hashlib.sha256(stdout).hexdigest(),
        problems=problems,
        work=0 if problems else workload.work(result.params),
        position=next_position(result),
        stderr=stderr.decode(errors="replace")[-2000:],
    )
    if traced and spans_path.is_file():
        op.layers = json.loads(spans_path.read_text())
        spans_path.unlink()
    result.ops.append(op)
    return op


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        params: dict | None = None, cli: list[str] | None = None) -> Result:
    """Run one workload for ``seconds`` of operations and compute its metrics.

    ``params`` replaces the workload's command parameters and ``cli`` the
    command that runs the CLI (default ``python -m coordgame.cli``); the
    smoke test uses both.
    """
    if not (ROOT / "src" / "coordgame" / "cli.py").is_file():
        raise FatalError(f"no coordgame package under {ROOT / 'src'}")
    workload = WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    env = child_env()
    cli = cli or [sys.executable, "-m", "coordgame.cli"]
    result = Result(workload_name, seed, trace, dict(params or workload.params), machine_block())
    op_seeds = random.Random(f"coordgame-bench/{workload_name}/{seed}")

    # Untimed warm-up: compiles bytecode and fills the file cache.  Its
    # output is the reference for the determinism check at the end.
    first_seed = op_seeds.randrange(2**31)
    first = run_op(result, workload, 0, first_seed, False, False, cli, env)

    def timed_probe(probes: list, code: str) -> float:
        position = next_position(result)
        probes.append((position, probe(code, env)))
        return probes[-1][1]

    # ``seconds`` counts operations and their checks, not probes.
    deadline = time.perf_counter() + seconds
    index = 1
    while index == 1 or time.perf_counter() < deadline:
        traced = trace and index % 2 == 0
        run_op(result, workload, index, op_seeds.randrange(2**31), traced, True, cli, env)
        if not trace and index % REFERENCE_EVERY == 1:
            deadline += timed_probe(result.reference_s, REFERENCE)
        if not trace and index % SETUP_EVERY == 1:
            deadline += timed_probe(result.setup_s, SETUP)
        index += 1
    repeat = run_op(result, workload, index, first_seed, trace, True, cli, env)
    if repeat.digest != first.digest:
        repeat.problems.append("output differs from the first run of the same command")
        repeat.work = 0
    if not trace:
        timed_probe(result.reference_s, REFERENCE)

    result.machine["loadavg_end"] = list(os.getloadavg())
    if trace:
        per_layer_metrics(result)
    else:
        end_to_end_metrics(result, workload)
    return result


def end_to_end_metrics(result: Result, workload: Workload) -> None:
    timed = [op for op in result.ops if op.timed]
    walls = [op.wall_s * speed_scale(result, op.position) for op in timed]
    setups = [wall * speed_scale(result, p) for p, wall in result.setup_s]
    tail_value, percentile = tail(walls)
    m = result.metrics
    m["op_s_p50"] = statistics.median(walls)
    m["op_s_tail"] = tail_value
    m["work_per_s"] = sum(op.work for op in timed) / sum(walls)
    m["peak_rss_mib"] = statistics.median(op.maxrss_kib for op in timed) / 1024
    m["setup_s"] = statistics.median(setups)
    result.notes["op_s_tail"] = f"p{percentile:.1f} of {len(walls)} timed ops"
    result.notes["work_per_s"] = (
        f"an item is one {workload.item[:-1]}; "
        f"{workload.work(result.params)} {workload.item}/op (computed)"
    )
    result.notes["setup_s"] = f"median of {len(setups)} fresh interpreters"
    raw = [op.wall_s for op in timed]
    result.raw = {
        "op_s_p50": statistics.median(raw),
        "op_s_tail": tail(raw)[0],
        "setup_s": statistics.median(wall for _, wall in result.setup_s),
        "reference_s": statistics.median(wall for _, wall in result.reference_s),
    }


def per_layer_metrics(result: Result) -> None:
    traced = [op for op in result.ops if op.timed and op.traced and op.layers]
    untraced = [op for op in result.ops if op.timed and not op.traced]
    per_op = [layer_values(op.layers) for op in traced]
    m = result.metrics
    for name in [*PER_LAYER, "setup.numpy_import_s", "setup.coordgame_import_s", "trace.spans"]:
        m[name] = statistics.median(v[name] for v in per_op) if per_op else 0
    m["cli.output_bytes"] = statistics.median(op.output_bytes for op in traced) if traced else 0
    m["trace.op_s_p50"] = statistics.median(op.wall_s for op in traced) if traced else 0.0
    m["trace.untraced_op_s_p50"] = statistics.median(op.wall_s for op in untraced)
    m["trace.overhead_pct"] = 100.0 * (m["trace.op_s_p50"] / m["trace.untraced_op_s_p50"] - 1.0)
    result.notes["trace.overhead_pct"] = (
        f"{len(traced)} traced vs {len(untraced)} untraced ops, interleaved"
    )


def units(trace: bool) -> dict:
    if not trace:
        return END_TO_END_UNITS
    return {**{k: v[0] for k, v in PER_LAYER.items()}, **PER_LAYER_EXTRA_UNITS}


def summary(result: Result) -> dict:
    """The result line: correct, attempted, failed and every metric with its unit."""
    failed = sum(1 for op in result.ops if op.problems)
    return {
        "correct": failed == 0,
        "attempted": len(result.ops),
        "failed": failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units(result.trace).items()
        },
    }


def report_lines(result: Result) -> list[str]:
    line = summary(result)
    workload = WORKLOADS[result.workload]
    lines = [
        f"# coordgame benchmark: workload={result.workload} seed={result.seed} "
        f"trace={int(result.trace)}",
        f"# command: coordgame {' '.join(workload.argv(result.params, 0)[:-1])} <op seed>",
        f"# why: {workload.why}",
        "# machine: " + json.dumps(result.machine),
    ]
    if result.raw:
        lines.append(
            f"# times below are scaled to a {NOMINAL_REFERENCE_S} s reference probe; unscaled: "
            + ", ".join(f"{k} {v:.4f} s" for k, v in result.raw.items())
        )
    for name, metric in line["metrics"].items():
        unit = metric["unit"]
        note = result.notes.get(name, "")
        if name in COMPUTED:
            note = (note + "; " if note else "") + "computed"
        lines.append(f"{name:40s} {metric['value']:<22.10g} {unit:8s} {note}".rstrip())
    error_rate = line["failed"] / line["attempted"]
    lines.append(
        f"{'error_rate':40s} {error_rate:<22.10g} {'share':8s} "
        f"{line['failed']} failed of {line['attempted']} attempted"
    )
    for op in result.ops:
        for problem in op.problems:
            lines.append(f"# op {op.index} (seed {op.seed}) failed: {problem}")
    return lines


def write_out(result: Result) -> None:
    path = OUT / f"{result.workload}-seed{result.seed}-trace{int(result.trace)}.json"
    doc = {
        "summary": summary(result),
        "workload": result.workload,
        "seed": result.seed,
        "params": result.params,
        "machine": result.machine,
        "setup_s": result.setup_s,
        "reference_s": result.reference_s,
        "raw": result.raw,
        "notes": result.notes,
        "ops": [op.__dict__ for op in result.ops],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except FatalError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    write_out(result)
    print("\n".join(report_lines(result)))
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
