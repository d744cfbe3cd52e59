"""Run one coordgame CLI command with a timing span around each layer call.

Usage: python trace_child.py SPANS_PATH OP_ID CLI_ARGS...

The program under test is not edited.  Before ``coordgame.cli.main``
runs, the names that ``coordgame.cli`` and ``coordgame.bounds`` look up
at call time are replaced by wrappers that record a span (name, start,
end, parent, operation id).  The strategies that ``classical_strategy``
and ``quantum_player_strategy`` return are wrapped in proxies with the
same ``moves`` method, which splits ``run_match``'s own time from the
strategies' time.  Spans stay in memory; when the command ends, this
process writes their per-name totals and the first spans themselves to
SPANS_PATH as JSON.  Stdout is the CLI's own, byte for byte.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

# Sweeps make tens of thousands of scalar calls; keeping every span in
# the file would make it tens of megabytes per operation.  Aggregates
# cover every span, the file lists the first ones.
MAX_SPANS_WRITTEN = 500


class Tracer:
    """In-memory span recorder with self time and tracemalloc peaks."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.next_id = 0
        self.spans = []  # (id, parent id, name, start, end)
        self.stack = []  # open frames: [id, name, start, child time, memory state]
        self.totals = {}  # name -> [calls, total s, self s, peak bytes]
        self.counts = {}  # name -> computed work count

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def _enter(self, name: str, memory: bool) -> None:
        mem = None
        if memory:
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            # [bytes at entry, peak of the enclosing span so far, peak of children, owns tracing]
            mem = [current, peak, 0, started]
        self.stack.append([self.next_id, name, time.perf_counter(), 0.0, mem])
        self.next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_time, mem = self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        duration = end - start
        peak_bytes = 0
        if mem is not None:
            base, outer_peak, child_peak, owns = mem
            peak = max(tracemalloc.get_traced_memory()[1], child_peak)
            peak_bytes = peak - base
            if owns:
                tracemalloc.stop()
            else:
                holder = next(f[4] for f in reversed(self.stack) if f[4] is not None)
                holder[2] = max(holder[2], outer_peak, peak)
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, name, start, end))
        entry = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time
        entry[3] = max(entry[3], peak_bytes)

    def wrap(self, name: str, fn, memory: bool = False, on_result=None):
        def traced(*args, **kwargs):
            self._enter(name, memory)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def dump(self, path: str, imports: dict) -> None:
        spans = sorted(self.spans)
        doc = {
            "op": self.op_id,
            "imports_s": imports,
            "totals": {
                name: {"calls": c, "total_s": t, "self_s": s, "peak_bytes": p}
                for name, (c, t, s, p) in self.totals.items()
            },
            "counts": self.counts,
            "spans_recorded": len(spans),
            "spans": [
                {"id": i, "parent": parent, "name": name, "start": start, "end": end}
                for i, parent, name, start, end in spans[:MAX_SPANS_WRITTEN]
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _MovesProxy:
    """A PlayerStrategy whose ``moves`` calls are recorded as spans."""

    def __init__(self, traced_moves):
        self.moves = traced_moves


def install(tracer: Tracer, cli, bounds) -> None:
    """Replace the layer entry points that ``cli`` and ``bounds`` call."""

    def proxy(name, strategy, on_result=None):
        return _MovesProxy(tracer.wrap(name, strategy.moves, True, on_result))

    def on_match(args, records):
        n = len(records)
        tracer.count("game.rounds", n)
        tracer.count("game.shared_random_bytes", 8 * n)
        # state, move, shared-stream and round-index arrays of the match
        tracer.count(
            "game.record_bytes",
            records.states.nbytes + records.move_one.nbytes + records.move_two.nbytes + 16 * n,
        )

    def on_sequences(args, sequences):
        tracer.count("classical.bits_generated", 4 * sequences.length)

    def on_singlets(args, moves):
        # SingletSampler.draw: two float64 uniforms per round
        tracer.count("quantum.random_bytes", 16 * len(moves))

    def on_handler(args, result):
        _, results, table_key = result
        tracer.count("cli.rows", len(results[table_key]) if table_key else 1)

    classical_strategy = cli.classical_strategy
    quantum_player_strategy = cli.quantum_player_strategy

    def traced_classical_strategy(player, sequences):
        return proxy("classical.moves", classical_strategy(player, sequences))

    def traced_quantum_player_strategy(plan, sampler):
        one, two = quantum_player_strategy(plan, sampler)
        return proxy("quantum.moves_one", one, on_singlets), proxy("quantum.moves_two", two)

    wrap = tracer.wrap
    replacements = {
        cli: {
            "generate_sequences": wrap("classical.generate_sequences", cli.generate_sequences, True, on_sequences),
            "run_match": wrap("game.run_match", cli.run_match, True, on_match),
            "empirical_profile": wrap("game.empirical_profile", cli.empirical_profile, True),
            "payoff": wrap("game.payoff", cli.payoff),
            "analytic_report": wrap("game.payoff", cli.analytic_report),
            "empirical_report": wrap("game.payoff", cli.empirical_report),
            "classical_bound": wrap("bounds.classical_bound", cli.classical_bound),
            "quantum_bound": wrap("bounds.quantum_bound", cli.quantum_bound),
            "sweep_quantum_payoff": wrap("bounds.sweep", cli.sweep_quantum_payoff),
            "lhv_supremum_payoff": wrap("bounds.lhv_supremum", cli.lhv_supremum_payoff),
            "quantum_profile": wrap("quantum.profile", cli.quantum_profile),
            "classical_strategy": traced_classical_strategy,
            "quantum_player_strategy": traced_quantum_player_strategy,
            "render_json": wrap("cli.render", cli.render_json),
            "render_csv": wrap("cli.render", cli.render_csv),
            "build_parser": wrap("cli.build_parser", cli.build_parser),
        },
        bounds: {
            "quantum_profile": wrap("quantum.profile", bounds.quantum_profile),
            "general_quantum_profile": wrap("quantum.profile", bounds.general_quantum_profile),
            "_payoff": wrap("game.payoff", bounds._payoff),
        },
    }
    for module, names in replacements.items():
        for name, replacement in names.items():
            setattr(module, name, replacement)
    for command, handler in cli._HANDLERS.items():
        cli._HANDLERS[command] = wrap("cli.handler", handler, on_result=on_handler)


def main(argv: list[str]) -> int:
    spans_path, op_id, cli_args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed apart from the package's own modules)

    t1 = time.perf_counter()
    from coordgame import bounds, cli

    t2 = time.perf_counter()
    tracer = Tracer(op_id)
    install(tracer, cli, bounds)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path, {"numpy": t1 - t0, "coordgame": t2 - t1})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
