"""CLI harness: schemas, formats, reproducibility, and exit codes."""

import contextlib
import csv
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from coordgame import __version__, bounds, cli, game, quantum
from coordgame.classical import MODES, ClassicalConfig, classical_strategy, flip_count, generate_sequences
from coordgame.cli import Table, _cell, build_parser, main, render_csv, render_json
from coordgame.game import MismatchProfile, match_profile
from coordgame.quantum import GeneralAnglePlan, quantum_player_strategy
from helpers import block_schedule, played

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# every option of the two commands, in declaration order, at values that
# keep a run small
PERMUTABLE_OPTIONS = {
    "classical": [
        ("--seed", "5"), ("--format", "json"), ("--N", "64"), ("--q", "0.1"), ("--mode", "bsc-chain"),
        ("--rounds-per-pair", "8"),
    ],
    "match": [
        ("--seed", "5"), ("--format", "csv"), ("--strategy", "quantum"), ("--N", "16"), ("--q", "0.2"),
        ("--mode", "bsc-chain"), ("--delta", "0.3"), ("--rounds-per-pair", "3"),
    ],
}


class TestRecordEnvelope:
    def test_top_level_schema(self, capsys):
        doc = run_json(capsys, "bounds", "0.3", "0.1", "0.1", "0.1")
        assert list(doc) == ["subcommand", "version", "seed", "parameters", "results"]
        assert doc["subcommand"] == "bounds"
        assert doc["version"] == __version__
        assert doc["seed"] == 0

    def test_seed_flag_echoed(self, capsys):
        doc = run_json(capsys, "lhv", "--seed", "17")
        assert doc["seed"] == 17

    def test_csv_has_header_and_envelope_columns(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "0.3", "0.1", "0.1", "0.1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[:3] == ["subcommand", "version", "seed"]
        row = lines[1].split(",")
        assert row[0] == "bounds" and row[1] == __version__

    @pytest.mark.parametrize(
        "argv",
        [
            ["classical", "--N", "64", "--rounds-per-pair", "4"],
            ["quantum", "--rounds-per-pair", "4"],
            ["sweep", "--steps", "3"],
            ["lhv"],
            ["bounds", "0.3", "0.1", "0.1", "0.1"],
            ["match"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_parameters_are_the_subcommands_own_arguments_in_help_order(self, capsys, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args([argv[0], "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        options = re.findall(r"\[--([\w-]+)", usage)
        positionals = re.sub(r"\[[^\]]*\]", "", usage).split()[3:]  # after "usage: coordgame <subcommand>"
        own = [name.replace("-", "_") for name in [*options, *positionals]]
        own = [name for name in own if name not in ("seed", "format", "out")]
        assert list(run_json(capsys, *argv)["parameters"]) == own

    @pytest.mark.parametrize("subcommand", ["classical", "match"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_option_order_never_changes_a_byte(self, subcommand, data):
        declared = PERMUTABLE_OPTIONS[subcommand]
        permuted = data.draw(st.permutations(declared))
        outputs = []
        for options in (declared, permuted):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([subcommand, *(part for option in options for part in option)]) == 0
            outputs.append(out.getvalue().encode())
        assert outputs[0] == outputs[1]


class TestBoundsCommand:
    def test_construction_profile(self, capsys):
        r = run_json(capsys, "bounds", "0.3", "0.1", "0.1", "0.1")["results"]
        assert r["payoff"] == pytest.approx(3.0, abs=1e-8)
        assert r["degenerate"] is False
        assert r["classical_bound"]["holds"] is True
        assert abs(r["classical_bound"]["slack"]) < 1e-12
        assert r["quantum_bound"]["holds"] is True
        assert r["quantum_bound"]["slack"] == pytest.approx(0.6, abs=1e-8)

    def test_degenerate_profile(self, capsys):
        r = run_json(capsys, "bounds", "1", "0", "0", "0")["results"]
        assert r["degenerate"] is True
        assert r["payoff"] is None
        assert r["classical_bound"]["holds"] is False
        assert r["quantum_bound"]["holds"] is False
        assert r["quantum_bound"]["slack"] == pytest.approx(-1.0, abs=1e-12)

    def test_quantum_like_profile(self, capsys):
        r = run_json(
            capsys, "bounds", "0.0223318", "0.0024979", "0.0024979", "0.0024979"
        )["results"]
        assert r["classical_bound"]["holds"] is False
        assert r["quantum_bound"]["holds"] is True
        assert r["payoff"] == pytest.approx(8.9402, abs=1e-3)

    def test_out_of_range_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "1.5", "0", "0", "0")
        assert code == 2
        assert "outside [0, 1]" in err

    @pytest.mark.parametrize("entries", [["-0", "0.1", "0.1", "0.1"], ["0", "-0", "-0", "-0"]])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_negative_zero_entry_prints_no_negative_zero_result(self, capsys, entries, fmt):
        # the echoed parameters keep the user's text; every result reads +0
        code, out, err = run_cli(capsys, "bounds", *entries, "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            doc = json.loads(out)
            assert doc["parameters"] == dict(zip(["q00", "q01", "q10", "q11"], map(float, entries)))
            cells = re.findall(r"-?[0-9][0-9.e+-]*", json.dumps(doc["results"]))
        else:
            header, row = csv.reader(io.StringIO(out))
            assert header[3:8] == ["q00", "q01", "q10", "q11", "profile_q00"]
            assert row[3:7] == entries
            cells = row[7:]  # the results, after the envelope and the parameters
        assert "0" in cells or "0.0" in cells
        assert not [cell for cell in cells if cell in ("-0", "-0.0")]

    # Known misleading outputs, each marked with the ROADMAP item that fixes
    # it; that fix turns the test into a plain pass and drops the marker.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: both bounds are necessary conditions only")
    def test_a_profile_no_strategy_reaches_fails_both_bounds(self, capsys):
        r = run_json(capsys, "bounds", "0", "0", "0", "1")["results"]
        assert r["classical_bound"]["holds"] is False
        assert r["quantum_bound"]["holds"] is False

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the quantum bound is a necessary condition only")
    def test_payoff_9_at_q_01_fails_the_quantum_bound(self, capsys):
        # the exact quantum maximum at q = 0.1 is sin²(3·arcsin √0.1) = 0.676, payoff 6.76
        r = run_json(capsys, "bounds", "0.9", "0.1", "0.1", "0.1")["results"]
        assert r["quantum_bound"]["holds"] is False


class TestClassicalCommand:
    def test_small_exact_run(self, capsys):
        doc = run_json(capsys, "classical", "--N", "1000", "--rounds-per-pair", "1000")
        assert doc["parameters"] == {
            "N": 1000,
            "q": 0.1,
            "mode": "disjoint-flips",
            "rounds_per_pair": 1000,
        }
        r = doc["results"]
        assert r["analytic"]["payoff"] == pytest.approx(3.0, abs=1e-8)
        assert r["analytic"]["profile"]["q00"] == pytest.approx(0.3, abs=1e-8)
        # full-cycle block schedule makes the empirical frequencies exact
        assert r["empirical"]["profile"] == r["analytic"]["profile"]
        assert r["empirical"]["payoff"] == pytest.approx(3.0, abs=1e-8)
        assert r["empirical"]["samples_per_state_pair"] == 1000
        assert r["empirical"]["confidence_halfwidth"] > 0
        assert r["bounds"]["classical"]["holds"] is True

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9: a full cycle's payoff is exact, yet has a half-width")
    def test_full_cycle_reports_no_sampling_error(self, capsys):
        r = run_json(capsys, "classical", "--N", "1000", "--rounds-per-pair", "1000")["results"]
        assert r["empirical"]["payoff"] == 3.0
        assert r["empirical"]["confidence_halfwidth"] == 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the analytic profile uses q, not the drawn round(q*N)/N")
    def test_full_cycle_analytic_profile_is_the_drawn_one(self, capsys):
        r = run_json(capsys, "classical", "--N", "777", "--rounds-per-pair", "777")["results"]
        f = flip_count(0.1, 777) / 777  # 78 flips per step, not 77.7
        assert r["analytic"]["profile"]["q00"] == pytest.approx(3 * f, rel=1e-8)
        # a full cycle makes the empirical profile exact
        assert r["analytic"]["profile"] == r["empirical"]["profile"]

    def test_infeasible_flip_fraction_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "classical", "--q", "0.4")
        assert code == 2
        assert "flip" in err.lower()

    def test_bsc_mode_runs(self, capsys):
        doc = run_json(
            capsys, "classical", "--mode", "bsc-chain", "--q", "0.05",
            "--N", "20000", "--rounds-per-pair", "20000",
        )
        r = doc["results"]
        assert r["analytic"]["payoff"] == pytest.approx(2.71, abs=1e-8)
        assert abs(r["empirical"]["payoff"] - 2.71) < r["empirical"]["confidence_halfwidth"] * 3


class TestQuantumCommand:
    def test_analytic_block(self, capsys):
        doc = run_json(capsys, "quantum", "--rounds-per-pair", "2000")
        assert doc["parameters"]["delta"] == 0.1
        r = doc["results"]
        assert r["analytic"]["payoff"] == pytest.approx(8.94014982, abs=1e-6)
        assert r["bounds"]["classical"]["holds"] is False
        assert r["bounds"]["quantum"]["holds"] is True

    def test_empirical_within_reported_interval(self, capsys):
        doc = run_json(capsys, "quantum", "--delta", "0.5", "--rounds-per-pair", "20000")
        r = doc["results"]
        half = r["empirical"]["confidence_halfwidth"]
        assert abs(r["empirical"]["payoff"] - r["analytic"]["payoff"]) < 2.5 * half

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: player two's angles are rounded near π")
    def test_spacing_below_the_float_range_never_prints_payoff_1(self, capsys):
        # the sweep's xfail, on one spacing: the profile underflows, so exit 2 or a
        # degenerate flag is honest, and (1 + 2 cos δ)² is about 9, never 1
        code, out, _ = run_cli(capsys, "quantum", "--delta", "1e-300", "--rounds-per-pair", "5")
        analytic = json.loads(out)["results"]["analytic"] if code == 0 else {}
        assert code == 2 or analytic["degenerate"] or analytic["payoff"] == pytest.approx(9.0)

    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_empirical_profile_equals_the_mismatches_of_the_match_rows(self, capsys, seed):
        # quantum counts from player two's coins alone; match replays both coin streams
        r = 20_000
        doc = run_json(capsys, "quantum", "--rounds-per-pair", str(r), "--seed", seed)
        code, out, err = run_cli(
            capsys, "match", "--strategy", "quantum", "--rounds-per-pair", str(r), "--seed", seed, "--format", "csv"
        )
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4 * r
        differ = [0, 0, 0, 0]
        for row in rows:
            differ[int(row["round_index"]) // r] += row["move_one"] != row["move_two"]
        profile = dict(zip(("q00", "q01", "q10", "q11"), (float("%.9g" % (d / r)) for d in differ)))
        assert doc["results"]["empirical"]["profile"] == profile
        assert {name: float(rows[0][f"empirical_profile_{name}"]) for name in profile} == profile

    @pytest.mark.parametrize(
        "argv, measured_chunks",
        [
            (["quantum", "--rounds-per-pair", "20000"], 0),
            # the record's replay measures each of its 4 * 2 chunks; the count none
            (["match", "--strategy", "quantum", "--rounds-per-pair", "20000"], 8),
        ],
        ids=["quantum", "match"],
    )
    def test_no_count_draws_player_one_coins(self, capsys, monkeypatch, argv, measured_chunks):
        code, expected, err = run_cli(capsys, *argv)
        assert code == 0, err
        calls, measure_one = [], quantum._SingletSource.measure_one

        def counted(source, *args):
            calls.append(args)
            return measure_one(source, *args)

        monkeypatch.setattr(quantum._SingletSource, "measure_one", counted)
        assert run_cli(capsys, *argv) == (0, expected, "")
        assert len(calls) == measured_chunks

    def test_delta_range_enforced(self, capsys):
        for bad in ("0", "1.1", "-0.2"):
            code, _, err = run_cli(capsys, "quantum", "--delta", bad)
            assert code == 2
            assert "delta" in err


class TestSweepCommand:
    def test_default_grid(self, capsys):
        doc = run_json(capsys, "sweep")
        rows = doc["results"]["rows"]
        assert len(rows) == 100
        assert rows[0]["delta"] == pytest.approx(0.01)
        assert rows[-1]["delta"] == pytest.approx(1.0)
        payoffs = [r["payoff_quantum"] for r in rows]
        assert payoffs[0] >= 8.999
        assert all(a > b for a, b in zip(payoffs, payoffs[1:]))
        assert all(r["classical_bound_slack"] < 0 for r in rows)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: player two's angles are rounded near π")
    def test_spacings_below_the_float_range_never_print_payoff_1(self, capsys):
        # q00 = sin²(3δ/2) and q01 = sin²(δ/2) underflow to 0 here: exit 2 or
        # degenerate rows are honest, the payoff 1 printed from rounded angles is not
        code, out, _ = run_cli(capsys, "sweep", "--delta-min", "1e-300", "--delta-max", "1e-299", "--steps", "3")
        assert code == 2 or all(row["payoff_quantum"] != 1.0 for row in json.loads(out)["results"]["rows"])

    def test_csv_row_count_and_columns(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "10", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 11
        assert lines[0] == (
            "subcommand,version,seed,delta_min,delta_max,steps,"
            "delta,q00,q01,payoff_quantum,classical_bound_slack"
        )

    def test_bad_range_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--delta-min", "0.5", "--delta-max", "0.1")
        assert code == 2

    def test_infinite_bound_exits_two_with_one_line(self):
        cases = [
            (
                ["--delta-max", "inf"],
                "sweep bounds must be finite, got delta_min=0.01, delta_max=inf",
            ),
            (
                # linspace repeats a value on a grid this fine
                ["--delta-min", "1", "--delta-max", "1.000000000000001", "--steps", "100"],
                "sweep rows must be strictly sorted by parameter value",
            ),
            (
                # 3 * delta overflows, so the plan's angles are not finite
                ["--delta-min", "1e307", "--delta-max", "1e308", "--steps", "2"],
                "angle a1 must be finite",
            ),
            (
                # the largest plan is checked before linspace could overflow
                ["--delta-min", "1", "--delta-max", "1.7976931348623157e308", "--steps", "1000"],
                "angle a1 must be finite",
            ),
        ]
        for argv, message in cases:
            # a subprocess, so a numpy warning printed to stderr would show
            proc = subprocess.run(
                [sys.executable, "-m", "coordgame.cli", "sweep", *argv],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2, argv
            assert proc.stdout == "", argv
            assert proc.stderr.splitlines() == [f"coordgame sweep: invalid parameters: {message}"]


class TestLhvCommand:
    def test_summary_fields(self, capsys):
        r = run_json(capsys, "lhv")["results"]
        assert r["supremum_payoff"] == 3.0
        assert r["all_vertices_satisfy_bound"] is True
        assert len(r["vertices"]) == 16
        assert r["witness_profile"] == {"q00": 0.3, "q01": 0.1, "q10": 0.1, "q11": 0.1}
        assert r["witness_payoff"] == pytest.approx(3.0, abs=1e-8)
        assert r["witness_q"] == 0.1

    def test_vertex_rows(self, capsys):
        r = run_json(capsys, "lhv")["results"]
        first = r["vertices"][0]
        assert first == {
            "vertex_index": 0,
            "m1_state0": "A",
            "m1_state1": "A",
            "m2_state0": "A",
            "m2_state1": "A",
            "d00": 0,
            "d01": 0,
            "d10": 0,
            "d11": 0,
            "satisfies_bound": True,
            "witness_weight": 0.7,
        }
        weights = [v["witness_weight"] for v in r["vertices"]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_csv_has_sixteen_rows(self, capsys):
        code, out, _ = run_cli(capsys, "lhv", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 17

    def test_broken_vertex_proof_exits_three(self, capsys, monkeypatch):
        moves, vertices = bounds.enumerate_deterministic_pairs()
        q = vertices.q.copy()
        q[0, 0] = 1.0  # row 0 plays A everywhere, so d00 = 1 breaks the bound
        monkeypatch.setattr(
            bounds, "enumerate_deterministic_pairs", lambda: (moves, MismatchProfile(*q))
        )
        code, out, err = run_cli(capsys, "lhv")
        assert code == 3 and out == ""
        assert err == (
            "coordgame lhv: internal invariant failure: "
            "vertex bound broken: vertex 0, moves [0, 0, 0, 0]\n"
        )


class TestMatchCommand:
    def test_default_classical_dump(self, capsys):
        doc = run_json(capsys, "match")
        rows = doc["results"]["rounds"]
        assert len(rows) == 32
        assert [r["round_index"] for r in rows] == list(range(32))
        assert {r["move_one"] for r in rows} <= {"A", "B"}
        # block schedule: first 8 rounds are state pair (0, 0)
        assert all(r["state_one"] == 0 and r["state_two"] == 0 for r in rows[:8])
        assert doc["results"]["empirical"]["payoff"] == pytest.approx(3.0, abs=1e-8)

    def test_quantum_family(self, capsys):
        doc = run_json(capsys, "match", "--strategy", "quantum", "--rounds-per-pair", "16")
        assert len(doc["results"]["rounds"]) == 64

    def test_csv_one_line_per_round(self, capsys):
        code, out, _ = run_cli(capsys, "match", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 33

    @pytest.mark.parametrize("strategy", ["classical", "quantum"])
    def test_rows_and_summary_equal_the_counts_only_match(self, capsys, monkeypatch, strategy):
        # 7-round chunks, so that every block is counted and replayed in pieces
        monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", 7)
        r = 40
        doc = run_json(
            capsys, "match", "--strategy", strategy, "--N", "50", "--rounds-per-pair", str(r), "--seed", "3"
        )

        def players():
            if strategy == "classical":
                sequences = generate_sequences(ClassicalConfig(n=50, q=0.1, seed=3))
                return classical_strategy(1, sequences), classical_strategy(2, sequences)
            return quantum_player_strategy(GeneralAnglePlan.equally_spaced(0.1), 3)

        profile = match_profile(*players(), r)
        rows = doc["results"]["rounds"]
        move_one, move_two = played(*players(), r)
        assert [row["round_index"] for row in rows] == list(range(4 * r))
        assert [(row["state_one"], row["state_two"]) for row in rows] == list(map(tuple, block_schedule(r).tolist()))
        assert [row["move_one"] for row in rows] == ["AB"[move] for move in move_one.tolist()]
        assert [row["move_two"] for row in rows] == ["AB"[move] for move in move_two.tolist()]

        differ = [0, 0, 0, 0]
        for row in rows:
            differ[row["round_index"] // r] += row["move_one"] != row["move_two"]
        assert [d / r for d in differ] == profile.q.tolist()
        assert doc["results"]["empirical"]["profile"] == {
            name: float("%.9g" % getattr(profile, name)) for name in ("q00", "q01", "q10", "q11")
        }

    # each family and each format once: the replay is the family's and the
    # slices the format's, and a traced million-row render takes seconds
    @pytest.mark.parametrize("strategy, fmt", [("classical", "json"), ("quantum", "csv")])
    def test_handler_memory_is_bounded(self, strategy, fmt):
        # The handler keeps the counts and a table that plays the players
        # again as it is rendered, so handler plus render hold no round-long
        # column: the peak is one chunk and one render slice at any length.
        def dump(r):
            argv = ["match", "--strategy", strategy, "--format", fmt, "--rounds-per-pair", str(r)]
            args = build_parser().parse_args(argv)
            params, results, table_key = cli._HANDLERS["match"](args)
            if fmt == "json":
                pieces = render_json(args.subcommand, args.seed, params, results)
            else:
                pieces = render_csv(args.subcommand, args.seed, params, results, table_key)
            for _ in pieces:
                pass

        dump(8)  # numpy.random loads on first use
        peaks = []
        for r in (65_536, 262_144):
            tracemalloc.start()
            try:
                dump(r)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2 * 2**20, peaks
        assert abs(peaks[1] - peaks[0]) <= 0.1 * 2**20, peaks

    @pytest.mark.parametrize("strategy", ["classical", "quantum"])
    def test_each_render_plays_fresh_players(self, capsys, monkeypatch, strategy):
        # Once the handler returns, every player built so far refuses to
        # move: the table keeps no player of the counting play, and each
        # render builds its own, so rendering it twice gives the bytes of
        # the command twice.
        argv = ["match", "--strategy", strategy, "--rounds-per-pair", "40"]
        code, expected, err = run_cli(capsys, *argv)
        assert code == 0, err

        class Spendable:
            spent = False

            def __init__(self, player):
                self.player = player

            def moves(self, start, n, state):
                assert not self.spent, "a player of an earlier play moved again"
                return self.player.moves(start, n, state)

        built, players = [], cli._players

        def spendable_players(args, family):
            pair = tuple(map(Spendable, players(args, family)))
            built.extend(pair)
            return pair

        monkeypatch.setattr(cli, "_players", spendable_players)
        args = build_parser().parse_args(argv)
        params, results, _ = cli._HANDLERS["match"](args)
        for _ in range(2):
            for player in built:
                player.spent = True
            assert "".join(render_json(args.subcommand, args.seed, params, results)) == expected
        # one pair per render, and one for a classical count; a singlet count builds none
        assert len(built) == {"classical": 6, "quantum": 4}[strategy]


class TestReproducibility:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_identical_commands_identical_bytes(self, capsys, fmt):
        argv = ["quantum", "--rounds-per-pair", "5000", "--seed", "42", "--format", fmt]
        _, out_a, _ = run_cli(capsys, *argv)
        _, out_b, _ = run_cli(capsys, *argv)
        assert out_a == out_b

    def test_seed_changes_empirical_results(self, capsys):
        a = run_json(capsys, "quantum", "--rounds-per-pair", "5000", "--seed", "1")
        b = run_json(capsys, "quantum", "--rounds-per-pair", "5000", "--seed", "2")
        assert a["results"]["empirical"]["profile"] != b["results"]["empirical"]["profile"]
        assert a["results"]["analytic"] == b["results"]["analytic"]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["classical", "--N", "1000", "--q", "0.1", "--rounds-per-pair", "1000", "--seed", "3"],
                "classical_seed3.json",
            ),
            (["match", "--N", "8", "--rounds-per-pair", "8", "--format", "csv"], "match_classical.csv"),
        ],
    )
    def test_classical_output_pinned_across_versions(self, capsys, argv, expected):
        # recorded from version 0.1.0 before the counts-only match path, and
        # match_classical.csv again when the flip sets became a shuffled step
        # column and again when they came to be drawn block by block;
        # shared-sequence output must stay byte-identical under any chunking
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == (DATA / expected).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["quantum", "--delta", "0.1", "--rounds-per-pair", "1000", "--seed", "3"],
                "quantum_seed3.json",
            ),
            (
                ["match", "--strategy", "quantum", "--rounds-per-pair", "8", "--format", "csv"],
                "match_quantum.csv",
            ),
            (["sweep", "--steps", "50"], "sweep_50.json"),
        ],
    )
    def test_quantum_and_sweep_output_pinned_across_versions(self, capsys, argv, expected):
        # recorded from version 0.1.0 before the angle plans, the singlet law
        # and the singlet sampling rule were each merged into one definition
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == (DATA / expected).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["match", "--N", "8", "--rounds-per-pair", "8"], "match_classical.json"),
            (["match", "--strategy", "quantum", "--rounds-per-pair", "8"], "match_quantum.json"),
            (["lhv", "--format", "csv"], "lhv.csv"),
            (["lhv"], "lhv.json"),
            (["sweep", "--steps", "50", "--format", "csv"], "sweep_50.csv"),
        ],
    )
    def test_table_output_pinned_across_versions(self, capsys, argv, expected):
        # recorded from version 0.1.0 while tables were rendered row by row;
        # match_classical.json again when the flip sets became a shuffled step
        # column and again when they came to be drawn block by block
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == (DATA / expected).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["quantum", "--delta", "0.3", "--rounds-per-pair", "65537", "--seed", "4", "--format", "csv"],
                "quantum_chunks_seed4.csv",
            ),
            (
                ["classical", "--N", "777", "--rounds-per-pair", "131089", "--seed", "9"],
                "classical_chunks_seed9.json",
            ),
        ],
    )
    def test_chunk_crossing_output_pinned_across_versions(self, capsys, argv, expected):
        # recorded with 65 536-round chunks, and classical_chunks_seed9.json
        # again with 15 360 when the flip sets became a shuffled step column
        # and again when they came to be drawn block by block:
        # every block crosses a chunk boundary with either, so the bytes pin
        # determinism across chunking
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == (DATA / expected).read_text(encoding="utf-8")

    def test_match_dump_digest_pinned_across_versions(self, capsys):
        # 10k rounds, too large to store; recorded with the shared-sequence files above
        argv = ["match", "--N", "2500", "--rounds-per-pair", "2500", "--format", "csv", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(out) == 1_109_194
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "9ac3efc3994e24a901e30c5f42b04b4a4aa1dc426a9a34b4cb3454c1e1640bce"
        )

    def test_match_dump_json_digest_pinned_across_versions(self, capsys):
        # the same 10k rounds as JSON, recorded with the shared-sequence files above
        argv = ["match", "--N", "2500", "--rounds-per-pair", "2500", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(out) == 1_429_412
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "e5875c8df4c5afe67db99059561922c97fb969289ebe318de462c8b2b88ef388"
        )

    @pytest.mark.parametrize(
        "argv, size, digest",
        [
            (
                ["match", "--strategy", "quantum", "--delta", "0.3", "--rounds-per-pair", "8193",
                 "--seed", "5", "--format", "csv"],
                4_904_994,
                "b774da3464fa3ea8075acff593d23f67224b2dccdf92456c10c6b10037a8877a",
            ),
            (
                ["match", "--mode", "bsc-chain", "--N", "777", "--rounds-per-pair", "9001", "--seed", "9"],
                5_174_024,
                "1856a8d5248f5474200cc9cc36c1b1a8053f00921760192066a5b33fed0d6757",
            ),
        ],
        ids=["quantum-csv", "bsc-chain-json"],
    )
    def test_chunk_crossing_dump_digest_pinned_across_versions(self, capsys, argv, size, digest):
        # recorded while the dump was played as one call for the whole
        # schedule; each block now crosses a chunk boundary
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(out) == size
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["bounds", "0.3", "0.1", "0.1", "0.1"], "bounds_construction.json"),
            (["bounds", "1", "0", "0", "0", "--format", "csv"], "bounds_degenerate.csv"),
        ],
    )
    def test_bounds_output_pinned_across_versions(self, capsys, argv, expected):
        # recorded while a profile held four separate fields
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == (DATA / expected).read_text(encoding="utf-8")

    def test_sweep_digest_pinned_across_versions(self, capsys):
        # 10k rows, too large to store; recorded while the sweep built one
        # profile per row
        code, out, err = run_cli(capsys, "sweep", "--steps", "10000")
        assert code == 0, err
        assert len(out) == 1_880_007
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "ba15c15e8fb738ff1dc26d6435fc8ea737766cea3d235dde11725b4a21696b09"
        )

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "record.csv"
        _, out, _ = run_cli(capsys, "lhv", "--format", "csv")
        code, empty, _ = run_cli(capsys, "lhv", "--format", "csv", "--out", str(path))
        assert code == 0 and empty == ""
        assert path.read_text(encoding="utf-8") == out

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "record.json"
        code, out, err = run_cli(capsys, "lhv", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("coordgame lhv: cannot write output:")
        assert len(err.splitlines()) == 1
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["match", "--rounds-per-pair", "0"], 2),
            (["match", "--delta", "nan", "--format", "csv"], 2),
            (["sweep", "--format", "csv"], 3),  # the handler below returns a NaN cell
            (["sweep"], 3),
        ],
    )
    def test_failed_check_leaves_an_existing_out_file_as_it_was(
        self, capsys, monkeypatch, tmp_path, argv, code
    ):
        results = {"rows": Table({"x": np.array([0.5, math.nan])})}
        monkeypatch.setitem(cli._HANDLERS, "sweep", lambda args: ({}, results, "rows"))
        path = tmp_path / "record.out"
        path.write_bytes(b"earlier record\r\n")
        result, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert (result, out) == (code, "")
        assert len(err.splitlines()) == 1
        assert path.read_bytes() == b"earlier record\r\n"

    def test_nine_significant_digit_floats(self, capsys):
        code, out, _ = run_cli(capsys, "quantum", "--rounds-per-pair", "100", "--format", "csv")
        assert code == 0
        assert "8.94014982" in out  # analytic payoff at delta 0.1, 9 significant digits


class TestColumnTables:
    @pytest.mark.parametrize(
        "argv, table_key",
        [
            (["match", "--N", "16", "--rounds-per-pair", "5"], "rounds"),
            (["match", "--strategy", "quantum", "--rounds-per-pair", "3"], "rounds"),
            (["sweep", "--steps", "7"], "rows"),
            (["lhv"], "vertices"),
        ],
    )
    def test_length_is_the_csv_row_count(self, argv, table_key):
        args = build_parser().parse_args([*argv, "--format", "csv"])
        params, results, key = cli._HANDLERS[args.subcommand](args)
        assert key == table_key
        text = "".join(render_csv(args.subcommand, args.seed, params, results, key))
        header, *rows = csv.reader(io.StringIO(text))
        assert len(results[key]) == len(rows)
        assert all(len(row) == len(header) for row in rows)

    def test_render_equals_csv_writer_row_by_row(self):
        columns = {
            "label": np.array(['plain', 'a,b', 'say "hi"', '"q",x', ""]),
            "flag": np.array([True, False, True, True, False]),
            "weight": np.array([0.1, 1e-12, 2.0 / 3.0, -0.0, 123456789.123]),
            "index": np.arange(5, dtype=np.int64),
            "small": np.array([0, 1, 1, 0, 255], dtype=np.uint8),
            "move": np.array(["A", "B", "A", "B", "B"]),
        }
        params = {"name": "x,y", "nested": {"value": 0.25, "none": None}}
        results = {"table": Table(columns), "summary": {"ok": True, "text": 'a "b"'}}

        lead = ["cmd", __version__, 7, "x,y", 0.25, None]
        summary = [True, 'a "b"']
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(
            ["subcommand", "version", "seed", "name", "nested_value", "nested_none",
             *columns, "summary_ok", "summary_text"]
        )
        for row in zip(*columns.values()):
            writer.writerow([_cell(v) for v in (*lead, *row, *summary)])

        assert "".join(render_csv("cmd", 7, params, results, "table")) == expected.getvalue()

    @pytest.mark.parametrize(
        "params, columns, summary, duplicate",
        [
            ({}, {"seed": np.array([1, 2])}, {}, "seed"),
            ({}, {"payoff": np.array([1, 2])}, {"payoff": 3.0}, "payoff"),
            ({"rounds_per_pair": 8}, {"x": np.array([1, 2])}, {"rounds": {"per_pair": 8}}, "rounds_per_pair"),
        ],
    )
    def test_duplicate_column_names_raise(self, params, columns, summary, duplicate):
        results = {"table": Table(columns), **summary}
        with pytest.raises(RuntimeError, match=f"duplicate CSV column names: {duplicate}"):
            render_csv("cmd", 0, params, results, "table")

    def test_duplicate_column_names_exit_three(self, capsys, monkeypatch):
        def clashing(args):
            return {"delta": 0.5}, {"rows": Table({"delta": np.array([0.1, 0.2])})}, "rows"

        monkeypatch.setitem(cli._HANDLERS, "sweep", clashing)
        code, out, err = run_cli(capsys, "sweep", "--format", "csv")
        assert code == 3 and out == ""
        assert err == "coordgame sweep: internal invariant failure: duplicate CSV column names: delta\n"

    def test_columns_of_unequal_length_raise(self):
        with pytest.raises(RuntimeError, match="one length"):
            Table({"a": np.array([1, 2]), "b": np.arange(3)})
        with pytest.raises(RuntimeError, match="one length"):
            Table({})

    @pytest.mark.parametrize(
        "column",
        [[0.5, 1.5], (1, 2), np.zeros((2, 2)), np.array([None, 1.5]), np.zeros(2, dtype=complex), np.float64(0.5)],
        ids=["list", "tuple", "2-d", "object", "complex", "scalar"],
    )
    def test_a_column_that_is_not_a_1d_array_raises(self, column):
        with pytest.raises(RuntimeError, match="table column 'x' is not a 1-D numpy array"):
            Table({"x": column, "y": np.arange(2)})

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_list_column_exits_three(self, capsys, monkeypatch, fmt):
        def listed(args):
            return {}, {"rows": Table({"delta": [0.1, 0.2]})}, "rows"

        monkeypatch.setitem(cli._HANDLERS, "sweep", listed)
        code, out, err = run_cli(capsys, "sweep", "--format", fmt)
        assert code == 3 and out == ""
        assert err.splitlines() == [
            "coordgame sweep: internal invariant failure: "
            "table column 'delta' is not a 1-D numpy array of bools, numbers or strings"
        ]


def _oracle_round_floats(value):
    """Rounding as the row-dict JSON renderer did it: a table becomes row dicts."""
    if isinstance(value, Table):
        names = list(value.columns)
        columns = [_oracle_round_floats(column) for column in value.columns.values()]
        return [dict(zip(names, row)) for row in zip(*columns)]
    if isinstance(value, dict):
        return {k: _oracle_round_floats(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        values = value.tolist()
        return [float("%.9g" % v) for v in values] if value.dtype.kind == "f" else values
    if isinstance(value, (list, tuple)):
        return [_oracle_round_floats(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float("%.9g" % float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def oracle_render_json(subcommand, seed, params, results):
    """The JSON record as ``json.dumps(indent=2)`` printed it from row dicts."""
    payload = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": seed,
        "parameters": params,
        "results": results,
    }
    return json.dumps(_oracle_round_floats(payload), indent=2) + "\n"


# where %.9g and repr switch notation, where rounding carries into a new
# digit, the extremes of the normal range, and subnormals
EDGE_FLOATS = [
    0.0, -0.0, 1e-4, 9.99999999e-5, 9.999999995e-5, 999999999.5, 1e9, 9999999995.0,
    1e15, 9.9999999995e15, 1e16, 1e17, 123456789.4, 2.2250738585072014e-308,
    5e-324, 1.7976931348623157e308,
]
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e-300),
    st.floats(min_value=1e9, max_value=1e16),
    st.floats(min_value=-1e16, max_value=-1e9),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
    st.sampled_from(EDGE_FLOATS),
)
# strings that csv.writer quotes, or whose quoting changed between Python
# versions ("\r" since 3.13), and "%" for the row template
csv_text = st.text(alphabet=[",", '"', "\r", "\n", " ", "%", "a", "é"], max_size=4)
csv_values = st.one_of(st.none(), st.booleans(), st.integers(), finite_floats, csv_text)
COLUMN_KINDS = {
    "float": lambda n: st.lists(finite_floats, min_size=n, max_size=n).map(np.array),
    "int64": lambda n: st.lists(
        st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n
    ).map(lambda v: np.array(v, dtype=np.int64)),
    "uint8": lambda n: st.lists(st.integers(0, 255), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.uint8)
    ),
    "str": lambda n: st.lists(st.text(max_size=4), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=str)
    ),
    "bool": lambda n: st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=bool)
    ),
    "csv_str": lambda n: st.lists(csv_text, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=str)
    ),
}


@st.composite
def table_columns(draw):
    rows = draw(st.integers(min_value=0, max_value=12))
    names = draw(st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=6, unique=True))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(sorted(COLUMN_KINDS)))
        columns[name] = draw(COLUMN_KINDS[kind](rows))
    return columns


def assert_cleared_float_prints_as_json_dumps(value):
    text = "%.9g" % value
    assert cli._may_print_unlike_repr(np.array([value]))[0] or text == json.dumps(float(text))


class TestJsonFloatRule:
    """A float that ``_may_print_unlike_repr`` clears prints as JSON by ``%.9g`` alone."""

    @settings(max_examples=1000)
    @given(
        value=st.one_of(
            finite_floats,
            st.floats(min_value=1e-307, max_value=1e-5),
            st.floats(min_value=-1e-5, max_value=-1e-307),
        )
    )
    def test_any_float(self, value):
        assert_cleared_float_prints_as_json_dumps(value)

    @pytest.mark.parametrize(
        "value",
        [
            *EDGE_FLOATS,
            *(-v for v in EDGE_FLOATS),
            1e-5, 1.00000001e-5, 2.3e-308, 1e-307, 8.99999999e7, 89999999.95, 9e7, 0.5, 2.5,
        ],
    )
    def test_edge_float(self, value):
        assert_cleared_float_prints_as_json_dumps(value)

    @pytest.mark.parametrize("value", [3.0, -0.0, 2.9999999999, 1e9, 1234567890.5, 5e-324, 3.14159265e-318])
    def test_each_divergent_case_is_caught(self, value):
        text = "%.9g" % value
        assert text != json.dumps(float(text))
        assert cli._may_print_unlike_repr(np.array([0.25, value])).tolist() == [False, True]


class TestJsonRenderer:
    @settings(max_examples=300)
    @given(columns=table_columns(), before=finite_floats, after=finite_floats)
    @example(
        columns={"delta": np.array([0.25]), "index": np.arange(1), "move": np.array(["A"])},
        before=1.0,
        after=-0.0,
    )
    def test_equals_the_row_dict_encoder(self, columns, before, after):
        params = {"x": before, "mode": "m%s"}
        results = {"before": before, "table": Table(columns), "after": {"value": after, "ok": True}}
        expected = oracle_render_json("cmd", 3, params, results)
        assert "".join(render_json("cmd", 3, params, results)) == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["match", "--delta", "nan"], "delta must lie in (0, pi/3)"),
            (["match", "--strategy", "quantum", "--q", "nan"], "flip fraction q=nan outside [0, 1]"),
            (["match", "--delta", "inf", "--format", "csv"], "delta must lie in (0, pi/3)"),
            (["match", "--q=-inf"], "flip fraction q=-inf outside [0, 1]"),
            (["classical", "--q", "nan"], "flip fraction q=nan outside [0, 1]"),
            (["classical", "--q=-inf"], "flip fraction q=-inf outside [0, 1]"),
            (["quantum", "--delta", "nan"], "delta must lie in (0, pi/3)"),
            (["quantum", "--delta", "inf", "--format", "csv"], "delta must lie in (0, pi/3)"),
        ],
        ids=[f"argv{i}" for i in range(8)],
    )
    def test_non_finite_match_parameter_exits_two(self, capsys, argv, message):
        # each command that takes --q or --delta names a bad value the same way
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"coordgame {argv[0]}: invalid parameters: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--strategy", "quantum", "--N", "-5"], "sequence length n must be >= 1"),
            (["--strategy", "quantum", "--q", "5"], "flip fraction q=5.0 outside [0, 1]"),
            (["--strategy", "quantum", "--N", "-5", "--q", "5"], "sequence length n must be >= 1"),
            (["--strategy", "quantum", "--q", "0.34"], "3 * round(q*n) = 9 exceeds n = 8"),
            (["--delta", "5"], "delta must lie in (0, pi/3)"),
            (["--strategy", "classical", "--delta", "-0.1", "--format", "csv"], "delta must lie in (0, pi/3)"),
        ],
        ids=["N", "q", "N-and-q", "infeasible-q", "delta", "negative-delta-csv"],
    )
    def test_parameter_of_the_unplayed_family_exits_two(self, capsys, argv, message):
        # every parameter is echoed, so each is checked whichever family plays
        code, out, err = run_cli(capsys, "match", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"coordgame match: invalid parameters: {message}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "results",
        [
            {"rows": Table({"delta": np.array([0.1, np.nan])})},
            {"rows": Table({"weight": np.array([0.5, float("inf")])})},
            {"rows": Table({"delta": np.array([0.1])}), "payoff": float("nan")},
            {"profile": {"q00": -np.inf}},
        ],
    )
    def test_non_finite_float_exits_three(self, capsys, monkeypatch, results):
        monkeypatch.setitem(cli._HANDLERS, "sweep", lambda args: ({}, results, "rows"))
        code, out, err = run_cli(capsys, "sweep")
        assert code == 3 and out == ""
        assert err.startswith("coordgame sweep: internal invariant failure:")
        assert len(err.splitlines()) == 1


class TestCsvRenderer:
    @settings(max_examples=300)
    @given(
        columns=table_columns(),
        lead=st.lists(csv_values, max_size=4),
        summary=st.lists(csv_values, max_size=4),
        seed=st.integers(),
    )
    @example(
        columns={"move": np.array(["A", "", "a,b", 'say "hi"', "\r", "x\ny", "%s"])},
        lead=["", "100%", None],
        summary=["", "\r\n", "%"],
        seed=0,
    )
    def test_equals_csv_writer_row_by_row(self, columns, lead, summary, seed):
        params = {f"p{i}": value for i, value in enumerate(lead)}
        results = {"table": Table(columns), "s": {str(i): value for i, value in enumerate(summary)}}
        summary_names = [f"s_{i}" for i in range(len(summary))]
        header = ["subcommand", "version", "seed", *params, *columns, *summary_names]
        assume(len(set(header)) == len(header))

        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns.values()):
            writer.writerow([_cell(v) for v in ("cmd", __version__, seed, *lead, *row, *summary)])
        assert "".join(render_csv("cmd", seed, params, results, "table")) == expected.getvalue()

    @given(lead=st.lists(csv_values, max_size=4), summary=st.lists(csv_values, max_size=4))
    @example(lead=[""], summary=[])
    def test_a_record_without_a_table_is_one_csv_writer_row(self, lead, summary):
        params = {f"p{i}": value for i, value in enumerate(lead)}
        results = {f"s{i}": value for i, value in enumerate(summary)}
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["subcommand", "version", "seed", *params, *results])
        writer.writerow([_cell(v) for v in ("cmd", __version__, 1, *lead, *summary)])
        assert "".join(render_csv("cmd", 1, params, results, None)) == expected.getvalue()


class TestRowSlices:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["match", "--strategy", "quantum", "--rounds-per-pair", "5"],
            ["match", "--N", "16", "--rounds-per-pair", "4", "--seed", "2"],
            ["sweep", "--steps", "10"],
            # only the last row, delta 1.0, is a whole number
            ["sweep", "--delta-min", "0.5", "--delta-max", "1.0", "--steps", "11"],
            ["lhv"],
        ],
        ids=["match-quantum", "match-classical", "sweep", "sweep-whole-last", "lhv"],
    )
    def test_slice_size_never_changes_a_byte(self, capsys, monkeypatch, fmt, argv):
        code, expected, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0, err
        # the arbiter's chunk and the render slice apart, also with a chunk
        # that is no multiple of the slice, so slices end at chunk ends
        default = game.MATCH_CHUNK_ROUNDS
        for chunk, size in [(default, 1), (default, 3), (1, 3), (2, 3), (3, 2), (7, 3)]:
            monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", chunk)
            monkeypatch.setattr(cli, "RENDER_SLICE_ROWS", size)
            assert run_cli(capsys, *argv, "--format", fmt) == (0, expected, "")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pieces_are_the_header_then_one_per_slice(self, monkeypatch, fmt):
        monkeypatch.setattr(cli, "RENDER_SLICE_ROWS", 3)
        results = {"rows": Table({"x": np.arange(7)}), "ok": True}
        if fmt == "json":
            pieces = list(render_json("cmd", 0, {}, results))
            # envelope head, three slices, the closing bracket, envelope tail
            assert len(pieces) == 6
        else:
            pieces = list(render_csv("cmd", 0, {}, results, "rows"))
            rows = [f"cmd,{__version__},0,{i},true\n" for i in range(7)]
            expected = ["".join(rows[:3]), "".join(rows[3:6]), rows[6]]
            assert pieces == ["subcommand,version,seed,x,ok\n", *expected]

    def test_a_float_column_leaves_the_fast_path_in_its_second_slice_only(self):
        rng = np.random.default_rng(27)
        n = cli.RENDER_SLICE_ROWS + 1
        weight = rng.uniform(1e-3, 1e3, n)
        weight[-1] = 2.0  # "2" in %.9g, 2.0 in JSON
        assert not cli._may_print_unlike_repr(weight[:-1]).any()
        strings = np.array(["A", "B", "", "a,b", 'say "hi"', "\r", "x\ny", "%s", "é"])
        columns = {
            "weight": weight,
            "index": np.arange(n, dtype=np.int64) - 7,
            "small": rng.integers(0, 256, n, dtype=np.uint8),
            "flag": rng.random(n) < 0.5,
            "move": strings[rng.integers(0, len(strings), n)],
        }
        params = {"p": 0.5}
        results = {"table": Table(columns), "ok": True}

        pieces = list(render_json("cmd", 5, params, results))
        assert len(pieces) == 5  # envelope head, two slices, the closing bracket, envelope tail
        assert '"weight": 2.0,' in pieces[2]
        assert "".join(pieces) == oracle_render_json("cmd", 5, params, results)

        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["subcommand", "version", "seed", "p", *columns, "ok"])
        for row in zip(*columns.values()):
            writer.writerow([_cell(v) for v in ("cmd", __version__, 5, 0.5, *row, True)])
        pieces = list(render_csv("cmd", 5, params, results, "table"))
        assert len(pieces) == 3
        assert "".join(pieces) == expected.getvalue()

    @pytest.mark.parametrize("rows", [0, 2])
    def test_cells_and_names_that_hold_conversions(self, rows):
        # the CSV row template holds one %s per column, its other text escaped twice
        columns = {
            "x%s": np.arange(rows) * 0.5,
            "n%d": np.arange(rows),
            "s": np.array(["%s", "%%"][:rows], dtype=str),
        }
        params = {"p": "%s", "q": "100%"}
        results = {"t": Table(columns), "s": {"a": "%%s", "b": "%.9g %d"}}
        assert "".join(render_json("cmd", 0, params, results)) == oracle_render_json("cmd", 0, params, results)

        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["subcommand", "version", "seed", "p", "q", *columns, "s_a", "s_b"])
        for row in zip(*columns.values()):
            writer.writerow([_cell(v) for v in ("cmd", __version__, 0, "%s", "100%", *row, "%%s", "%.9g %d")])
        assert "".join(render_csv("cmd", 0, params, results, "t")) == expected.getvalue()


class TestNonFiniteFloats:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "results, where",
        [
            ({"rows": Table({"delta": np.array([0.1, 0.2])}), "payoff": float("nan")}, "results_payoff"),
            ({"rows": Table({"delta": np.array([0.1, -np.inf])})}, "results_rows"),
        ],
        ids=["summary-cell", "array-column"],
    )
    def test_exits_three_in_either_format(self, capsys, monkeypatch, fmt, results, where):
        monkeypatch.setitem(cli._HANDLERS, "sweep", lambda args: ({}, results, "rows"))
        code, out, err = run_cli(capsys, "sweep", "--format", fmt)
        assert code == 3 and out == ""
        assert err.splitlines() == [
            f"coordgame sweep: internal invariant failure: {where} holds a non-finite float"
        ]

    @pytest.mark.parametrize("value", [float("nan"), np.float64("inf"), -np.inf])
    def test_both_renderers_refuse_a_parameter(self, value):
        for render in (render_json, lambda *a: render_csv(*a, None)):
            with pytest.raises(RuntimeError, match="parameters_q holds a non-finite float"):
                render("cmd", 0, {"q": value}, {"ok": True})


class TestRoundCountOverflow:
    @pytest.mark.parametrize("command", ["classical", "quantum", "match"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_round_indices_beyond_int64_exit_two(self, capsys, command, fmt):
        code, out, err = run_cli(capsys, command, "--rounds-per-pair", str(10**20), "--format", fmt)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"coordgame {command}: invalid parameters: rounds_per_state_pair={10**20} "
            "exceeds 2**61: round indices overflow int64"
        ]


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coordgame.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for name in ("classical", "quantum", "sweep", "lhv", "bounds", "match"):
            assert name in proc.stdout

    def test_script_entry_freezes_the_import_time_heap(self):
        # run as ``python -m coordgame.cli`` runs it: the module as __main__
        code = (
            "import gc, os, runpy, sys\n"
            "sys.argv = ['coordgame', 'lhv', '--out', os.devnull]\n"
            "try:\n"
            "    runpy.run_module('coordgame.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print(gc.get_freeze_count())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0

    # a child that runs the process entry, then prints whether _hashlib is kept out
    ENTRY_CHILD = (
        "import sys\n"
        "{prelude}"
        "from coordgame import cli\n"
        "sys.argv = ['coordgame', *{argv!r}]\n"
        "code = cli.entry()\n"
        "print(sys.modules.get('_hashlib') is None)\n"
        "sys.exit(code)\n"
    )
    SEEDED_RUNS = [
        ("classical", "--N", "1000", "--rounds-per-pair", "1000"),
        ("quantum", "--rounds-per-pair", "1000"),
    ]

    def _entry_child(self, capsys, prelude, argv):
        proc = subprocess.run(
            [sys.executable, "-c", self.ENTRY_CHILD.format(prelude=prelude, argv=argv)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        *record, kept_out = proc.stdout.splitlines(keepends=True)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert "".join(record) == out
        return kept_out

    @pytest.mark.parametrize("argv", SEEDED_RUNS, ids=lambda argv: argv[0])
    def test_script_entry_keeps_openssl_out(self, capsys, argv):
        if not all(importlib.util.find_spec(name) for name in cli._BUILTIN_HASHES):
            pytest.skip("this Python lacks a built-in hash module")
        assert self._entry_child(capsys, "", argv) == "True\n"

    @pytest.mark.parametrize("argv", SEEDED_RUNS, ids=lambda argv: argv[0])
    @pytest.mark.parametrize(
        "prelude",
        [
            pytest.param("sys.modules['_md5'] = None\n", id="builtin-md5-missing"),
            pytest.param("import _hashlib\n", id="openssl-already-loaded"),
        ],
    )
    def test_script_entry_keeps_openssl_when_it_must(self, capsys, prelude, argv):
        pytest.importorskip("_hashlib")
        assert self._entry_child(capsys, prelude, argv) == "False\n"

    def test_import_and_main_leave_openssl_alone(self):
        pytest.importorskip("_hashlib")
        code = (
            "import os, sys\n"
            "from coordgame import cli\n"
            "imported = '_hashlib' in sys.modules\n"
            "code = cli.main(['classical', '--N', '1000', '--rounds-per-pair', '1000', '--out', os.devnull])\n"
            "print(imported, code, sys.modules.get('_hashlib') is not None)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # numpy.random loads OpenSSL as usual when main runs
        assert proc.stdout == "False 0 True\n"

    def test_main_in_process_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        code, out, err = run_cli(capsys, "lhv")
        assert code == 0, err
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_script_entry(self):
        scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]\n")[1]
        assert scripts.splitlines()[0] == 'coordgame = "coordgame.cli:entry"'

    @staticmethod
    def _run_capped(*argv, limit=2**30, env=None):
        resource = pytest.importorskip("resource")

        def cap_address_space():
            # 1 GiB of address space by default: enough to import numpy and
            # play a counts-only match, too little for a huge sequence draw
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        return subprocess.run(
            [sys.executable, "-m", "coordgame.cli", *argv],
            capture_output=True,
            text=True,
            preexec_fn=cap_address_space,
            timeout=300,
            env=env,
        )

    def test_memory_exhaustion_exits_two(self):
        # a shared sequence of 1e12 positions cannot be drawn under the cap
        proc = self._run_capped("match", "--N", str(10**12))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("coordgame match: out of memory:")
        assert len(proc.stderr.splitlines()) == 1

    def test_counts_only_match_runs_in_bounded_memory(self):
        # 4e7 rounds, counts only: it runs inside the cap that stops the draw above
        proc = self._run_capped("quantum", "--rounds-per-pair", str(10**7))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["results"]["empirical"]["samples_per_state_pair"] == 10**7

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("csv", "401ad79841faba6a1e020e4ee4fcb7c569b49e2634b2bb1d76755f3fce82f646"),
            ("json", "01605ba034d00df436c2ff8bcec373134979141f3c99f6e5301a40ec938b6803"),
        ],
    )
    def test_large_match_dump_streams_in_bounded_memory(self, tmp_path, fmt, digest):
        # 1e6 rounds, about 120 MB of CSV and 700 MB of JSON, inside a 256 MiB
        # cap; the streamed bytes matched digests of the whole record built in
        # memory, and were recorded again when the flip sets became a shuffled step column
        # and again when they came to be drawn block by block
        path = tmp_path / f"match.{fmt}"
        argv = ["match", "--rounds-per-pair", "250000", "--format", fmt, "--out", str(path)]
        # the BLAS pool reserves about 40 MiB of address space per core at
        # import; one thread keeps the cap about the dump on any machine
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        proc = self._run_capped(*argv, limit=2**28, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == proc.stderr == ""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, read",
        [
            (["match", "--rounds-per-pair", "20000"], 10),
            (["match", "--rounds-per-pair", "20000", "--format", "csv"], 10),
            (["sweep", "--steps", "10000"], 10),
            # closed before the first write: a record this small fails only
            # when stdout is flushed, and the interpreter flushes it again at exit
            (["bounds", "0.3", "0.1", "0.1", "0.1"], 0),
        ],
        ids=["match-json", "match-csv", "sweep", "bounds-unread"],
    )
    # block-buffered, as stdout is by default on a pipe, and unbuffered (-u),
    # where the text layer drops the unwritten rest of a short write silently
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_closing_the_pipe_exits_two(self, argv, read, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "coordgame.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2, err
        assert err.startswith(f"coordgame {argv[0]}: cannot write output: ")
        assert len(err.splitlines()) == 1, err

    def test_missing_subcommand_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coordgame.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2


# every float kind: NaN, infinities, subnormals, the largest double, and
# plenty of values inside the commands' valid ranges
ANY_FLOAT = st.one_of(
    st.floats(),
    st.floats(min_value=0.0, max_value=2.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.7976931348623157e308]),
)
# capped, so that no example asks for a large match or grid
CAPPED_COUNT = st.integers(min_value=-3, max_value=2000)
COMMAND_ARGS = st.one_of(
    st.builds(
        lambda lo, hi, steps: ["sweep", f"--delta-min={lo!r}", f"--delta-max={hi!r}", f"--steps={steps}"],
        ANY_FLOAT, ANY_FLOAT, CAPPED_COUNT,
    ),
    st.builds(
        lambda delta, rounds: ["quantum", f"--delta={delta!r}", f"--rounds-per-pair={rounds}"],
        ANY_FLOAT, CAPPED_COUNT,
    ),
    # after "--", so that argparse takes "-inf" as a value rather than a flag
    st.builds(lambda q: ["bounds", "--", *map(repr, q)], st.tuples(*[ANY_FLOAT] * 4)),
    st.builds(
        lambda n, q, mode, rounds: [
            "classical", f"--N={n}", f"--q={q!r}", f"--mode={mode}", f"--rounds-per-pair={rounds}"
        ],
        CAPPED_COUNT, ANY_FLOAT, st.sampled_from(MODES), CAPPED_COUNT,
    ),
    st.builds(
        lambda strategy, n, q, mode, delta, rounds: [
            "match", f"--strategy={strategy}", f"--N={n}", f"--q={q!r}", f"--mode={mode}",
            f"--delta={delta!r}", f"--rounds-per-pair={rounds}",
        ],
        st.sampled_from(["classical", "quantum"]), CAPPED_COUNT, ANY_FLOAT,
        st.sampled_from(MODES), ANY_FLOAT, CAPPED_COUNT,
    ),
    st.just(["lhv"]),
)


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def _assert_one_finite_record(fmt, out):
    if fmt == "json":
        assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)
        return
    header, *rows = csv.reader(io.StringIO(out))
    assert rows and all(len(row) == len(header) for row in rows)
    for cell in (cell for row in rows for cell in row):
        try:
            value = float(cell)
        except ValueError:
            continue
        assert math.isfinite(value), cell


class TestCommandProperty:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(
        args=COMMAND_ARGS,
        fmt=st.sampled_from(["json", "csv"]),
        seed=st.integers(min_value=-2, max_value=2**70),
    )
    def test_every_input_ends_in_a_record_or_exit_two(self, args, fmt, seed):
        subcommand, *rest = args
        argv = [subcommand, f"--format={fmt}", f"--seed={seed}", *rest]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's own usage error
                    assert exc.code == 2, argv
                    assert out.getvalue() == "", argv
                    return
        if code == 0:
            assert err.getvalue() == "", argv
            _assert_one_finite_record(fmt, out.getvalue())
        else:
            assert code == 2, (argv, err.getvalue())
            assert out.getvalue() == "", argv
            assert len(err.getvalue().splitlines()) == 1, argv


class TestBenchmarkTracer:
    """The benchmark's tracer wraps names in ``cli`` and ``bounds``; each must resolve."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classical", "--N", "64", "--rounds-per-pair", "64"],
            ["quantum", "--rounds-per-pair", "100"],
            ["sweep", "--steps", "20"],
            ["lhv", "--format", "csv"],
            ["bounds", "0.3", "0.1", "0.1", "0.1"],
            ["match", "--strategy", "quantum", "--rounds-per-pair", "4", "--format", "csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_traced_output_equals_the_cli(self, tmp_path, argv):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        spans = tmp_path / "spans.json"
        traced = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(spans), "0", *argv],
            capture_output=True, cwd=ROOT, env=env,
        )
        plain = subprocess.run(
            [sys.executable, "-m", "coordgame.cli", *argv], capture_output=True, cwd=ROOT, env=env
        )
        assert traced.returncode == 0, traced.stderr.decode()
        assert traced.stderr == b""
        assert plain.returncode == 0
        assert traced.stdout == plain.stdout
        assert "cli.handler" in json.loads(spans.read_text(encoding="utf-8"))["totals"]
