"""CLI harness: schemas, formats, reproducibility, and exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from coordgame import __version__, bounds, cli, game
from coordgame.classical import MODES, ClassicalConfig, classical_strategy, generate_sequences
from coordgame.cli import Table, _cell, build_parser, main, render_csv, render_json
from coordgame.game import STATE_PAIRS, MismatchProfile, match_profile
from coordgame.quantum import GeneralAnglePlan, quantum_player_strategy

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
        q = vertices.as_array()
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
        # 7-round chunks, so that every block is copied into the columns in pieces
        monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", 7)
        r = 40
        doc = run_json(
            capsys, "match", "--strategy", strategy, "--N", "50", "--rounds-per-pair", str(r), "--seed", "3"
        )
        if strategy == "classical":
            sequences = generate_sequences(ClassicalConfig(n=50, q=0.1, seed=3))
            players = classical_strategy(1, sequences), classical_strategy(2, sequences)
        else:
            players = quantum_player_strategy(GeneralAnglePlan.equally_spaced(0.1), 3)
        profile = match_profile(*players, r)

        differ = [0, 0, 0, 0]
        for row in doc["results"]["rounds"]:
            differ[row["round_index"] // r] += row["move_one"] != row["move_two"]
        assert [d / r for d in differ] == profile.as_array().tolist()
        assert doc["results"]["empirical"]["profile"] == {
            f"q{i}{j}": float("%.9g" % profile.entry(i, j)) for i, j in STATE_PAIRS
        }


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
        # recorded from version 0.1.0 before the counts-only match path;
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
        # recorded from version 0.1.0 while tables were rendered row by row
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
        # recorded with 65 536-round chunks: every block crosses a chunk
        # boundary then and now, so the bytes pin determinism across chunking
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == (DATA / expected).read_text(encoding="utf-8")

    def test_match_dump_digest_pinned_across_versions(self, capsys):
        # 10k rounds, too large to store; recorded with the files above
        argv = ["match", "--N", "2500", "--rounds-per-pair", "2500", "--format", "csv", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(out) == 1_109_194
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "7e73f6d830bd3c3b5d88f373b4fd52bcb6e07acd86295f1f5e67830310ba48fc"
        )

    def test_match_dump_json_digest_pinned_across_versions(self, capsys):
        # the same 10k rounds as JSON; recorded while table rows went
        # through json.dumps as row dicts
        argv = ["match", "--N", "2500", "--rounds-per-pair", "2500", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(out) == 1_429_412
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "67dd6402f31005e6e7d2d1b9e16b09687e4147677377c970a72440f7f5226009"
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
            ["lhv"],
        ],
        ids=["match-quantum", "match-classical", "sweep", "lhv"],
    )
    def test_slice_size_never_changes_a_byte(self, capsys, monkeypatch, fmt, argv):
        code, expected, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0, err
        for size in (1, 3):
            monkeypatch.setattr(cli, "MATCH_CHUNK_ROUNDS", size)
            assert run_cli(capsys, *argv, "--format", fmt) == (0, expected, "")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pieces_are_the_header_then_one_per_slice(self, monkeypatch, fmt):
        monkeypatch.setattr(cli, "MATCH_CHUNK_ROUNDS", 3)
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

    @staticmethod
    def _run_capped(*argv, limit=2**30, env=None):
        resource = pytest.importorskip("resource")

        def cap_address_space():
            # 1 GiB of address space by default: enough to import numpy and
            # play a counts-only match, too little for a huge match record
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
        # match records every round, so its move columns fail to allocate
        proc = self._run_capped("match", "--rounds-per-pair", str(10**12))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("coordgame match: out of memory:")
        assert len(proc.stderr.splitlines()) == 1

    def test_counts_only_match_runs_in_bounded_memory(self):
        # 4e7 rounds, counts only: it runs inside the cap that stops the match above
        proc = self._run_capped("quantum", "--rounds-per-pair", str(10**7))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["results"]["empirical"]["samples_per_state_pair"] == 10**7

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("csv", "44171bf585ca6aff98733d99a3532c95c98cf6919374c187be5f26903e2964fe"),
            ("json", "344d2e0f17d029cd7fd1091871fa728761e0b36336e503c6d13247c26cc0db08"),
        ],
    )
    def test_large_match_dump_streams_in_bounded_memory(self, tmp_path, fmt, digest):
        # 1e6 rounds, about 120 MB of CSV and 700 MB of JSON, inside a 256 MiB
        # cap; the digests were recorded while the whole record was built in memory
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
