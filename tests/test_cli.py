"""Command-line interface: schemas, determinism, exit codes, and budgets."""

import csv
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg

from groupwalks import cli, diagnostics, spectral
from groupwalks.algebra import FieldVector
from groupwalks.chains import OneColumnWalk, TransvectionWalk, _WalkBase
from groupwalks.diagnostics import mc_tv_curve_one_column, tv_counting_lower, worst_tv_curve
from groupwalks.errors import InvariantError, ReversibilityError
from groupwalks.groups import HeisenbergElement


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _no_move_table(self, space):
    raise AssertionError("move table built before the budget check")


# ---------------------------------------------------------------------------
# JSON payload schema and determinism


class TestJsonPayload:
    def test_envelope_keys(self, capsys):
        code, out, err = run_cli(
            ["spectrum", "--walk", "transvection", "-n", "3", "-k", "2"], capsys
        )
        assert code == 0, err
        payload = json.loads(out)
        assert set(payload) == {
            "schema_version", "command", "config", "config_hash", "report",
        }
        assert payload["command"] == "spectrum"
        assert payload["config_hash"] == cli.config_hash(payload["config"])

    def test_spectrum_report_shape(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--walk", "transvection", "-n", "4", "-k", "1"], capsys
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["walk"] == "transvection"
        assert report["states"] == 15
        assert report["eigenvalues_top"][0] == pytest.approx(1.0)
        assert 0.0 < report["spectral_gap"] <= 2.0
        scan = report["fibre_scan"]
        assert set(scan) == {
            "fibre_count", "good_fibre_count", "min_good_gap", "min_bad_gap",
            "good_gap_hist_counts", "good_gap_hist_edges",
        }

    def test_spectrum_balanced_fibres_for_group_walk(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--walk", "pa-pra", "-r", "8", "-p", "3", "-m", "1",
             "--fibre-trials", "20", "--fibres-only"], capsys
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert "states" not in report
        bf = report["balanced_fibres"]
        assert set(bf) == {"beta", "trials", "acceptance", "min_gap", "gap_floor"}
        assert bf["min_gap"] >= bf["gap_floor"]

    @pytest.mark.parametrize("m", [1, 2])
    def test_fibre_loop_builds_no_boundary_objects(self, capsys, monkeypatch, m):
        # the fibres are built on element codes: no FieldVector or
        # HeisenbergElement is made between the sample and the report
        argv = ["spectrum", "--walk", "pa-pra", "-r", "16", "-p", "3", "-m", str(m),
                "--fibre-trials", "3", "--fibres-only", "--seed", "5"]
        code, want, err = run_cli(argv, capsys)
        assert code == 0, err

        def fail(*args, **kwargs):
            raise AssertionError("a boundary object was built")

        monkeypatch.setattr(HeisenbergElement, "__post_init__", fail)
        monkeypatch.setattr(FieldVector, "__init__", fail)
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert out == want

    def test_spectrum_group_walk_eigensolve_refusal(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--walk", "pa-pra", "-r", "3", "-p", "3", "-m", "1"], capsys
        )
        assert code == 2
        assert "rerun with eig_budget >= 16848" in err

    def test_spectrum_runs_one_eigensolve(self, capsys, monkeypatch):
        calls = []
        solve = spectral.spectrum

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(spectral, "spectrum", counted)
        code, out, _ = run_cli(
            ["spectrum", "--walk", "one-column", "-r", "4", "-p", "3", "--laziness", "0.25"], capsys
        )
        assert code == 0 and len(calls) == 1
        report = json.loads(out)["report"]
        assert report["spectral_gap"] == 1.0 - report["eigenvalues_top"][1]

    def test_spectrum_solves_character_blocks(self, capsys, monkeypatch):
        given = []
        solve = spectral.spectrum

        def recorded(P, *args, **kwargs):
            given.append(kwargs.get("symmetries", ()))
            return solve(P, *args, **kwargs)

        monkeypatch.setattr(spectral, "spectrum", recorded)
        code, out, _ = run_cli(
            ["spectrum", "--walk", "one-column", "-r", "5", "-p", "3", "--laziness", "0.25"], capsys
        )
        assert code == 0 and len(given) == 1 and len(given[0]) == 3
        report = json.loads(out)["report"]
        assert report["states"] == 242 >= spectral._BLOCK_MIN_STATES
        dense = np.linalg.eigvalsh(spectral.check_reversibility(OneColumnWalk(5, 3, 0.25).dense()))[::-1]
        np.testing.assert_allclose(report["eigenvalues_top"], dense[:16], rtol=0, atol=1e-12)
        np.testing.assert_allclose(report["eigenvalues_bottom"], dense[-4:], rtol=0, atol=1e-12)

    def test_fibres_only_rejected_for_row_walk(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--walk", "transvection", "-n", "4", "-k", "1",
             "--fibres-only"], capsys
        )
        assert code == 1
        assert "fibres_only" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["mixing", "--mode", "exact", "--walk", "transvection",
                "-n", "4", "-k", "1", "--laziness", "0.5"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_config_hash_is_order_insensitive(self):
        h1 = cli.config_hash({"n": 4, "k": 1, "walk": "transvection"})
        h2 = cli.config_hash({"walk": "transvection", "k": 1, "n": 4})
        assert h1 == h2
        assert h1 != cli.config_hash({"n": 5, "k": 1, "walk": "transvection"})

    def test_numpy_values_written_as_pinned_bytes(self, tmp_path):
        report = {"count": np.int64(7), "values": (np.float64(0.5), np.float64("nan")),
                  "flag": np.bool_(True), "grid": np.arange(4).reshape(2, 2)}
        out = tmp_path / "report.json"
        cli._emit_json("mixing", {"walk": "transvection", "n": np.int64(4)}, report, str(out))
        assert out.read_bytes() == (
            b'{\n  "command": "mixing",\n  "config": {\n    "n": 4,\n    "walk": "transvection"\n'
            b'  },\n  "config_hash": "115322a29248",\n  "report": {\n    "count": 7,\n'
            b'    "flag": true,\n    "grid": [\n      [\n        0,\n        1\n      ],\n'
            b'      [\n        2,\n        3\n      ]\n    ],\n    "values": [\n      0.5,\n'
            b'      NaN\n    ]\n  },\n  "schema_version": 1\n}\n'
        )
        assert cli.config_hash({"walk": "transvection", "n": 4}) == "115322a29248"
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            cli._emit_json("mixing", {}, {"x": object()}, str(out))


# ---------------------------------------------------------------------------
# simulate CSV contracts


class TestSimulateCsv:
    def _rows(self, text):
        return list(csv.reader(io.StringIO(text)))

    def test_row_walk_header_and_rows(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = cli.main([
            "simulate", "--walk", "transvection", "-n", "6", "-k", "1",
            "--steps", "8", "--trials", "2", "--record-every", "4",
            "--out", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        raw = out.read_bytes()
        assert b"\r\n" in raw
        rows = self._rows(raw.decode())
        assert rows[0] == ["trajectory_id", "step", "s_xi_1", "in_good"]
        # two trajectories, each recorded at t = 0, 4, 8
        assert len(rows) == 1 + 2 * 3
        assert rows[1] == ["0", "0", "4", "0"]
        assert [r[0] for r in rows[1:]] == ["0", "0", "0", "1", "1", "1"]
        assert [r[1] for r in rows[1:4]] == ["0", "4", "8"]

    def test_meta_sidecar(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = cli.main([
            "simulate", "--walk", "transvection", "-n", "4", "-k", "2",
            "--steps", "2", "--out", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        meta = read_json(str(out) + ".meta.json")
        assert set(meta) == {
            "schema_version", "command", "config", "config_hash", "columns",
        }
        assert meta["command"] == "simulate"
        assert meta["columns"][:2] == ["trajectory_id", "step"]
        assert meta["columns"][-1] == "in_good"
        assert meta["config_hash"] == cli.config_hash(meta["config"])

    def test_column_walk_weight_column(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--walk", "one-column", "-r", "5", "--steps", "3"], capsys
        )
        assert code == 0
        rows = self._rows(out)
        assert rows[0] == ["trajectory_id", "step", "weight", "s_xi_1", "in_good"]
        assert rows[1] == ["0", "0", "1", "3", "0"]

    def test_column_walk_odd_characteristic_support_only(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--walk", "one-column", "-r", "4", "-p", "3",
             "--steps", "2"], capsys
        )
        assert code == 0
        rows = self._rows(out)
        assert rows[0] == ["trajectory_id", "step", "support"]
        assert rows[1] == ["0", "0", "1"]

    def test_group_walk_kernel_count_columns(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--walk", "pa-pra", "-r", "4", "-p", "3", "-m", "1",
             "--steps", "2", "--beta0", "0.75"], capsys
        )
        assert code == 0
        rows = self._rows(out)
        assert rows[0][:2] == ["trajectory_id", "step"]
        assert rows[0][2:10] == [f"n_xi_{c}" for c in range(1, 9)]
        assert rows[0][10:] == ["support", "in_good"]
        # canonical start: e1, e2, central, identity -> support 2
        assert rows[1][10] == "2"

    def test_deterministic_across_runs(self, tmp_path, capsys):
        args = ["simulate", "--walk", "one-column", "-r", "6", "--steps", "20",
                "--trials", "3", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_trajectories(self, tmp_path, capsys):
        base = ["simulate", "--walk", "one-column", "-r", "6", "--steps", "20"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert cli.main(base + ["--seed", "2", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()


# ---------------------------------------------------------------------------
# mixing, birthdeath, pipeline reports


class TestMixingCommand:
    def test_exact_report(self, capsys):
        code, out, _ = run_cli(
            ["mixing", "--mode", "exact", "--walk", "transvection",
             "-n", "4", "-k", "1", "--laziness", "0.5"], capsys
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["mode"] == "exact"
        assert report["states"] == 15
        assert report["mixing_time"] == 15
        assert report["move_bound"] == 13
        assert report["times"] == list(range(16))
        assert report["counting_lower"][0] == pytest.approx(1 - 1 / 15)
        assert report["tv"][-1] <= report["epsilon"]

    def test_exact_never_builds_the_dense_kernel(self, capsys, monkeypatch, tmp_path):
        def no_dense(self, space=None):
            raise AssertionError("dense kernel built for exact mixing")

        # a user grid reaching past tau continues the same pass
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"t_grid": [30, 0, 7, 19]}))
        walk = TransvectionWalk(4, 2, laziness=0.25)
        expect = worst_tv_curve(walk.dense(), [0, 7, 19, 30])
        monkeypatch.setattr(_WalkBase, "dense", no_dense)
        code, out, err = run_cli(
            ["mixing", "--mode", "exact", "--walk", "transvection", "-n", "4", "-k", "2",
             "--laziness", "0.25", "--config", str(cfg)], capsys
        )
        assert code == 0, err
        report = json.loads(out)["report"]
        assert report["times"] == [0, 7, 19, 30]
        assert 7 < report["mixing_time"] < 30
        np.testing.assert_allclose(report["tv"], expect, rtol=0, atol=1e-12)
        assert report["counting_lower"] == [
            tv_counting_lower(t, walk.counting_move_bound, 210) for t in report["times"]]

    def test_grid_time_past_the_step_cap_refused_before_any_step(self, capsys, monkeypatch,
                                                                 tmp_path):
        def no_steps(*args):
            raise AssertionError("a TV step was taken")

        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"t_grid": [0, diagnostics.TV_STEP_CAP + 1]}))
        monkeypatch.setattr(diagnostics, "_worst_tv_steps", no_steps)
        code, _, err = run_cli(
            ["mixing", "--mode", "exact", "--walk", "transvection", "-n", "4", "-k", "1",
             "--config", str(cfg)], capsys
        )
        assert code == 2, err
        assert f"{diagnostics.TV_STEP_CAP + 1} steps exceed the TV grid budget" in err

    def test_mc_user_grid_lines_up(self, capsys, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"t_grid": [9, 0, 3, 3]}))
        code, out, err = run_cli(
            ["mixing", "--mode", "mc", "-r", "6", "--trials", "50", "--seed", "2",
             "--config", str(cfg)], capsys
        )
        assert code == 0, err
        report = json.loads(out)["report"]
        assert report["times"] == [0, 3, 9]
        assert len(report["tv"]) == len(report["tv_exact"]) == 3
        assert report["counting_lower"] == [tv_counting_lower(t, 31, 63) for t in (0, 3, 9)]

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_negative_grid_time_is_config_error(self, capsys, tmp_path, mode):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"t_grid": [4, -1]}))
        code, _, err = run_cli(
            ["mixing", "--mode", mode, "--walk", "one-column", "-r", "3", "--trials", "10",
             "--config", str(cfg)], capsys
        )
        assert code == 1
        assert "nonnegative" in err

    def test_mc_report(self, capsys):
        code, out, _ = run_cli(
            ["mixing", "--mode", "mc", "-r", "8", "--trials", "4000",
             "--t-max", "60", "--points", "10"], capsys
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert set(report) == {
            "mode", "r", "trials", "times", "tv", "tv_exact", "counting_lower",
            "crossing_quarter", "n_log_n", "fitted_constant",
        }
        assert report["times"][0] == 0
        assert report["tv"][0] == pytest.approx(1.0, abs=0.05)

    def test_mc_honours_laziness(self, capsys):
        argv = ["mixing", "--mode", "mc", "-r", "8", "--trials", "200",
                "--t-max", "20", "--points", "4", "--seed", "1", "--laziness"]
        reports = {}
        for q in ("0", "0.5"):
            code, out, _ = run_cli(argv + [q], capsys)
            assert code == 0
            reports[q] = json.loads(out)["report"]
        lazy = mc_tv_curve_one_column(8, 200, reports["0.5"]["times"], 1, laziness=0.5)
        assert reports["0.5"]["tv_exact"] == lazy["tv_exact"].tolist()
        assert reports["0.5"]["tv"] != reports["0"]["tv"]

    def test_mc_refuses_r_past_the_float_range(self, capsys, monkeypatch):
        # C(r, w)/(2^r - 1) overflows a float at r = 1024; nothing may run first
        code, out, _ = run_cli(["mixing", "--mode", "mc", "-r", "1023", "--trials", "2",
                                "--t-max", "2", "--points", "2"], capsys)
        assert code == 0
        assert json.loads(out)["report"]["times"] == [0, 1, 2]

        def fail(*args, **kw):
            raise AssertionError("a trajectory ran before the refusal")

        monkeypatch.setattr(diagnostics, "one_column_batch", fail)
        for r in ("1024", "1030"):
            code, _, err = run_cli(["mixing", "--mode", "mc", "-r", r, "--trials", "2"], capsys)
            assert code == 1
            assert "config error" in err and "overflows a float for r >= 1024" in err

    def test_unknown_mode(self, capsys):
        code, _, err = run_cli(["mixing", "--mode", "weird"], capsys)
        assert code == 1
        assert "config error" in err


class TestBirthdeathCommand:
    def test_full_report(self, capsys):
        code, out, _ = run_cli(
            ["birthdeath", "-r", "4", "-p", "3", "--target", "4",
             "--A0", "1", "--A1", "4", "--epsilon", "0.3"], capsys
        )
        assert code == 0
        report = json.loads(out)["report"]
        row2 = report["table"][1]
        assert row2["s"] == 2
        assert row2["birth"] == pytest.approx(2 / 9)
        assert row2["death"] == pytest.approx(1 / 18)
        assert row2["hold"] == pytest.approx(1 - 2 / 9 - 1 / 18)
        assert "rho" not in report["table"][-1]
        assert report["hitting"][0]["expected_steps"] > 0
        assert report["hitting"][-1]["expected_steps"] == 0.0
        crossing = report["crossing"]
        assert crossing[0]["prob_down_first"] == pytest.approx(1.0)
        assert crossing[-1]["prob_down_first"] == pytest.approx(0.0)
        assert report["constants"]["beta0"] == pytest.approx(0.731)

    def test_optional_blocks_absent(self, capsys):
        code, out, _ = run_cli(["birthdeath", "-r", "4", "-p", "3"], capsys)
        assert code == 0
        report = json.loads(out)["report"]
        assert "crossing" not in report
        assert "constants" not in report
        assert report["target"] == 4

    @pytest.mark.parametrize("given", [["--A0", "2"], ["--A1", "5"], {"A0": 2}, {"A1": 5}])
    def test_one_crossing_level_is_config_error(self, capsys, tmp_path, given):
        argv = ["birthdeath", "-r", "8", "-p", "3"]
        if isinstance(given, dict):
            cfg = tmp_path / "bd.json"
            cfg.write_text(json.dumps(given))
            given = ["--config", str(cfg)]
        code, out, err = run_cli(argv + given, capsys)
        assert code == 1 and out == ""
        assert "config error" in err and "A0 and A1" in err

    @pytest.mark.parametrize("given, message", [
        (["--target", "0"], "levels must lie in [1, 64], got s=1, target=0"),
        (["--target", "0", "--A0", "9", "--A1", "3"], "got s=1, target=0"),
        (["--A0", "9", "--A1", "3"], "need 1 <= A0 < A1 <= 64, got A0=9, A1=3"),
    ])
    def test_empty_tables_are_config_errors(self, capsys, monkeypatch, given, message):
        def no_table(*args):
            raise AssertionError("a table was built before the refusal")

        monkeypatch.setattr(cli, "bd_probs", no_table)
        code, out, err = run_cli(["birthdeath", "-r", "64", "-p", "3", *given], capsys)
        assert code == 1 and out == ""
        assert "config error" in err and message in err


class TestPipelineCommand:
    def test_small_tuple_walk(self, capsys):
        code, out, _ = run_cli(
            ["pipeline", "--walk", "transvection", "-n", "4", "-k", "2",
             "-s", "50", "-L", "30", "--t-star", "25"], capsys
        )
        assert code == 0
        report = json.loads(out)["report"]
        assert report["omega_size"] == 210
        assert report["zero_extension"]["A"] == pytest.approx(7.129476707623293)
        assert report["eta"] == pytest.approx(1.0)
        assert report["burnin_steps"] == 50
        assert report["tv_bound_dominates"] is True
        assert report["exact_tv_at_bound_time"] <= report["tv_bound"]

    @pytest.mark.parametrize("n", [4, 5])
    def test_exact_tv_matches_matrix_exponential(self, n, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense matrix function called")

        walk = TransvectionWalk(n, 2)
        P = walk.dense()
        with monkeypatch.context() as m:
            m.setattr(scipy.linalg, "expm", forbidden)
            m.setattr(np.linalg, "matrix_power", forbidden)
            code, out, err = run_cli(
                ["pipeline", "--walk", "transvection", "-n", str(n), "-k", "2",
                 "-s", "50", "-L", "30", "--t-star", "25"], capsys
            )
        assert code == 0, err
        report = json.loads(out)["report"]
        hk = scipy.linalg.expm(report["t_mix_cont_upper"] * (P - np.eye(P.shape[0])))
        exact = 0.5 * float(np.abs(hk - 1.0 / P.shape[0]).sum(axis=1).max())
        assert abs(report["exact_tv_at_bound_time"] - exact) < 1e-12

    def test_builds_one_move_table(self, capsys, monkeypatch):
        calls = []
        table = _WalkBase.move_permutations

        def counted(self, space):
            calls.append(1)
            return table(self, space)

        monkeypatch.setattr(_WalkBase, "move_permutations", counted)
        code, _, err = run_cli(
            ["pipeline", "--walk", "transvection", "-n", "4", "-k", "2",
             "-s", "50", "-L", "30", "--t-star", "25"], capsys
        )
        assert code == 0, err
        assert len(calls) == 1

    def test_builds_no_dense_kernel(self, capsys, monkeypatch, tmp_path):
        argv = ["pipeline", "--walk", "transvection", "-n", "5", "-k", "2",
                "-s", "50", "-L", "30", "--t-star", "25", "--out"]
        assert cli.main(argv + [str(tmp_path / "want.json")]) == 0
        walk = TransvectionWalk(5, 2)
        op = walk.operator(walk.space())
        assert op.shape[0] == 930
        toarray = type(op).toarray

        def no_kernel_rows(self, *args, **kwargs):
            out = toarray(self, *args, **kwargs)
            assert out.shape[0] != 930, "the 930 x 930 kernel was made dense"
            return out

        def no_dense(self, space=None):
            raise AssertionError("the dense kernel was built")

        monkeypatch.setattr(type(op), "toarray", no_kernel_rows)
        monkeypatch.setattr(_WalkBase, "dense", no_dense)
        code, _, err = run_cli(argv + [str(tmp_path / "got.json")], capsys)
        assert code == 0, err
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_requires_t_star(self, capsys):
        code, _, err = run_cli(
            ["pipeline", "--walk", "transvection", "-n", "4", "-k", "2"], capsys
        )
        assert code == 1
        assert "t_star" in err

    def test_empty_good_set_is_config_error(self, capsys):
        code, _, err = run_cli(
            ["pipeline", "--walk", "transvection", "-n", "3", "-k", "1",
             "--t-star", "1.0"], capsys
        )
        assert code == 1
        assert "good set" in err


class TestRepcheckCommand:
    def test_small_group(self, capsys):
        code, out, _ = run_cli(["repcheck", "-p", "3", "-m", "1"], capsys)
        assert code == 0
        report = json.loads(out)["report"]
        assert report["group_order"] == 27
        assert report["dimension_square_sum"] == 27
        assert report["dimension_sum_exact"] is True
        assert len(report["representations"]) == 2
        for block in report["representations"]:
            assert block["dimension"] == 3
            for key in ("mult_residual", "unitarity_residual",
                        "central_residual", "projective_commutation_residual"):
                assert block[key] < 1e-10
            assert block["two_projection_target"] == pytest.approx(3 ** -0.5)
            assert block["two_projection_worst_deviation"] < 1e-10
            assert block["two_projection_pairs"] > 0

    def test_second_heisenberg_group(self, capsys):
        p, m = 3, 2
        code, out, _ = run_cli(["repcheck", "-p", str(p), "-m", str(m)], capsys)
        assert code == 0
        report = json.loads(out)["report"]
        assert report["group_order"] == p ** (2 * m + 1) == report["dimension_square_sum"]
        assert len(report["representations"]) == p - 1
        h = p ** (2 * m)
        for block in report["representations"]:
            assert block["dimension"] == p**m
            for key in ("mult_residual", "unitarity_residual", "central_residual",
                        "projective_commutation_residual", "two_projection_worst_deviation"):
                assert block[key] <= 1e-10
            # ordered pairs with omega(g, b) != 0: g off the centre, then
            # b's horizontal part off the hyperplane omega(g, .) = 0
            assert block["two_projection_pairs"] == (h - 1) * (h - h // p) * p * p == 38_880


# ---------------------------------------------------------------------------
# configuration file handling


class TestConfigFile:
    def test_nested_section(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mixing": {"mode": "exact", "walk": "transvection",
                       "n": 4, "k": 1, "laziness": 0.5},
            "spectrum": {"walk": "transvection", "n": 3, "k": 2},
        }))
        code, out, _ = run_cli(["mixing", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["report"]["mixing_time"] == 15

    def test_flat_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"walk": "transvection", "n": 3, "k": 2}))
        code, out, _ = run_cli(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["report"]["states"] == 42

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mixing": {"mode": "exact", "walk": "transvection",
                       "n": 4, "k": 1, "laziness": 0.5, "epsilon": 0.9},
        }))
        code, out, _ = run_cli(
            ["mixing", "--config", str(cfg), "--epsilon", "0.25"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["epsilon"] == 0.25
        assert payload["report"]["mixing_time"] == 15

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["spectrum", "--config", "/nonexistent.json"], capsys)
        assert code == 1
        assert "config" in err

    def test_malformed_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(["spectrum", "--config", str(cfg)], capsys)
        assert code == 1
        assert "valid JSON" in err

    def test_non_object_file(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run_cli(["spectrum", "--config", str(cfg)], capsys)
        assert code == 1


# ---------------------------------------------------------------------------
# exit codes and environment


class TestExitCodes:
    def test_budget_refusal_names_required_eig_budget(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--walk", "transvection", "-n", "3", "-k", "2",
             "--eig-budget", "10"], capsys
        )
        assert code == 2
        assert "budget refusal" in err
        assert "rerun with eig_budget >= 42" in err

    def test_budget_refusal_names_required_pair_budget(self, capsys):
        code, _, err = run_cli(
            ["repcheck", "-p", "3", "-m", "1", "--pair-budget", "100"], capsys
        )
        assert code == 2
        assert "rerun with pair_budget >= 729" in err

    def test_missing_required_parameter(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--walk", "transvection", "-n", "4", "-k", "1"], capsys
        )
        assert code == 1
        assert "steps" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = run_cli(["simulate", "--walk", "nosuch"], capsys)
        assert code == 1
        assert "config error" in err

    def test_invariant_violation_exit_code(self, capsys, monkeypatch):
        def boom(cfg, out_path):
            raise InvariantError("synthetic failure")

        monkeypatch.setitem(cli._DISPATCH, "birthdeath", boom)
        code, _, err = run_cli(["birthdeath", "-r", "4", "-p", "3"], capsys)
        assert code == 3
        assert "invariant violation" in err

    def test_reversibility_violation_exit_code(self, capsys, monkeypatch):
        def boom(cfg, out_path):
            raise ReversibilityError("synthetic asymmetry")

        monkeypatch.setitem(cli._DISPATCH, "spectrum", boom)
        code, _, err = run_cli(
            ["spectrum", "--walk", "transvection", "-n", "3", "-k", "1"], capsys
        )
        assert code == 3

    @pytest.mark.parametrize("exc", [MemoryError("no room"), np.linalg.LinAlgError("singular")])
    def test_unexpected_exception_exit_code(self, capsys, monkeypatch, exc):
        def boom(cfg, out_path):
            raise exc

        monkeypatch.setitem(cli._DISPATCH, "birthdeath", boom)
        code, out, err = run_cli(["birthdeath", "-r", "4", "-p", "3"], capsys)
        assert code == 3
        assert out == ""
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"

    def test_interrupt_is_not_caught(self, monkeypatch):
        def interrupt(cfg, out_path):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._DISPATCH, "birthdeath", interrupt)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["birthdeath", "-r", "4", "-p", "3"])

    def test_dense_budget_refused_before_the_kernel_is_built(self, capsys, monkeypatch):
        # F_3^8 \ 0 has 6560 states: within the default state budget, above the
        # default dense budget of 4096, so the 344 MB kernel must never be built
        def no_dense(self, space=None):
            raise AssertionError("dense kernel built before the budget check")

        monkeypatch.setattr(_WalkBase, "dense", no_dense)
        code, _, err = run_cli(
            ["mixing", "--mode", "exact", "--walk", "one-column", "-r", "8", "-p", "3"], capsys
        )
        assert code == 2
        assert "6560 states exceed the dense mixing budget 4096" in err

    def test_tracked_block_refused_before_it_is_allocated(self, capsys, monkeypatch, tmp_path):
        # V_3(H(3,1)) keeps all 16 848 states as starts: with the state gate
        # raised, the 16 848 x 16 848 block (2.1 GiB) must never be allocated
        class NoBlock:
            def __getattr__(self, name):
                return getattr(np, name)

            def zeros(self, shape, *args, **kwargs):
                if np.prod(shape) > diagnostics.DEFAULT_BLOCK_BUDGET:
                    raise AssertionError("tracked block allocated before the budget check")
                return np.zeros(shape, *args, **kwargs)

        monkeypatch.setattr(diagnostics, "np", NoBlock())
        cfg = tmp_path / "raised.json"
        cfg.write_text(json.dumps({"mixing": {"dense_budget": 20_000}}))
        code, _, err = run_cli(["mixing", "--mode", "exact", "--walk", "pa-pra", "-r", "3",
                                "-p", "3", "-m", "1", "--config", str(cfg)], capsys)
        assert code == 2
        assert err == ("budget refusal: 25474176 entries (1512 starts x 16848 states) exceed "
                       "the tracked block budget 16777216\n")

    def test_tracked_block_refused_before_the_move_table(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(_WalkBase, "move_permutations", _no_move_table)
        cfg = tmp_path / "raised.json"
        cfg.write_text(json.dumps({"mixing": {"dense_budget": 20_000}}))
        code, _, err = run_cli(["mixing", "--mode", "exact", "--walk", "pa-pra", "-r", "3",
                                "-p", "3", "-m", "1", "--config", str(cfg)], capsys)
        assert code == 2
        assert err == ("budget refusal: 25474176 entries (1512 starts x 16848 states) exceed "
                       "the tracked block budget 16777216\n")

    @pytest.mark.parametrize("argv,message", [
        (["spectrum", "--walk", "transvection", "-n", "3", "-k", "2", "--eig-budget", "10"],
         "42 states exceed the eigensolve budget 10; rerun with eig_budget >= 42"),
        (["mixing", "--mode", "exact", "--walk", "one-column", "-r", "8", "-p", "3"],
         "6560 states exceed the dense mixing budget 4096; rerun with dense_budget >= 6560"),
        (["repcheck", "-p", "3", "-m", "1", "--pair-budget", "100"],
         "729 element pairs exceed the pair budget 100; rerun with pair_budget >= 729"),
        (["pipeline", "--walk", "transvection", "-n", "6", "-k", "2", "--t-star", "25"],
         "3906 states exceed the pipeline eigensolve budget 2048"),
        (["simulate", "--walk", "transvection", "-n", "9", "-k", "9", "--steps", "1"],
         "511 sign columns exceed the CSV budget 256"),
        (["simulate", "--walk", "pa-pra", "-r", "3", "-p", "17", "-m", "1", "--steps", "1"],
         "288 kernel-count columns exceed the CSV budget 256"),
        (["spectrum", "--walk", "pa-pra", "-r", "16", "-p", "3", "-m", "1", "--fibres-only",
          "--fibre-trials", "100000"],
         "18000000 drawn entries (400000 tuples x 15 coordinates x 3 digits) exceed the state "
         "budget 16777216"),
        (["spectrum", "--walk", "pa-pra", "-r", "8", "-p", "11", "-m", "2", "--fibres-only"],
         "214344240 value-table entries exceed the state budget 16777216"),
    ], ids=["eig_budget", "dense_budget", "pair_budget", "pipeline", "csv-signs", "csv-counts",
            "fibre-draws", "value-table"])
    def test_budget_gate_refuses_before_building(self, capsys, monkeypatch, argv, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("built before the budget check")

        monkeypatch.setattr(_WalkBase, "move_permutations", forbidden)
        monkeypatch.setattr(_WalkBase, "batch", forbidden)
        monkeypatch.setattr(cli, "representation_dimension_check", forbidden)
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err == f"budget refusal: {message}\n"

    @pytest.mark.parametrize("extra", [[], ["--fibres-only"]])
    def test_unreachable_balance_level_is_config_error(self, capsys, extra):
        """r = 2 leaves one frozen part, which always lies in some hyperplane.
        With --fibres-only that is a config error; otherwise the ambient
        spectrum runs and the reason stands in for the fibre table."""
        code, out, err = run_cli(["spectrum", "--walk", "pa-pra", "-r", "2", "-p", "3", "-m", "1",
                                  *extra], capsys)
        reason = ("no tuple is balanced at beta=0.5 for r=2: any 1 frozen horizontal parts lie "
                  "in one hyperplane, above beta*(r-1) = 0.5")
        if extra:
            assert (code, out, err) == (1, "", f"config error: {reason}\n")
            return
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert report["balanced_fibres_unreachable"] == reason
        assert "balanced_fibres" not in report
        # V_2(H(3,1)) splits into two determinant classes, so 1 is a double eigenvalue
        assert report["spectral_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_reducible_kernel_refused_at_once(self, capsys):
        # V_2(H(3,1)) splits into two determinant classes of 216 states, so
        # worst-start TV never drops below 1/2
        start = time.perf_counter()
        code, _, err = run_cli(
            ["mixing", "--mode", "exact", "--walk", "pa-pra", "-r", "2", "-p", "3", "-m", "1",
             "--laziness", "0.5"], capsys
        )
        assert code == 1
        assert err.startswith("config error: kernel is reducible (2 closed classes of sizes 216, 216)")
        assert time.perf_counter() - start < 5.0


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        cfg = tmp_path / "mixing.json"
        cfg.write_text(json.dumps({"mixing": {
            "mode": "exact", "walk": "transvection", "n": 4, "k": 1, "laziness": 0.5,
            "t_grid": [0, 3, 20]}}))
        first = ["spectrum", "--walk", "one-column", "-r", "3", "-p", "3", "--laziness", "0.25"]
        sequence = [
            first,
            ["mixing", "--config", str(cfg)],
            ["mixing", "--walk", "nosuch"],  # usage error
            ["spectrum", "--walk", "one-column", "-r", "3", "-p", "3", "--eig-budget", "5"],
            first,  # the eig budget of the refused call must not carry over
        ]
        for argv, code in zip(sequence, [0, 0, 1, 2, 0]):
            fresh = subprocess.run([sys.executable, "-m", "groupwalks.cli", *argv],
                                   capture_output=True, text=True, timeout=120)
            got = run_cli(argv, capsys)
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr)
            assert got[0] == code

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


_COMMON_OPTIONS = {"--config": ("config", None), "--out": ("out", None), "--seed": ("seed", int)}
_WALK_OPTIONS = {"--walk": ("walk", None), "--laziness": ("laziness", float),
                 **{f"-{c}": (c, int) for c in "nkrpm"}}


def _options(*flags, walk="", **named):
    """Expected {flag: (dest, type)}: the common flags, --walk and --laziness
    with the size flags in `walk` when it is set, int flags named by dest,
    and typed ones given as flag=(dest, type)."""
    out = dict(_COMMON_OPTIONS)
    if walk:
        out.update({f: v for f, v in _WALK_OPTIONS.items() if len(f) > 2 or f[1] in walk})
    out.update({f: (f.lstrip("-").replace("-", "_"), int) for f in flags})
    out.update({f"--{k.replace('_', '-')}": v for k, v in named.items()})
    return out


class TestParserOptions:
    # the walk flags are declared once for four subcommands; each
    # subcommand's flags, dests and types are pinned here, and every
    # default is None so that a config file's value survives
    EXPECTED = {
        "simulate": _options("--steps", "--trials", "--record-every", walk="nkrpm",
                             beta0=("beta0", float)),
        "spectrum": _options("--fibre-trials", "--eig-budget", walk="nkrpm",
                             beta=("beta", float), fibres_only=("fibres_only", None)),
        "mixing": _options("--trials", "--t-max", "--points", walk="nkrpm",
                           mode=("mode", None), epsilon=("epsilon", float)),
        "birthdeath": _options("-r", "-p", "--target", "--A0", "--A1", epsilon=("epsilon", float)),
        "repcheck": _options("-p", "-m", "--pair-budget"),
        "pipeline": _options("-s", "-L", walk="nk", t_star=("t_star", float)),
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_option_set(self, command):
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
        got = {flag: (a.dest, a.type) for a in actions for flag in a.option_strings}
        assert got == self.EXPECTED[command]
        assert all(a.default is None for a in actions)
        walk = [a for a in actions if a.dest == "walk"]
        assert all(a.choices == ["transvection", "one-column", "pa-pra"] for a in walk)


class TestImportCost:
    def test_cli_loads_no_quadrature_or_dense_linalg(self):
        code = ("import sys, groupwalks.cli; "
                "print([m for m in ('scipy.integrate', 'scipy.linalg', 'scipy.special') "
                "if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_root_loads_no_submodule(self):
        code = ("import sys, groupwalks; "
                "print(sorted(m for m in sys.modules if m.startswith('groupwalks.')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestConsoleScript:
    def test_entry_point_round_trip(self):
        proc = subprocess.run(
            [sys.executable, "-m", "groupwalks.cli", "birthdeath", "-r", "4", "-p", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["command"] == "birthdeath"

    def test_installed_script(self):
        proc = subprocess.run(
            ["groupwalks", "birthdeath", "-r", "4", "-p", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["report"]["p"] == 3
