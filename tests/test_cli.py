"""Command-line interface: subcommands, exit codes, stream discipline."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from rmpoly import (EmpiricalSpectralDistribution, ExperimentConfig,
                    LemmaReport, ValidationError, angular_ks,
                    polynomial_from_json, read_points_csv, run_grow_n)
from rmpoly.cli import main
from rmpoly import harness
from rmpoly.harness import _FIELDS, VerificationResult

# Tail of the INFO line each verify check family logs when it finishes.
FAMILY_DONE = " done in "


@pytest.fixture()
def runner():
    return CliRunner()


class TestSample:
    def test_emits_polynomial_json_on_stdout(self, runner):
        res = runner.invoke(main, ["sample", "--n", "2", "--k", "3",
                                   "--seed", "5"])
        assert res.exit_code == 0
        p = polynomial_from_json(res.stdout)
        assert (p.n, p.k) == (2, 3)

    def test_same_seed_same_bytes(self, runner):
        args = ["sample", "--n", "2", "--k", "2", "--seed", "9"]
        assert runner.invoke(main, args).stdout == \
            runner.invoke(main, args).stdout

    def test_out_writes_file(self, runner, tmp_path):
        out = tmp_path / "poly.json"
        res = runner.invoke(main, ["sample", "--n", "2", "--k", "2",
                                   "--out", str(out)])
        assert res.exit_code == 0
        assert res.stdout == ""
        assert polynomial_from_json(out.read_text()).n == 2

    def test_invalid_dimension_exits_one(self, runner):
        res = runner.invoke(main, ["sample", "--n", "0", "--k", "2"])
        assert res.exit_code == 1
        assert "error:" in res.stderr

    def test_out_in_missing_directory_exits_one(self, runner, tmp_path):
        res = runner.invoke(main, ["sample", "--n", "2", "--k", "2", "--out",
                                   str(tmp_path / "missing" / "p.json")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.stderr


class TestEsd:
    def test_stdout_csv_has_all_scaled_eigenvalues(self, runner):
        res = runner.invoke(main, ["esd", "--n", "2", "--k", "2",
                                   "--trials", "3", "--seed", "1"])
        assert res.exit_code == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "re,im"
        assert len(lines) == 1 + 2 * 2 * 3

    def test_grow_n_is_the_rescaled_grow_k_cloud(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["esd", "--n", "4", "--k", "3", "--trials", "2", "--seed", "3"]
        assert runner.invoke(main, base + ["--regime", "grow-n",
                                           "--out", str(a)]).exit_code == 0
        assert runner.invoke(main, base + ["--regime", "grow-k",
                                           "--out", str(b)]).exit_code == 0
        scaled = read_points_csv(a)
        unscaled = read_points_csv(b)
        assert np.array_equal(scaled, 4 ** -0.5 * unscaled)

    def test_stdout_equals_points_file_of_cell_zero(self, runner, tmp_path):
        # 8800 points: three blocks of rows, the last one partial.
        res = runner.invoke(main, ["esd", "--n", "4", "--k", "2",
                                   "--trials", "1100", "--seed", "3"])
        assert res.exit_code == 0
        cfg = ExperimentConfig(regime="grow-n", n_values=(4,), k_values=(2,),
                               target_points=8800, seed=3,
                               output_dir=str(tmp_path))
        (cell,) = run_grow_n(cfg).cells
        assert cell.trials == 1100
        assert res.stdout_bytes == (tmp_path / cell.points_file).read_bytes()

    def test_nonpositive_trials_exit_one(self, runner):
        res = runner.invoke(main, ["esd", "--n", "2", "--k", "2",
                                   "--trials", "0"])
        assert res.exit_code == 1
        assert "trials" in res.stderr

    def test_trial_count_past_32_bits_exits_one_before_any_draw(
            self, runner, monkeypatch):
        seeded = []
        monkeypatch.setattr("rmpoly.matpoly._seed_states",
                            lambda *a: seeded.append(a))
        res = runner.invoke(main, ["esd", "--n", "1", "--k", "1",
                                   "--trials", str(2 ** 32 + 1)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "2**32" in res.stderr
        assert seeded == []

    def test_out_in_missing_directory_exits_one(self, runner, tmp_path):
        res = runner.invoke(main, ["esd", "--n", "2", "--k", "2", "--out",
                                   str(tmp_path / "missing" / "p.csv")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.stderr

    def test_zero_dimension_exits_one(self, runner):
        res = runner.invoke(main, ["esd", "--n", "0", "--k", "2"])
        assert res.exit_code == 1
        # A raw exception would also exit 1; the guard exits by SystemExit.
        assert isinstance(res.exception, SystemExit)
        assert any(line.startswith("error: ")
                   for line in res.stderr.splitlines())


class TestExperiment:
    BASE = ["experiment", "--regime", "grow-n", "--n", "8", "--k", "2",
            "--target-points", "320", "--seed", "11"]

    def test_run_writes_summary_and_points(self, runner, tmp_path):
        res = runner.invoke(main, self.BASE + ["--out", str(tmp_path)])
        assert res.exit_code == 0
        summary = tmp_path / "result_grow-n_seed11.json"
        assert str(summary) in res.stdout
        doc = json.loads(summary.read_text())
        assert doc["seed"] == 11
        assert (tmp_path / doc["cells"][0]["points_file"]).exists()

    def test_quiet_suppresses_progress(self, runner, tmp_path):
        res = runner.invoke(main, ["--quiet"] + self.BASE
                            + ["--out", str(tmp_path)])
        assert res.exit_code == 0
        assert "cell" not in res.stderr
        res = runner.invoke(main, self.BASE + ["--out", str(tmp_path)])
        assert "cell" in res.stderr

    def test_flags_override_config_file(self, runner, tmp_path):
        cfg = {"regime": "grow-n", "n_values": [8], "k_values": [2],
               "target_points": 320, "seed": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["experiment", "--config", str(cfg_path),
                                   "--seed", "11", "--out", str(tmp_path)])
        assert res.exit_code == 0
        assert (tmp_path / "result_grow-n_seed11.json").exists()

    def test_config_alone_is_sufficient(self, runner, tmp_path):
        cfg = {"regime": "grow-k", "n_values": [2], "k_values": [8],
               "target_points": 64, "seed": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["experiment", "--config", str(cfg_path),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0
        assert (tmp_path / "result_grow-k_seed2.json").exists()

    def test_malformed_config_exits_one(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        res = runner.invoke(main, ["experiment", "--config", str(cfg_path),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 1
        assert "cannot load config" in res.stderr

    def test_mistyped_config_field_exits_one(self, runner, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"regime": "grow-n", "n_values": [4],
                                        "k_values": [2],
                                        "atom_radius": "x"}))
        res = runner.invoke(main, ["experiment", "--config", str(cfg_path),
                                   "--out", str(tmp_path)])
        # A raw exception would also give exit code 1 under CliRunner; a
        # clean exit is SystemExit from the CLI's ValidationError handler.
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "'atom_radius' must be" in res.stderr

    @pytest.mark.parametrize("setting,pattern", [
        ({"z_values": [[0.5, 0.0]]}, "unknown config fields: ['z_values']"),
        ({"format": "json"}, "format must be one of"),
        # ``--out`` owns the output directory; a document cannot set it.
        ({"output_dir": "elsewhere"}, "unknown config fields: ['output_dir']"),
    ], ids=["z_values", "format-json", "output_dir"])
    def test_removed_setting_in_config_exits_one(self, runner, tmp_path,
                                                 monkeypatch, setting,
                                                 pattern):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(
            {"regime": "grow-n", "n_values": [4], "k_values": [2],
             **setting}))
        res = runner.invoke(main, ["experiment", "--config", "cfg.json",
                                   "--out", "out"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert pattern in res.stderr
        assert "Traceback" not in res.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_repeated_swept_value_exits_one_and_writes_nothing(
            self, runner, tmp_path, monkeypatch, source):
        # Both cells would write points_grow-k_n2_k40_seed7.csv.
        monkeypatch.chdir(tmp_path)
        argv = ["experiment", "--regime", "grow-k", "--n", "2", "--k", "40",
                "--k", "40", "--target-points", "400"]
        if source == "config":
            Path("cfg.json").write_text(json.dumps(
                {"regime": "grow-k", "n_values": [2], "k_values": [40, 40],
                 "target_points": 400}))
            argv = ["experiment", "--config", "cfg.json"]
        res = runner.invoke(main, argv + ["--out", "dup"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "k_values lists 40 twice" in res.stderr
        assert not Path("dup").exists()

    def test_missing_axes_exit_one(self, runner, tmp_path):
        res = runner.invoke(main, ["experiment", "--regime", "grow-n",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 1
        assert "missing" in res.stderr

    def test_infeasible_cell_exits_one(self, runner, tmp_path):
        res = runner.invoke(main, ["experiment", "--regime", "grow-n",
                                   "--n", "64", "--k", "2",
                                   "--target-points", "10",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 1
        assert "infeasible" in res.stderr

    def test_out_under_a_file_exits_one(self, runner, tmp_path):
        (tmp_path / "file").write_text("")
        res = runner.invoke(main, self.BASE
                            + ["--out", str(tmp_path / "file" / "sub")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.stderr

    def test_cell_without_angles_reports_null_angular_ks(self, runner,
                                                         tmp_path):
        # Seed 1 draws one eigenvalue of modulus <= 0.5: the cell has no
        # angle to test, but its other distances stand.
        res = runner.invoke(main, ["experiment", "--regime", "grow-n",
                                   "--n", "1", "--k", "1", "--target-points",
                                   "1", "--seed", "1", "--out", str(tmp_path)])
        assert res.exit_code == 0
        (cell,) = json.loads(
            (tmp_path / "result_grow-n_seed1.json").read_text())["cells"]
        assert cell["report"]["angular_ks"] is None
        assert 0.0 <= cell["report"]["radial_ks"] <= 1.0
        pts = read_points_csv(tmp_path / cell["points_file"])
        with pytest.raises(ValidationError, match="angular KS undefined"):
            angular_ks(EmpiricalSpectralDistribution(pts, 1.0, 1, 1, 1), 0.5)

    def test_svg_format_renders_scatter(self, runner, tmp_path):
        res = runner.invoke(main, self.BASE + ["--format", "svg",
                                               "--out", str(tmp_path)])
        assert res.exit_code == 0
        svg = (tmp_path / "scatter_grow-n_n8_k2_seed11.svg").read_text()
        assert svg.count('class="pt"') == 320

    def test_svg_run_reads_no_points_file_back(self, runner, tmp_path,
                                               monkeypatch):
        args = self.BASE[:5] + ["--n", "4"] + self.BASE[5:] + [
            "--format", "svg"]
        assert runner.invoke(main, args + [
            "--out", str(tmp_path / "a")]).exit_code == 0

        def refuse(path):
            raise AssertionError(f"read back {path}")

        monkeypatch.setattr(harness, "read_points_csv", refuse)
        res = runner.invoke(main, ["--quiet"] + args + [
            "--out", str(tmp_path / "b")])
        assert res.exit_code == 0, res.output
        assert res.stdout.splitlines() == [
            str(tmp_path / "b" / name) for name in (
                "result_grow-n_seed11.json", "scatter_grow-n_n8_k2_seed11.svg",
                "scatter_grow-n_n4_k2_seed11.svg")]
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for d in (dir_a, dir_b):
            assert runner.invoke(main, self.BASE
                                 + ["--out", str(d)]).exit_code == 0
        for name in ("result_grow-n_seed11.json",
                     "points_grow-n_n8_k2_seed11.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_unknown_regime_is_a_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["experiment", "--regime", "grow-both",
                                   "--n", "8", "--k", "2",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_malformed_z_is_a_usage_error(self, runner, tmp_path):
        # Shifts belong to ``verify``; ``experiment`` has no --z at all.
        for z in ("1,2,3", "1"):
            res = runner.invoke(main, self.BASE + ["--z", z,
                                                   "--out", str(tmp_path)])
            assert res.exit_code == 2
            assert "No such option '--z'" in res.stderr

    #: A value other than the default for every setting but ``workers``.
    OTHER = {"regime": "grow-k", "n_values": [3], "k_values": [3],
             "target_points": 16, "seed": 8, "atom_radius": 0.5,
             "output_dir": "elsewhere", "format": "svg"}

    @staticmethod
    def _outputs(runner, base, cfg_doc, out):
        """Every file a run writes, by path below ``base``; the summary
        without its echo of the config."""
        cfg_path = base / "cfg.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        res = runner.invoke(main, ["--quiet", "experiment", "--config",
                                   str(cfg_path), "--out", str(base / out)])
        assert res.exit_code == 0, res.stderr
        files = {}
        for path in sorted((base / out).iterdir()):
            data = path.read_bytes()
            if path.name.startswith("result_"):
                doc = json.loads(data)
                del doc["config"]
                data = json.dumps(doc, sort_keys=True).encode()
            files[str(path.relative_to(base))] = data
        return files

    @pytest.mark.parametrize("field", sorted(set(_FIELDS) - {"workers"}))
    def test_every_setting_changes_an_output(self, runner, tmp_path, field):
        assert set(self.OTHER) == set(_FIELDS) - {"workers"}
        base = {"regime": "grow-n", "n_values": [2], "k_values": [2],
                "target_points": 8}
        other = {**base, field: self.OTHER[field]}
        out = other.pop("output_dir", "out")
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert self._outputs(runner, tmp_path / "a", base, "out") != \
            self._outputs(runner, tmp_path / "b", other, out)


class TestVerify:
    SMALL = ["verify", "--trials", "2", "--instances", "5",
             "--mc-trials", "50"]

    def test_small_run_passes_and_reports_jsonl(self, runner):
        res = runner.invoke(main, self.SMALL)
        assert res.exit_code == 0
        lines = res.stdout.strip().split("\n")
        assert len(lines) == 17
        assert all("lemma_id" in json.loads(line) for line in lines)
        assert "verification passed" in res.stderr
        assert "verify grow-n suite" + FAMILY_DONE in res.stderr

    def test_out_writes_jsonl_file(self, runner, tmp_path):
        out = tmp_path / "reports.jsonl"
        res = runner.invoke(main, self.SMALL + ["--out", str(out)])
        assert res.exit_code == 0
        assert res.stdout == ""
        assert len(out.read_text().strip().split("\n")) == 17

    def test_z_flags_feed_both_suites(self, runner, monkeypatch):
        res = runner.invoke(main, self.SMALL + ["--z", "0.6,0.2",
                                                "--z", "0.4"])
        assert res.exit_code == 0
        seen = []
        monkeypatch.setattr("rmpoly.cli.run_verification",
                            lambda *a, **kw: seen.append(kw) or
                            VerificationResult(reports=()))
        runner.invoke(main, ["verify", "--z", "0.6,0.2", "--z", "0.4"])
        runner.invoke(main, ["verify"])
        assert seen[0]["z_values"] == (0.6 + 0.2j, 0.4 + 0j)
        assert "z_values" not in seen[1]

    def test_zero_instances_exit_one(self, runner):
        res = runner.invoke(main, ["verify", "--trials", "2", "--instances",
                                   "0", "--mc-trials", "50"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert any(line.startswith("error: ")
                   for line in res.stderr.splitlines())
        assert "instances" in res.stderr
        assert FAMILY_DONE not in res.stderr

    def test_zero_mc_trials_exit_one_before_any_suite(self, runner):
        res = runner.invoke(main, ["verify", "--trials", "2", "--instances",
                                   "5", "--mc-trials", "0"])
        assert res.exit_code == 1
        assert any(line.startswith("error: ")
                   for line in res.stderr.splitlines())
        assert "mc_trials" in res.stderr
        assert FAMILY_DONE not in res.stderr

    def test_bad_degree_grown_shift_exits_before_any_suite(self, runner,
                                                          monkeypatch):
        # |z| = 1 is invalid only for the degree-grown suite, which runs
        # second; it is rejected before the first suite draws a trial.
        entered = []
        monkeypatch.setattr("rmpoly.matpoly._seed_states",
                            lambda *a: entered.append(a))
        res = runner.invoke(main, ["verify", "--z", "0.5", "--z", "1",
                                   "--instances", "5", "--mc-trials", "50"])
        assert res.exit_code == 1
        assert any(line.startswith("error: ")
                   for line in res.stderr.splitlines())
        assert FAMILY_DONE not in res.stderr
        assert entered == []

    def test_third_shift_exits_one_before_any_suite(self, runner,
                                                    monkeypatch):
        # Two suites take two shifts; a third is an error, not ignored.
        entered = []
        monkeypatch.setattr("rmpoly.matpoly._seed_states",
                            lambda *a: entered.append(a))
        res = runner.invoke(main, ["verify", "--z", "0.7,0.3", "--z", "0.5",
                                   "--z", "9", "--instances", "5",
                                   "--mc-trials", "50"])
        assert res.exit_code == 1
        assert "one or two shifts" in res.stderr
        assert FAMILY_DONE not in res.stderr
        assert entered == []

    @pytest.mark.parametrize("shift", ["nan", "inf", "0.5,nan"])
    def test_non_finite_shift_exits_before_any_suite(self, runner,
                                                     monkeypatch, shift):
        entered = []
        monkeypatch.setattr("rmpoly.matpoly._seed_states",
                            lambda *a: entered.append(a))
        res = runner.invoke(main, ["verify", "--z", "0.5", "--z", shift,
                                   "--instances", "5", "--mc-trials", "50"])
        assert res.exit_code == 1
        assert "shift z must be finite" in res.stderr
        assert FAMILY_DONE not in res.stderr
        assert entered == []

    def test_out_in_missing_directory_exits_one_before_any_suite(
            self, runner, monkeypatch, tmp_path):
        entered = []
        monkeypatch.setattr("rmpoly.matpoly._seed_states",
                            lambda *a: entered.append(a))
        res = runner.invoke(main, self.SMALL + [
            "--out", str(tmp_path / "missing" / "r.jsonl")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.stderr
        assert entered == []

    @pytest.mark.parametrize("shift", ["1,2,3", "x", "0.5,"])
    def test_unparsable_shift_is_a_usage_error(self, runner, monkeypatch,
                                               shift):
        entered = []
        monkeypatch.setattr("rmpoly.matpoly._seed_states",
                            lambda *a: entered.append(a))
        res = runner.invoke(main, self.SMALL + ["--z", shift])
        assert res.exit_code == 2
        assert "expected 're' or 're,im'" in res.stderr
        assert entered == []

    def test_zero_shift_exits_one(self, runner):
        res = runner.invoke(main, self.SMALL + ["--z", "0", "--z", "0.5"])
        assert res.exit_code == 1
        assert "nonzero shift" in res.stderr

    def test_status_lines_give_each_min_margin(self, runner, monkeypatch):
        passing = runner.invoke(main, self.SMALL)
        stub = VerificationResult(reports=(
            LemmaReport("stub-ok", (2.0, 3.1e-4)),
            LemmaReport("stub-bad", (0.5, -7.9e-5, 1.0))))
        monkeypatch.setattr("rmpoly.cli.run_verification",
                            lambda *a, **kw: stub)
        failing = runner.invoke(main, ["verify"])
        assert (passing.exit_code, failing.exit_code) == (0, 3)
        for res in (passing, failing):
            lines = dict(line.split(": ", 1)
                         for line in res.stderr.splitlines() if ": " in line)
            for report in map(json.loads, res.stdout.splitlines()):
                status = ("ok" if report["violations"] == 0
                          else f"{report['violations']} VIOLATIONS")
                assert lines[report["lemma_id"]] == \
                    f"{status} (min margin {report['min_margin']:.1e})"
        assert "stub-ok: ok (min margin 3.1e-04)" in failing.stderr
        assert "stub-bad: 1 VIOLATIONS (min margin -7.9e-05)" in \
            failing.stderr

    def test_violations_exit_three(self, runner, monkeypatch):
        stub = VerificationResult(
            reports=(LemmaReport("stub-check", (-1.0,)),))
        monkeypatch.setattr("rmpoly.cli.run_verification",
                            lambda *a, **kw: stub)
        res = runner.invoke(main, ["verify"])
        assert res.exit_code == 3
        assert "FAILED" in res.stderr
        assert "1 VIOLATIONS" in res.stderr


class TestPlot:
    def test_renders_svg(self, runner, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("re,im\n1.0,0.0\n0.0,1.0\n")
        out = tmp_path / "plot.svg"
        res = runner.invoke(main, ["plot", str(src), "--out", str(out)])
        assert res.exit_code == 0
        svg = out.read_text()
        assert svg.count('class="pt"') == 2
        assert svg.count('class="unit-circle"') == 1

    def test_unit_circle_overlay_can_be_disabled(self, runner, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("re,im\n1.0,0.0\n")
        out = tmp_path / "plot.svg"
        res = runner.invoke(main, ["plot", str(src), "--out", str(out),
                                   "--no-unit-circle"])
        assert res.exit_code == 0
        assert "unit-circle" not in out.read_text()

    def test_missing_file_is_a_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["plot", str(tmp_path / "nope.csv"),
                                   "--out", str(tmp_path / "o.svg")])
        assert res.exit_code == 2

    def test_headerless_file_exits_one_without_output(self, runner, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("re,im\n")
        out = tmp_path / "plot.svg"
        res = runner.invoke(main, ["plot", str(src), "--out", str(out)])
        assert res.exit_code == 1
        assert not out.exists()

    def test_point_too_large_to_render_exits_one_without_output(
            self, runner, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("re,im\n1e308,0\n")
        out = tmp_path / "plot.svg"
        res = runner.invoke(main, ["plot", str(src), "--out", str(out)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: ")
        assert "too large" in res.stderr
        assert not out.exists()
