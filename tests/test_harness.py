"""Experiment harness: config validation, persistence, runs, verification."""

import ast
import json
import pickle
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from rmpoly import (DiscMixture, EmpiricalSpectralDistribution,
                    ExperimentConfig, RngStream, ValidationError,
                    distance_report, export_result, read_points_csv,
                    render_scatter, run_experiment, run_grow_k, run_grow_n,
                    run_verification, write_points_csv)
from rmpoly import cli, harness, matpoly, svgplot
from rmpoly.harness import SCHEMA_VERSION


def _small_cfg(**overrides):
    kwargs = dict(regime="grow-n", n_values=(8,), k_values=(2,),
                  target_points=320, seed=11)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(regime="grow-n", n_values=(32,), k_values=(3,))
        assert cfg.target_points == 20000
        assert cfg.seed == 7
        assert cfg.atom_radius == 0.2
        assert cfg.format == "csv"
        assert cfg.workers == 1

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValidationError, match="regime"):
            _small_cfg(regime="grow-both")

    def test_rejects_empty_axes(self):
        with pytest.raises(ValidationError, match="nonempty"):
            _small_cfg(n_values=())

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValidationError, match=">= 1"):
            _small_cfg(n_values=(0,))

    def test_grow_n_needs_single_k(self):
        with pytest.raises(ValidationError, match="exactly one k"):
            _small_cfg(k_values=(2, 3))

    def test_grow_k_needs_single_n(self):
        with pytest.raises(ValidationError, match="exactly one n"):
            _small_cfg(regime="grow-k", n_values=(2, 3))

    @pytest.mark.parametrize("field,value,pattern", [
        ("target_points", 0, "target_points"),
        ("seed", -1, "seed"),
        ("atom_radius", 0.0, "atom_radius"),
        ("atom_radius", 1.5, "atom_radius"),
        ("format", "png", "format"),
        ("workers", 0, "workers"),
    ])
    def test_rejects_bad_scalars(self, field, value, pattern):
        with pytest.raises(ValidationError, match=pattern):
            _small_cfg(**{field: value})

    def test_rejects_infeasible_cell(self):
        # One trial of the (64, 2) cell would already overshoot the target.
        with pytest.raises(ValidationError, match="infeasible"):
            _small_cfg(n_values=(64,), target_points=100)

    def test_rejects_more_trials_than_a_stream_addresses(self):
        # Trial t seeds with t as one 32-bit word: 2**32 trials per cell
        # are the most a stream addresses.
        ExperimentConfig(regime="grow-n", n_values=(1,), k_values=(1,),
                         target_points=2 ** 32)
        with pytest.raises(ValidationError, match="2\\*\\*32"):
            ExperimentConfig(regime="grow-n", n_values=(1,), k_values=(1,),
                             target_points=2 ** 32 + 1)

    @pytest.mark.parametrize("regime,n_values,k_values,pattern", [
        ("grow-k", (2,), (40, 64, 40), "k_values lists 40 twice"),
        ("grow-n", (8, 4, 8, 4), (2,), "n_values lists 8 twice"),
    ])
    def test_rejects_a_repeated_swept_value(self, regime, n_values,
                                            k_values, pattern):
        # A cell's files are named by its (n, k): a repeated value would
        # write a second cell over the first one's points and scatter.
        with pytest.raises(ValidationError, match=pattern):
            ExperimentConfig(regime=regime, n_values=n_values,
                             k_values=k_values, target_points=400)

    def test_from_json_rejects_a_repeated_swept_value(self):
        doc = _small_cfg(n_values=(4, 8)).to_json_dict()
        doc["n_values"] = [4, 8, 4]
        with pytest.raises(ValidationError, match="n_values lists 4 twice"):
            ExperimentConfig.from_json_dict(doc)

    def test_cells_follow_the_swept_axis(self):
        cfg = ExperimentConfig(regime="grow-n", n_values=(16, 32),
                               k_values=(3,))
        assert cfg.cells() == [(16, 3), (32, 3)]
        cfg = ExperimentConfig(regime="grow-k", n_values=(2,),
                               k_values=(8, 32))
        assert cfg.cells() == [(2, 8), (2, 32)]

    def test_trials_keep_pooled_points_near_target(self):
        cfg = _small_cfg()
        assert cfg.trials_for(8, 2) == 20  # ceil(320 / 16)
        assert cfg.trials_for(7, 2) == 23  # ceil(320 / 14), rounds up

    def test_json_round_trip(self):
        cfg = ExperimentConfig(regime="grow-k", n_values=(2,),
                               k_values=(8, 16), seed=5, format="svg",
                               workers=2)
        doc = cfg.to_json_dict()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert ExperimentConfig.from_json_dict(doc) == cfg

    def test_json_round_trip_survives_serialization(self):
        cfg = _small_cfg()
        doc = json.loads(json.dumps(cfg.to_json_dict()))
        assert ExperimentConfig.from_json_dict(doc) == cfg

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValidationError, match="JSON object"):
            ExperimentConfig.from_json_dict(["grow-n"])

    def test_from_json_rejects_unknown_fields(self):
        doc = _small_cfg().to_json_dict()
        doc["n_max"] = 12
        with pytest.raises(ValidationError, match="n_max"):
            ExperimentConfig.from_json_dict(doc)

    def test_from_json_rejects_other_schema_versions(self):
        doc = _small_cfg().to_json_dict()
        doc["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema_version"):
            ExperimentConfig.from_json_dict(doc)

    def test_from_json_rejects_missing_required_fields(self):
        with pytest.raises(ValidationError, match="missing"):
            ExperimentConfig.from_json_dict({"regime": "grow-n"})

    def test_overrides_win_over_document(self):
        doc = _small_cfg().to_json_dict()
        cfg = ExperimentConfig.from_json_dict(doc, seed=123, workers=2)
        assert cfg.seed == 123
        assert cfg.workers == 2

    def test_none_overrides_are_skipped(self):
        doc = _small_cfg(seed=11).to_json_dict()
        cfg = ExperimentConfig.from_json_dict(doc, seed=None)
        assert cfg.seed == 11

    @pytest.mark.parametrize("field,value", [
        ("n_values", "16"),
        ("n_values", [16.9]),
        ("k_values", [True]),
        ("workers", True),
        ("seed", 1.5),
        ("target_points", 20000.0),
        ("atom_radius", "0.2"),
        ("atom_radius", False),
        ("regime", 1),
        ("format", None),
        ("schema_version", True),
    ])
    def test_from_json_rejects_mistyped_fields(self, field, value):
        doc = _small_cfg().to_json_dict()
        doc[field] = value
        with pytest.raises(ValidationError, match=f"'{field}' must be"):
            ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("field,value", [
        ("n_values", [16.9]),
        ("k_values", ["3"]),
        ("n_values", "16"),
        ("seed", 1.5),
        ("workers", True),
        ("atom_radius", "0.2"),
        ("format", 3),
        ("seed", np.True_),
        ("atom_radius", True),
    ])
    def test_constructor_rejects_mistyped_fields(self, field, value):
        with pytest.raises(ValidationError, match=f"'{field}' must be"):
            _small_cfg(**{field: value})

    def test_numpy_integers_become_python_ints(self):
        cfg = _small_cfg(n_values=[np.int64(8)], k_values=(np.int32(2),),
                         target_points=np.int64(320), seed=np.uint8(11),
                         workers=np.int16(1))
        twin = _small_cfg()
        assert cfg == twin
        assert all(type(v) is int for v in (
            *cfg.n_values, *cfg.k_values, cfg.target_points, cfg.seed,
            cfg.workers))
        assert json.dumps(run_grow_n(cfg).to_json_dict()) == \
            json.dumps(run_grow_n(twin).to_json_dict())

    def test_numpy_reals_become_python_numbers(self):
        cfg = _small_cfg(atom_radius=np.float32(0.5))
        twin = _small_cfg(atom_radius=0.5)
        assert cfg == twin
        assert type(cfg.atom_radius) is float
        assert json.dumps(cfg.to_json_dict()) == \
            json.dumps(twin.to_json_dict())
        assert _small_cfg(atom_radius=np.int64(1)) == _small_cfg(atom_radius=1)

    def test_readme_schema_is_the_config_schema(self):
        # The documented config document loads, and lists every field the
        # summary echoes: the README cannot drift from the code.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Experiment config", 1)[1]
        doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        assert ExperimentConfig.from_json_dict(doc).to_json_dict() == doc


class TestPointsCsv:
    def test_round_trip_is_exact(self, tmp_path):
        pts = np.array([1 / 3 + 1e-17j, -0.0 - 2.5j, 1e300 + 0j,
                        7.123456789012345e-08 + 0.1j])
        path = tmp_path / "pts.csv"
        write_points_csv(pts, path)
        back = read_points_csv(path)
        assert np.array_equal(back, pts)

    def test_header_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        write_points_csv([1.0 + 2.0j], path)
        assert path.read_text().splitlines()[0] == "re,im"

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            read_points_csv(tmp_path / "nope.csv")

    def test_wrong_header_reports_line_one(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValidationError, match=r":1:"):
            read_points_csv(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("re,im\n1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError, match=r":3:"):
            read_points_csv(path)

    def test_one_field_per_line_reports_line(self, tmp_path):
        # One field on every line parses in bulk as a single column.
        path = tmp_path / "pts.csv"
        path.write_text("re,im\n1.0\n2.0\n")
        with pytest.raises(ValidationError, match=r":2:"):
            read_points_csv(path)

    def test_non_numeric_field_reports_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("re,im\nfoo,2.0\n")
        with pytest.raises(ValidationError, match=r":2:"):
            read_points_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="re,im"):
            read_points_csv(path)

    def test_undecodable_bytes_report_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_bytes(b"re,im\n1.0,2.0\n\xff\xfe,1.0\n")
        with pytest.raises(ValidationError, match=r":3:"):
            read_points_csv(path)

    def test_bad_line_past_first_block_reports_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("re,im\n" + "0.5,-0.25\n" * 4999 + "0.5,foo\n"
                        + "0.5,-0.25\n" * 10)
        with pytest.raises(ValidationError, match=r":5001:"):
            read_points_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("re,im\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on empty input
            with pytest.raises(ValidationError, match="no points"):
                read_points_csv(path)

    def test_blank_body_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("re,im\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="no points"):
                read_points_csv(path)


def _reference_csv(points) -> str:
    # The per-point formula write_points_csv used before bulk formatting.
    pts = np.asarray(points, dtype=np.complex128).ravel()
    lines = ["re,im"]
    lines.extend(f"{float(z.real)!r},{float(z.imag)!r}" for z in pts)
    return "\n".join(lines) + "\n"


def _svg_text(tmp_path, points, **kwargs) -> str:
    """The markup ``render_scatter`` writes for ``points``."""
    out = tmp_path / "plot.svg"
    render_scatter(points, out, **kwargs)
    return out.read_text()


def _reference_svg_points(points) -> list:
    # The per-point formulas of the scatter before bulk formatting.
    pts = np.asarray(points, dtype=np.complex128).ravel()
    extent = max(float(np.abs(pts.real).max()),
                 float(np.abs(pts.imag).max()))
    half = max(1.1, 1.02 * extent)
    span = svgplot._SIZE - 2.0 * svgplot._MARGIN

    def sx(x):
        return svgplot._MARGIN + (x + half) / (2.0 * half) * span

    def sy(y):
        return svgplot._MARGIN + (half - y) / (2.0 * half) * span

    return [f'<circle {svgplot._POINT_STYLE} cx="{svgplot._fmt(sx(z.real))}" '
            f'cy="{svgplot._fmt(sy(z.imag))}"/>' for z in pts]


_EDGE_POINTS = [complex(-0.0, 5e-324), complex(1e300, 0.1 + 0.2),
                complex(0.1 + 0.2, -0.0), complex(-5e-324, -1e300),
                complex(-0.0, -0.0), complex(1.2345665, -2.0000005)]


def _points_at_count(count, extra=()):
    """``count`` points in the unit disc, starting with ``extra``.  Then
    come points within 4 ulps of where an SVG coordinate is a tie at the
    sixth decimal, where a one-ulp change in its arithmetic shows."""
    span = svgplot._SIZE - 2.0 * svgplot._MARGIN
    half = 1.1  # the canvas half-width for points in the unit disc
    ties = np.array([(100.0 + j * 1e-6 + 5e-7) / span * 2.0 * half - half
                     for j in range(16)])
    near = (ties[:, None] + np.arange(-4, 5) * np.spacing(ties)[:, None])
    g = np.random.default_rng(37)
    disc = np.sqrt(g.uniform(size=count)) * np.exp(
        2j * np.pi * g.uniform(size=count))
    pts = list(extra) + [complex(x, x) for x in near.ravel()] + list(disc)
    return np.array(pts[:count], dtype=np.complex128)


_COUNTS = [1, svgplot._POINT_BLOCK - 1, svgplot._POINT_BLOCK,
           svgplot._POINT_BLOCK + 1, 2 * svgplot._POINT_BLOCK]


class TestBulkFormatting:
    @pytest.mark.parametrize("count", _COUNTS)
    def test_csv_matches_per_point_formula(self, tmp_path, count):
        pts = _points_at_count(count, _EDGE_POINTS)
        path = tmp_path / "pts.csv"
        write_points_csv(pts, path)
        assert path.read_text() == _reference_csv(pts)
        back = read_points_csv(path)
        assert back.view(np.uint64).tolist() == pts.view(np.uint64).tolist()

    @pytest.mark.parametrize("count", _COUNTS)
    def test_esd_stdout_matches_per_point_formula(self, monkeypatch, count):
        pts = _points_at_count(count, _EDGE_POINTS)
        monkeypatch.setattr(cli, "pooled_esd",
                            lambda *_args: SimpleNamespace(points=pts))
        res = CliRunner().invoke(cli.main, ["esd", "--n", "1", "--k", "1"])
        assert res.exit_code == 0
        assert res.stdout == _reference_csv(pts)

    @pytest.mark.parametrize("count", _COUNTS)
    def test_svg_points_match_per_point_formula(self, tmp_path, count):
        pts = _points_at_count(count)
        lines = _svg_text(tmp_path, pts).split("\n")
        assert lines[-2:] == ["</svg>", ""]
        assert lines[-2 - count:-2] == _reference_svg_points(pts)
        assert sum('class="pt"' in line for line in lines) == count

    def test_svg_edge_values_match_per_point_formula(self, tmp_path):
        pts = np.array(_EDGE_POINTS)
        lines = _svg_text(tmp_path, pts).split("\n")
        assert lines[-2 - pts.size:-2] == _reference_svg_points(pts)


class TestRenderScatter:
    def test_four_points_four_glyphs_one_circle(self, tmp_path):
        out = tmp_path / "plot.svg"
        render_scatter([1 + 0j, -1 + 0j, 1j, -1j], out)
        svg = out.read_text()
        assert svg.count('class="pt"') == 4
        assert svg.count('class="unit-circle"') == 1

    def test_rendering_is_byte_deterministic(self, tmp_path):
        pts = np.array([0.5 + 0.25j, -0.125 + 0j])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_scatter(pts, a)
        render_scatter(pts, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_input_writes_nothing(self, tmp_path):
        out = tmp_path / "plot.svg"
        with pytest.raises(ValidationError):
            render_scatter(np.array([], dtype=np.complex128), out)
        assert not out.exists()

    def test_coordinates_pinned_to_six_decimals(self, tmp_path):
        out = tmp_path / "plot.svg"
        render_scatter([0.1 + 0.1j], out)
        for token in out.read_text().split('"'):
            try:
                float(token)
            except ValueError:
                continue
            if "." in token:
                assert len(token.split(".")[1]) == 6

    def test_circle_overlay_is_optional(self, tmp_path):
        svg = _svg_text(tmp_path, [1 + 0j], overlay_unit_circle=False)
        assert 'unit-circle' not in svg

    def test_nonfinite_points_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="NaN"):
            _svg_text(tmp_path, [np.nan + 0j])

    @pytest.mark.parametrize("z", [1e308 + 0j, -9e307j, complex(1, 1.7e308)])
    def test_points_past_the_canvas_range_rejected(self, tmp_path, z):
        # Twice the canvas half-width would overflow to inf, and every
        # coordinate to NaN.
        with pytest.raises(ValidationError, match="too large"):
            _svg_text(tmp_path, [0j, z])

    def test_largest_renderable_points_have_finite_coordinates(self,
                                                               tmp_path):
        svg = _svg_text(tmp_path, [8.8e307 + 0j, -8.8e307j])
        assert "nan" not in svg and "inf" not in svg


class TestStreamedPointFiles:
    """At 2e5 points, writing or reading a points file, and rendering the
    points, hold far less memory than the text of the file written or
    read."""

    COUNT = 200_000

    @pytest.fixture(scope="class")
    def points(self):
        g = np.random.default_rng(5)
        return g.standard_normal(2 * self.COUNT).view(np.complex128)

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory, points):
        path = tmp_path_factory.mktemp("stream") / "pts.csv"
        write_points_csv(points, path)
        return path

    def test_write_peak_below_quarter_of_csv(self, tmp_path, points,
                                             csv_path, traced_peak):
        peak = traced_peak(write_points_csv, points, tmp_path / "pts.csv")
        assert peak < csv_path.stat().st_size / 4

    def test_read_peak_below_csv(self, csv_path, traced_peak):
        peak = traced_peak(read_points_csv, csv_path)
        assert peak < csv_path.stat().st_size

    def test_render_peak_below_half_of_svg(self, tmp_path, points,
                                           traced_peak):
        out = tmp_path / "plot.svg"
        peak = traced_peak(render_scatter, points, out)
        assert peak < out.stat().st_size / 2


class TestRunGrowN:
    def test_rejects_wrong_regime(self):
        cfg = ExperimentConfig(regime="grow-k", n_values=(2,), k_values=(8,),
                               target_points=64)
        with pytest.raises(ValidationError, match="grow-n"):
            run_grow_n(cfg)

    def test_point_count_is_exact(self):
        res = run_grow_n(_small_cfg())
        cell = res.cells[0]
        assert cell.trials == 20
        assert cell.report is not None
        esd_points = cell.trials * 8 * 2
        assert esd_points == 320

    def test_circle_law_anchor_cell(self):
        # k = 1 reduces to the classical circular law.  At n = 32 the exact
        # expected radial CDF still deviates from the disc law by 0.0703
        # (edge effects), so the KS sits just above that floor while the
        # binned discrepancy -- which spreads the edge strip over cells --
        # is already well under 0.05.
        cfg = ExperimentConfig(regime="grow-n", n_values=(32,), k_values=(1,))
        cell = run_grow_n(cfg).cells[0]
        assert cell.trials == 625
        assert cell.report.radial_ks <= 0.09
        assert cell.report.discrepancy <= 0.05
        assert cell.report.angular_ks <= 0.02

    def test_atom_mass_sweep_reported_and_monotone(self):
        res = run_grow_n(_small_cfg())
        extras = res.cells[0].extras
        assert set(extras) == {"atom_mass_r0.1", "atom_mass_r0.2",
                               "atom_mass_r0.3"}
        assert (extras["atom_mass_r0.1"] <= extras["atom_mass_r0.2"]
                <= extras["atom_mass_r0.3"])

    def test_reruns_are_identical(self):
        cfg = _small_cfg()
        a = run_grow_n(cfg)
        b = run_grow_n(cfg)
        assert a.cells[0].report == b.cells[0].report
        assert a.cells[0].extras == b.cells[0].extras

    def test_run_experiment_dispatches_on_regime(self):
        cfg = _small_cfg()
        assert run_experiment(cfg).cells[0].report == \
            run_grow_n(cfg).cells[0].report

    def test_one_stream_object_per_cell(self, monkeypatch):
        # small-many's shapes, each over more than one chunk of trials:
        # trial streams are seeded per chunk, not built one object each.
        cfg = ExperimentConfig(regime="grow-n", n_values=(4, 8, 16),
                               k_values=(2,), target_points=5000)
        chunk = {n: matpoly._CHUNK_ENTRIES // (2 * n) ** 2
                 for n in cfg.n_values}
        assert all(cfg.trials_for(n, 2) > chunk[n] for n in cfg.n_values)
        built = []
        post_init = RngStream.__post_init__
        monkeypatch.setattr(RngStream, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        run_experiment(cfg)
        # The run's root stream, then one per cell.
        assert len(built) <= len(cfg.cells()) + 1


class TestPooledEsd:
    def test_unknown_regime_rejected(self):
        with pytest.raises(ValidationError, match="regime must be one of"):
            harness.pooled_esd("grow-both", 2, 2, RngStream(1), 1)

    def test_takes_a_cell_stream_not_a_list_of_streams(self):
        with pytest.raises(ValidationError, match="RngStream"):
            harness.pooled_esd("grow-n", 2, 2, [RngStream(1)], 1)

    def test_trials_past_32_bits_rejected_before_any_draw(self, monkeypatch):
        seeded = []
        monkeypatch.setattr(matpoly, "_seed_states",
                            lambda *a: seeded.append(a))
        with pytest.raises(ValidationError, match="2\\*\\*32"):
            harness.pooled_esd("grow-n", 1, 1, RngStream(1), 2 ** 32 + 1)
        assert seeded == []

    @pytest.mark.parametrize("regime,n,k,trials", [
        ("grow-n", 8, 2, 300),  # dense: two full chunks and a partial one
        ("grow-k", 2, 40, 7),   # Ehrlich-Aberth: chunks of 5 and 2 trials
    ])
    def test_tasks_survive_a_pickling_mapper(self, regime, n, k, trials):
        # A process pool pickles each task and its argument; a mapper that
        # does the same, in this process, must give the bytes of ``map``.
        def pickling_map(fn, items):
            for item in items:
                yield pickle.loads(pickle.dumps(fn))(
                    pickle.loads(pickle.dumps(item)))
        rng = RngStream(13).child(2)
        assert len(matpoly._chunks(trials, (k * n) ** 2)) >= 2
        plain = harness.pooled_esd(regime, n, k, rng, trials)
        pickled = harness.pooled_esd(regime, n, k, rng, trials, pickling_map)
        assert pickled.points.tobytes() == plain.points.tobytes()
        assert pickled.trials == plain.trials == trials


class TestRunGrowK:
    def test_rejects_wrong_regime(self):
        with pytest.raises(ValidationError, match="grow-k"):
            run_grow_k(_small_cfg())

    def test_scalar_cells_reproduce_root_clustering(self):
        # n = 1 is the classical scalar random polynomial: roots cluster at
        # the unit circle with near-uniform angles as the degree grows.
        cfg = ExperimentConfig(regime="grow-k", n_values=(1,), k_values=(64,),
                               target_points=1280)
        cell = run_grow_k(cfg).cells[0]
        assert cell.trials == 20
        assert cell.extras["annulus_mass_hw0.1"] >= 0.8
        assert cell.report.angular_ks <= 0.05

    def test_annulus_mass_grows_with_degree(self):
        cfg = ExperimentConfig(regime="grow-k", n_values=(2,),
                               k_values=(8, 64), target_points=1024)
        res = run_grow_k(cfg)
        masses = [c.extras["annulus_mass_hw0.1"] for c in res.cells]
        assert masses[0] < masses[1]


class TestPersistenceAndExport:
    def test_points_file_name_embeds_cell_and_seed(self, tmp_path):
        cfg = _small_cfg(output_dir=str(tmp_path))
        res = run_grow_n(cfg)
        assert res.cells[0].points_file == "points_grow-n_n8_k2_seed11.csv"
        # A csv run writes the points file and nothing else.
        assert [p.name for p in tmp_path.iterdir()] == \
            [res.cells[0].points_file]

    def test_persisted_points_round_trip_as_multiset(self, tmp_path):
        cfg = _small_cfg(output_dir=str(tmp_path))
        res = run_grow_n(cfg)
        back = read_points_csv(tmp_path / res.cells[0].points_file)
        assert back.size == 320

    def test_metrics_recomputable_from_persisted_points(self, tmp_path):
        cfg = _small_cfg(output_dir=str(tmp_path))
        res = run_grow_n(cfg)
        cell = res.cells[0]
        pts = read_points_csv(tmp_path / cell.points_file)
        esd = EmpiricalSpectralDistribution(points=pts, scale=8 ** -0.5,
                                            n=8, k=2, trials=cell.trials)
        again = distance_report(esd, DiscMixture(2),
                                atom_radius=cfg.atom_radius)
        assert again.radial_ks == pytest.approx(cell.report.radial_ks,
                                                abs=1e-12)
        assert again.angular_ks == pytest.approx(cell.report.angular_ks,
                                                 abs=1e-12)
        assert again.discrepancy == pytest.approx(cell.report.discrepancy,
                                                  abs=1e-12)

    def test_rerun_writes_identical_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = _small_cfg(output_dir=str(out))
            export_result(run_grow_n(cfg))
        name = "points_grow-n_n8_k2_seed11.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        summary = "result_grow-n_seed11.json"
        assert (out_a / summary).read_bytes() == (out_b / summary).read_bytes()

    def test_worker_pool_matches_sequential_bytes(self, tmp_path):
        # 300 trials at n=8, k=2: two full chunks of trials and a partial one.
        docs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            cfg = _small_cfg(output_dir=str(out), target_points=4800,
                             workers=workers)
            (summary,) = export_result(run_grow_n(cfg))
            docs.append((out, summary.read_bytes()))
        chunk = matpoly._CHUNK_ENTRIES // 16 ** 2
        assert 2 * chunk < cfg.trials_for(8, 2) < 3 * chunk
        name = "points_grow-n_n8_k2_seed11.csv"
        assert (docs[0][0] / name).read_bytes() == \
            (docs[1][0] / name).read_bytes()
        assert docs[0][1] == docs[1][1]

    @pytest.mark.parametrize("cpus,started", [(2, 2), (8, 8), (None, None)])
    def test_worker_count_is_capped_at_the_cpu_count(
            self, monkeypatch, cpus, started):
        # A million workers start at most os.cpu_count() processes, and a
        # pool of one is no pool.  The recording pool maps serially and
        # starts no process.
        import concurrent.futures
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        wide = run_grow_n(_small_cfg(workers=10 ** 6))
        assert sizes == ([] if started is None else [started])
        assert wide.cells == run_grow_n(_small_cfg()).cells

    def test_structured_solver_cell_matches_across_worker_counts(
            self, tmp_path):
        # n=2, k=64 is solved by Ehrlich-Aberth iteration, not dense QR.
        docs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            cfg = ExperimentConfig(regime="grow-k", n_values=(2,),
                                   k_values=(64,), target_points=512,
                                   seed=11, output_dir=str(out),
                                   workers=workers)
            (summary,) = export_result(run_grow_k(cfg))
            docs.append((out, summary.read_bytes()))
        name = "points_grow-k_n2_k64_seed11.csv"
        assert (docs[0][0] / name).read_bytes() == \
            (docs[1][0] / name).read_bytes()
        assert docs[0][1] == docs[1][1]

    def test_export_json_summary_schema(self, tmp_path):
        cfg = _small_cfg(output_dir=str(tmp_path))
        written = export_result(run_grow_n(cfg))
        assert [p.name for p in written] == ["result_grow-n_seed11.json"]
        doc = json.loads(written[0].read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["regime"] == "grow-n"
        assert doc["seed"] == 11
        assert "workers" not in doc["config"]
        assert ExperimentConfig.from_json_dict(
            doc["config"], output_dir=str(tmp_path)) == cfg
        (cell,) = doc["cells"]
        assert cell["n"] == 8 and cell["k"] == 2 and cell["trials"] == 20
        assert set(cell["report"]) == {"radial_ks", "angular_ks",
                                       "discrepancy", "atom_mass_observed",
                                       "atom_radius"}
        assert set(cell["extras"]) == {"atom_mass_r0.1", "atom_mass_r0.2",
                                       "atom_mass_r0.3"}

    def test_export_svg_lists_the_summary_then_each_scatter(self, tmp_path):
        cfg = _small_cfg(output_dir=str(tmp_path), format="svg")
        res = run_grow_n(cfg)
        written = export_result(res)
        assert [p.name for p in written] == [
            "result_grow-n_seed11.json", "scatter_grow-n_n8_k2_seed11.svg"]
        svg = (tmp_path / "scatter_grow-n_n8_k2_seed11.svg").read_text()
        assert svg.count('class="pt"') == 320

    def test_run_renders_each_cell_as_its_points_file_renders(self,
                                                              tmp_path):
        # The run writes the scatters itself, without export_result; each
        # matches what rendering the cell's persisted points gives.
        cfg = _small_cfg(output_dir=str(tmp_path / "run"), format="svg",
                         n_values=(4, 8))
        res = run_experiment(cfg)
        stems = [f"grow-n_n{n}_k2_seed11" for n in (4, 8)]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == \
            sorted(f"{kind}_{stem}.{ext}" for stem in stems
                   for kind, ext in (("points", "csv"), ("scatter", "svg")))
        for cell, stem in zip(res.cells, stems):
            assert cell.points_file == f"points_{stem}.csv"
            oracle = tmp_path / f"oracle_{stem}.svg"
            points = read_points_csv(tmp_path / "run" / cell.points_file)
            render_scatter(points, oracle)
            assert (tmp_path / "run" / f"scatter_{stem}.svg").read_bytes() \
                == oracle.read_bytes()

    def test_export_svg_requires_persisted_points(self):
        res = run_grow_n(_small_cfg(format="svg"))  # nothing persisted
        with pytest.raises(ValidationError, match="output_dir"):
            export_result(res)

    def test_export_rejects_unknown_format(self, tmp_path):
        # The config is the one format check; json wrote what csv writes.
        for fmt in ("png", "json"):
            with pytest.raises(ValidationError, match="format"):
                _small_cfg(output_dir=str(tmp_path), format=fmt)


@pytest.fixture(scope="module")
def small_run():
    cfg = ExperimentConfig(regime="grow-n", n_values=(8,), k_values=(2,),
                           target_points=320)
    return run_verification(cfg, suite_trials=5,
                            deterministic_instances=20, mc_trials=2000)


def _benchmark_verify_ids() -> set:
    """``VERIFY_IDS`` of the benchmark's ``perfbench/run.py``, read from its
    source: the one list of verify family ids."""
    source = Path(__file__).parents[1] / "perfbench" / "run.py"
    [value] = [node.value for node in ast.parse(source.read_text()).body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets]
               == ["VERIFY_IDS"]]
    return set(ast.literal_eval(value))


class TestRunVerification:
    #: All lemma/bound identifiers one full verification run must cover.
    EXPECTED_IDS = _benchmark_verify_ids()

    def test_covers_every_lemma_id(self, small_run):
        ids = [r.lemma_id for r in small_run.reports]
        assert len(ids) == 17  # pinv-tail-domination appears for both R_D
        assert set(ids) == self.EXPECTED_IDS

    def test_small_run_passes(self, small_run):
        assert small_run.passed
        assert all(r.violations == 0 for r in small_run.reports)

    def test_jsonl_has_one_line_per_report(self, small_run):
        lines = small_run.to_jsonl().strip().split("\n")
        assert len(lines) == 17
        docs = [json.loads(line) for line in lines]
        assert {d["lemma_id"] for d in docs} == self.EXPECTED_IDS
        for d in docs:
            assert d["violations"] == 0

    def test_grow_n_shift_must_be_nonzero(self):
        cfg = ExperimentConfig(regime="grow-n", n_values=(8,), k_values=(2,),
                               target_points=320)
        with pytest.raises(ValidationError, match="nonzero shift"):
            run_verification(cfg, suite_trials=2, deterministic_instances=2,
                             mc_trials=10, z_values=(0j, 0.5 + 0j))

    def test_grow_k_shift_must_avoid_unit_circle(self):
        cfg = ExperimentConfig(regime="grow-n", n_values=(8,), k_values=(2,),
                               target_points=320)
        with pytest.raises(ValidationError, match="0 and 1"):
            run_verification(cfg, suite_trials=2, deterministic_instances=2,
                             mc_trials=10, z_values=(0.7 + 0.3j, 1.0 + 0j))

    @pytest.mark.parametrize("z_values", [(), 0.5, ("0.5",), (0.5, True),
                                          (0.7 + 0.3j, 0.3, 9.0)],
                             ids=["empty", "scalar", "str", "bool-second",
                                  "three"])
    def test_malformed_shifts_rejected_before_any_suite(self, z_values,
                                                        monkeypatch):
        cfg = ExperimentConfig(regime="grow-n", n_values=(8,), k_values=(2,),
                               target_points=320)
        monkeypatch.setattr(harness, "lemma_suite_grow_n", None)
        with pytest.raises(ValidationError, match="z"):
            run_verification(cfg, suite_trials=2, deterministic_instances=2,
                             mc_trials=10, z_values=z_values)

    def test_logs_each_family_time_outside_the_jsonl(self, caplog):
        cfg = ExperimentConfig(regime="grow-n", n_values=(8,), k_values=(2,),
                               target_points=320)
        with caplog.at_level("INFO", logger="rmpoly.harness"):
            res = run_verification(cfg, suite_trials=2,
                                   deterministic_instances=2, mc_trials=10)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "rmpoly.harness"]
        labels = [line.removeprefix("verify ").rsplit(" done in ", 1)[0]
                  for line in lines]
        assert labels == [
            "grow-n suite", "grow-k suite", "lowrank-interlacing",
            "mirsky-sv-perturbation", "submatrix-interlacing",
            "woodbury-identity", "circulant-shift-sv-range",
            "pinv-tail-domination R_D=0", "pinv-tail-domination ||R_D||=5",
            "unit-vector-projection-beta", "gaussian-norm-tail"]
        assert all(line.startswith("verify ") and line.endswith("s")
                   for line in lines)
        for doc in map(json.loads, res.to_jsonl().splitlines()):
            assert set(doc) == {"lemma_id", "trials", "violations",
                                "min_margin", "fitted_exponent",
                                "per_trial_margins"}

    def test_default_shifts_are_the_documented_pair(self, small_run):
        cfg = ExperimentConfig(regime="grow-n", n_values=(8,), k_values=(2,),
                               target_points=320)
        explicit = run_verification(cfg, suite_trials=5,
                                    deterministic_instances=20,
                                    mc_trials=2000,
                                    z_values=[0.7 + 0.3j, 0.5])
        assert explicit.to_jsonl() == small_run.to_jsonl()
