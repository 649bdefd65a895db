"""Experiment orchestration: configs, convergence runs, verification runs.

Two experiment regimes mirror the two limit statements:

* ``grow-n``: degree k fixed, dimension n swept; eigenvalues scaled by
  ``n**-0.5`` and compared against ``DiscMixture(k)``;
* ``grow-k``: dimension n fixed, degree k swept; eigenvalues unscaled and
  compared against ``UnitCircle``.

Cells keep the pooled point count roughly constant: a cell at (n, k) runs
``ceil(target_points / (k n))`` trials.  A run is seeded by its config
alone: every trial draws from its own addressable RNG stream, keyed by
(cell index, trial index) under ``cfg.seed``.  Trials are
solved in chunks, each one stacked eigensolve (``trial_eigenvalues``), and
a chunk is also the unit handed to a worker pool; since streams stay per
trial, results are identical whether chunks run sequentially or on a pool,
and two runs with the same config and seed produce byte-identical CSV/JSON
outputs at any worker count, for a fixed BLAS build and BLAS thread count.
Another thread count may round differently: the dense eigensolves and the
matrix products of the Ehrlich-Aberth evaluation both go through BLAS.
Progress and timing go to the ``rmpoly.harness`` logger (stderr in the
CLI), never into result files.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import operator
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .esd import (DiscMixture, EmpiricalSpectralDistribution, UnitCircle,
                  atom_mass, distance_report, merge)
from .matpoly import (RngStream, _chunks, _count, _is_int, _is_number,
                      _sizes, _trial_draws, _trial_range,
                      trial_eigenvalues)
from .svgplot import _svg_chunks, _text_blocks
from .verify import (LemmaCheckConfig, _grow_k_preconditions,
                     _grow_n_preconditions, beta_projection_check,
                     check_pinv_tail_domination, gaussian_norm_tail,
                     lemma_suite_grow_k, lemma_suite_grow_n,
                     sweep_circulant_shift_bounds, sweep_lowrank_interlacing,
                     sweep_mirsky, sweep_submatrix_interlacing,
                     sweep_woodbury_identity, LemmaReport)

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentConfig",
    "CellResult",
    "ExperimentResult",
    "VerificationResult",
    "run_grow_n",
    "run_grow_k",
    "run_experiment",
    "run_verification",
    "export_result",
    "pooled_esd",
    "write_points_csv",
    "read_points_csv",
    "render_scatter",
]

SCHEMA_VERSION = 1

logger = logging.getLogger("rmpoly.harness")

_REGIMES = ("grow-n", "grow-k")
_FORMATS = ("csv", "svg")

#: Atom-mass proxy radii reported alongside the headline radius.
ATOM_RADIUS_SWEEP = (0.1, 0.2, 0.3)

#: Half-width of the near-unit-circle annulus reported in grow-k cells.
ANNULUS_HALFWIDTH = 0.1


def _is_seq_of(check):
    return lambda v: isinstance(v, (list, tuple)) and all(map(check, v))


#: Config fields: (expected type in words, type check).  The constructor
#: checks every field against it; ``from_json_dict`` also checks a config
#: document's own fields before command-line overrides replace them.
_FIELDS = {
    "regime": ("a string", lambda v: isinstance(v, str)),
    "n_values": ("a list of integers", _is_seq_of(_is_int)),
    "k_values": ("a list of integers", _is_seq_of(_is_int)),
    "target_points": ("an integer", _is_int),
    "seed": ("an integer", _is_int),
    "atom_radius": ("a number", _is_number),
    "output_dir": ("a string or null",
                   lambda v: v is None or isinstance(v, str)),
    "format": ("a string", lambda v: isinstance(v, str)),
    "workers": ("an integer", _is_int),
}


def _check_types(values: dict) -> None:
    for name, value in values.items():
        expected, check = _FIELDS[name]
        if not check(value):
            raise ValidationError(
                f"config field {name!r} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    The swept axis must carry the multiple values: ``grow-n`` needs exactly
    one k and at least one n, ``grow-k`` the reverse.  With ``output_dir``
    set, the run writes each cell's points there, plus its scatter when
    ``format`` is ``svg``, and ``export_result`` writes the summary.  Every
    field but ``workers`` changes what a run writes; ``workers`` is an upper
    bound, and a run starts at most ``os.cpu_count()`` worker processes.
    Only an override, never a config document, sets ``output_dir``.
    """

    regime: str
    n_values: tuple
    k_values: tuple
    target_points: int = 20000
    seed: int = 7
    atom_radius: float = 0.2
    output_dir: str | None = None
    format: str = "csv"
    workers: int = 1

    def __post_init__(self):
        _check_types({name: getattr(self, name) for name in _FIELDS})
        # Integers are stored as Python ints, so that the config serializes.
        for name in ("target_points", "seed", "workers"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        for name in ("n_values", "k_values"):
            object.__setattr__(self, name,
                               tuple(map(operator.index, getattr(self, name))))
        # The atom radius likewise, as a Python float.
        object.__setattr__(self, "atom_radius", float(self.atom_radius))
        if self.regime not in _REGIMES:
            raise ValidationError(
                f"regime must be one of {_REGIMES}, got {self.regime!r}")
        if not self.n_values or not self.k_values:
            raise ValidationError("n_values and k_values must be nonempty")
        if any(v < 1 for v in self.n_values + self.k_values):
            raise ValidationError("all sizes must be >= 1")
        if self.regime == "grow-n" and len(self.k_values) != 1:
            raise ValidationError(
                "grow-n sweeps n at a single fixed k; pass exactly one k")
        if self.regime == "grow-k" and len(self.n_values) != 1:
            raise ValidationError(
                "grow-k sweeps k at a single fixed n; pass exactly one n")
        if self.target_points < 1:
            raise ValidationError("target_points must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if not 0.0 < self.atom_radius <= 1.0:
            raise ValidationError(
                f"atom_radius must lie in (0, 1], got {self.atom_radius}")
        if self.format not in _FORMATS:
            raise ValidationError(
                f"format must be one of {_FORMATS}, got {self.format!r}")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        for n, k in self.cells():
            if n * k > self.target_points:
                raise ValidationError(
                    f"infeasible cell (n={n}, k={k}): one trial already "
                    f"yields {n * k} points, more than target_points="
                    f"{self.target_points}")
            _trial_range(0, self.trials_for(n, k))

    def cells(self) -> list:
        # The fixed axis has one value, so the product follows the swept one.
        return [(n, k) for n in self.n_values for k in self.k_values]

    def trials_for(self, n: int, k: int) -> int:
        return max(1, math.ceil(self.target_points / (k * n)))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "regime": self.regime,
            "n_values": list(self.n_values),
            "k_values": list(self.k_values),
            "target_points": self.target_points,
            "seed": self.seed,
            "atom_radius": self.atom_radius,
            "format": self.format,
            "workers": self.workers,
        }

    @classmethod
    def from_json_dict(cls, doc: dict, **overrides) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValidationError("experiment config must be a JSON object")
        # ``--out`` would silently override a document's ``output_dir``.
        unknown = set(doc) - ({*_FIELDS, "schema_version"} - {"output_dir"})
        if unknown:
            raise ValidationError(
                f"unknown config fields: {sorted(unknown)}")
        version = doc.get("schema_version", SCHEMA_VERSION)
        if not _is_int(version):
            raise ValidationError("config field 'schema_version' must be an "
                                  f"integer, got {version!r}")
        if version != SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported config schema_version {version!r} "
                f"(this build reads {SCHEMA_VERSION})")
        kwargs = {k: v for k, v in doc.items() if k != "schema_version"}
        _check_types(kwargs)
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
        missing = {"regime", "n_values", "k_values"} - set(kwargs)
        if missing:
            raise ValidationError(f"config missing fields: {sorted(missing)}")
        return cls(**kwargs)


@dataclass(frozen=True)
class CellResult:
    """Outcome of one (n, k) cell."""

    n: int
    k: int
    trials: int
    report: object
    extras: dict
    points_file: str | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "trials": self.trials,
            "points_file": self.points_file,
            "report": self.report.to_json_dict(),
            "extras": dict(sorted(self.extras.items())),
        }


@dataclass(frozen=True)
class ExperimentResult:
    """The cells of one run, with the config that produced them."""

    config: ExperimentConfig
    cells: tuple

    def to_json_dict(self) -> dict:
        # The worker count does not change any result, so it stays out of
        # the summary, which is byte-identical at any worker count.
        config = self.config.to_json_dict()
        del config["workers"]
        return {
            "schema_version": SCHEMA_VERSION,
            "regime": self.config.regime,
            "seed": self.config.seed,
            "config": config,
            "cells": [c.to_json_dict() for c in self.cells],
        }


# ---------------------------------------------------------------------------
# Points CSV I/O


def _csv_blocks(points):
    """The ``re,im`` CSV text of complex points with full round-trip
    precision: an iterator of the header and then blocks of rows.  The
    points are converted before this returns."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    # ``%r`` formats a float as ``repr`` does: the shortest round trip.
    return itertools.chain(["re,im\n"], _text_blocks(
        "%r,%r\n", pts.view(np.float64).reshape(-1, 2)))


def write_points_csv(points, path) -> None:
    """Write complex points as ``re,im`` CSV with full round-trip precision."""
    blocks = _csv_blocks(points)
    with Path(path).open("w") as fh:
        fh.writelines(blocks)


def read_points_csv(path) -> np.ndarray:
    """Read a ``re,im`` CSV back into a complex array.

    Parse failures report the file and 1-based line number.
    """
    path = Path(path)
    # Undecodable bytes read as U+FFFD, which fails to parse on its line.
    try:
        with path.open(errors="replace") as fh:
            header = fh.readline()
            if header.strip() != "re,im":
                raise ValidationError(
                    f"{path}:1: expected header 're,im', got "
                    f"{header.strip() if header else '<empty file>'!r}")
            try:
                with warnings.catch_warnings():
                    # loadtxt warns on a body of empty lines, which the
                    # line loop rejects.
                    warnings.simplefilter("ignore", UserWarning)
                    xy = np.loadtxt(fh, delimiter=",", comments=None,
                                    ndmin=2)
            except ValueError:
                xy = None
    except OSError as exc:
        raise ValidationError(f"cannot read points file {path}: {exc}") from exc
    if xy is not None and xy.shape[1] == 2:
        # Viewed, not rebuilt as re + 1j*im, which would lose the sign of -0.0.
        return xy.view(np.complex128).ravel()
    # The line loop parses what loadtxt rejects, or names the line at fault.
    values = []
    with path.open(errors="replace") as fh:
        for lineno, line in enumerate(itertools.islice(fh, 1, None), start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != 2:
                raise ValidationError(
                    f"{path}:{lineno}: expected two comma-separated fields")
            try:
                values.append(complex(float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    if not values:
        raise ValidationError(f"{path}: no points found")
    return np.asarray(values, dtype=np.complex128)


def render_scatter(points, out_path, overlay_unit_circle: bool = True
                   ) -> None:
    """Render complex points as an SVG scatter; bad input writes nothing."""
    chunks = _svg_chunks(points, overlay_unit_circle)
    with Path(out_path).open("w") as fh:
        fh.writelines(chunks)


# ---------------------------------------------------------------------------
# Experiment runs


def _chunk_points(task) -> np.ndarray:
    n, k, scale, rng, lo, hi = task
    coeffs = _trial_draws(rng, lo, hi, (k, n, n))
    return scale * trial_eigenvalues(coeffs).ravel()


def pooled_esd(regime: str, n: int, k: int, rng: RngStream, trials: int,
               mapper=map) -> EmpiricalSpectralDistribution:
    """Pool the scaled eigenvalues of trials ``0 .. trials-1`` of ``rng``,
    trial t drawn from ``rng.child(t)``.

    The regime sets the scale: ``n**-0.5`` for ``grow-n``, 1 for
    ``grow-k``.  Trials are solved in the chunks of ``matpoly._chunks``,
    as the verification suites walk theirs, each companion stack of at most
    ``_CHUNK_ENTRIES`` entries; ``mapper`` maps over the chunks (a worker
    pool's ``map`` runs them in parallel), each task carrying only the
    stream and its trial range.  Points follow trial order.  Every input is
    checked before any draw, including ``trials <= 2**32``.
    """
    n, k = _sizes(n, k)
    if regime not in _REGIMES:
        raise ValidationError(
            f"regime must be one of {_REGIMES}, got {regime!r}")
    if not isinstance(rng, RngStream):
        raise ValidationError(f"rng must be an RngStream, got {type(rng)!r}")
    trials = _count(trials, "trials")
    _trial_range(0, trials)
    scale = n ** -0.5 if regime == "grow-n" else 1.0
    tasks = [(n, k, scale, rng, lo, hi)
             for lo, hi in _chunks(trials, (k * n) ** 2)]
    return merge([
        EmpiricalSpectralDistribution(points=pts, scale=scale, n=n, k=k,
                                      trials=hi - lo)
        for (*_, lo, hi), pts in zip(tasks, mapper(_chunk_points, tasks))
    ])


def _cell_files(cfg: ExperimentConfig, n: int, k: int) -> tuple:
    """The names of a cell's points CSV and scatter SVG."""
    stem = f"{cfg.regime}_n{n}_k{k}_seed{cfg.seed}"
    return f"points_{stem}.csv", f"scatter_{stem}.svg"


def _run_cells(cfg: ExperimentConfig, law, extras_of) -> ExperimentResult:
    rng = RngStream(cfg.seed)
    out_dir = Path(cfg.output_dir) if cfg.output_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    pool = None
    # ``workers`` is an upper bound: the pool starts all of its processes
    # at the first task, so it never gets more than there are CPUs.
    workers = min(cfg.workers, os.cpu_count() or 1)
    if workers > 1:
        # Imported here: a one-worker run does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers)
    try:
        for idx, (n, k) in enumerate(cfg.cells()):
            start = time.monotonic()
            trials = cfg.trials_for(n, k)
            esd = pooled_esd(cfg.regime, n, k, rng.child(idx), trials,
                             pool.map if pool is not None else map)
            report = distance_report(esd, law, atom_radius=cfg.atom_radius)
            points_file = None
            if out_dir is not None:
                points_file, scatter = _cell_files(cfg, n, k)
                write_points_csv(esd.points, out_dir / points_file)
                if cfg.format == "svg":
                    render_scatter(esd.points, out_dir / scatter)
            logger.info("cell %s n=%d k=%d trials=%d points=%d "
                        "wallclock=%.2fs", cfg.regime, n, k, trials,
                        esd.points.size, time.monotonic() - start)
            cells.append(CellResult(n=n, k=k, trials=trials, report=report,
                                    extras=extras_of(esd),
                                    points_file=points_file))
    finally:
        if pool is not None:
            pool.shutdown()
    return ExperimentResult(config=cfg, cells=tuple(cells))


def _atom_sweep(esd: EmpiricalSpectralDistribution) -> dict:
    return {f"atom_mass_r{r}": atom_mass(esd, r) for r in ATOM_RADIUS_SWEEP}


def _annulus_extras(esd: EmpiricalSpectralDistribution) -> dict:
    band = np.abs(np.abs(esd.points) - 1.0) <= ANNULUS_HALFWIDTH
    return {f"annulus_mass_hw{ANNULUS_HALFWIDTH}": float(np.mean(band))}


def run_grow_n(cfg: ExperimentConfig) -> ExperimentResult:
    """Sweep n at fixed k; eigenvalues scaled by ``n**-0.5`` and compared
    against the disc mixture with atom weight (k-1)/k."""
    if cfg.regime != "grow-n":
        raise ValidationError(f"config regime is {cfg.regime!r}, not 'grow-n'")
    return _run_cells(cfg, DiscMixture(cfg.k_values[0]), _atom_sweep)


def run_grow_k(cfg: ExperimentConfig) -> ExperimentResult:
    """Sweep k at fixed n; unscaled eigenvalues against the unit circle."""
    if cfg.regime != "grow-k":
        raise ValidationError(f"config regime is {cfg.regime!r}, not 'grow-k'")
    return _run_cells(cfg, UnitCircle(), _annulus_extras)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    return (run_grow_n if cfg.regime == "grow-n" else run_grow_k)(cfg)


def export_result(result: ExperimentResult) -> list:
    """Write a run's summary into its config's ``output_dir``; returns its
    path, then each cell's scatter path when ``format`` is ``svg``.

    The run has already written the points files and scatters there.  A
    config without ``output_dir`` is a ``ValidationError``.
    """
    cfg = result.config
    if cfg.output_dir is None:
        raise ValidationError(
            "cannot export a run whose config has no output_dir")
    out_dir = Path(cfg.output_dir)
    summary = out_dir / f"result_{cfg.regime}_seed{cfg.seed}.json"
    summary.write_text(json.dumps(result.to_json_dict(), indent=2,
                                  sort_keys=True) + "\n")
    return [summary, *(out_dir / _cell_files(cfg, c.n, c.k)[1]
                       for c in result.cells if cfg.format == "svg")]


# ---------------------------------------------------------------------------
# Verification runs


@dataclass(frozen=True)
class VerificationResult:
    """All lemma reports of one verification run.

    ``passed`` is True only when every report is violation-free; the CLI
    turns a failed run into exit code 3.
    """

    reports: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n"
                       for r in self.reports)


#: Default sweep layouts for ``run_verification`` (pilot-calibrated).
GROW_N_SIZES = ((16, 3), (32, 3), (64, 3))
GROW_K_SIZES = ((2, 8), (2, 32), (2, 128))
DETERMINISTIC_DIM = 8
CIRCULANT_SIZES = ((2, 8), (3, 5), (4, 16))
#: Draws of the Gaussian norm tail check; its pass rule allows three events.
NORM_TAIL_TRIALS = 1000


def run_verification(cfg: ExperimentConfig, suite_trials: int = 200,
                     deterministic_instances: int = 1000,
                     mc_trials: int = 100000,
                     z_values: tuple = (0.7 + 0.3j, 0.5 + 0.0j)
                     ) -> VerificationResult:
    """Run both probabilistic lemma suites plus all deterministic sweeps.

    Only ``cfg.seed`` is read.  ``z_values`` holds one or two shifts: the
    first shifts the dimension-grown suite (needs z != 0), the last the
    degree-grown suite (needs |z| not in {0, 1}).  All three counts must be
    >= 1; every input is checked before any draw.
    """
    for name, count in (("suite_trials", suite_trials),
                        ("deterministic_instances", deterministic_instances),
                        ("mc_trials", mc_trials)):
        _count(count, name)
    if not (isinstance(z_values, (tuple, list)) and 1 <= len(z_values) <= 2):
        raise ValidationError(
            f"z_values must list one or two shifts, got {z_values!r}")
    cfg_n = LemmaCheckConfig(z=z_values[0], sizes=GROW_N_SIZES,
                             trials=suite_trials)
    cfg_k = LemmaCheckConfig(z=z_values[-1], sizes=GROW_K_SIZES,
                             trials=suite_trials)
    _grow_n_preconditions(cfg_n)
    _grow_k_preconditions(cfg_k)
    rng = RngStream(cfg.seed)

    det, tail = rng.child(2), rng.child(3)
    r_d = np.zeros((2, 6), dtype=np.complex128)
    r_d[0, 0] = 5.0  # spectral norm exactly 5

    def norm_tail():
        freq = gaussian_norm_tail(32, 3.0, NORM_TAIL_TRIALS, tail.child(3))
        # At threshold 3 sqrt(n) the norm tail is exponentially small;
        # allow three Poisson sigmas around zero events.
        return [LemmaReport("gaussian-norm-tail",
                            (3.0 / NORM_TAIL_TRIALS - freq,))]

    # Each check family, with its label in the timing log, returns a list
    # of reports.
    families = (
        ("grow-n suite", lambda: lemma_suite_grow_n(cfg_n, rng.child(0))),
        ("grow-k suite", lambda: lemma_suite_grow_k(cfg_k, rng.child(1))),
        ("lowrank-interlacing", lambda: [sweep_lowrank_interlacing(
            DETERMINISTIC_DIM, deterministic_instances, det)]),
        ("mirsky-sv-perturbation", lambda: [sweep_mirsky(
            DETERMINISTIC_DIM, deterministic_instances, det)]),
        ("submatrix-interlacing", lambda: [sweep_submatrix_interlacing(
            DETERMINISTIC_DIM, deterministic_instances, det)]),
        ("woodbury-identity", lambda: [sweep_woodbury_identity(
            DETERMINISTIC_DIM, deterministic_instances, det)]),
        ("circulant-shift-sv-range",
         lambda: [sweep_circulant_shift_bounds(
             CIRCULANT_SIZES, deterministic_instances, det)]),
        ("pinv-tail-domination R_D=0",
         lambda: [check_pinv_tail_domination(
             2, 6, 0.1, None, mc_trials, tail.child(0))]),
        ("pinv-tail-domination ||R_D||=5",
         lambda: [check_pinv_tail_domination(
             2, 6, 0.1, r_d, mc_trials, tail.child(1))]),
        ("unit-vector-projection-beta",
         lambda: [beta_projection_check(6, 10000, tail.child(2))]),
        ("gaussian-norm-tail", norm_tail),
    )
    reports: list[LemmaReport] = []
    for label, check in families:
        t0 = time.monotonic()
        reports.extend(check())
        logger.info("verify %s done in %.2fs", label, time.monotonic() - t0)

    return VerificationResult(reports=tuple(reports))
