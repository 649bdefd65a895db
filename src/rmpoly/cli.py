"""Command-line interface.

Exit codes: 0 success, 1 validation/config error, 2 numerical failure,
3 verification run with violations.  Machine-readable output goes to files
or stdout; progress and timing lines go to stderr.
"""

from __future__ import annotations

import functools
import json
import logging
import sys
from pathlib import Path

import numpy as np

# These load before click: compiled after it, they raised peak RSS.
from .errors import NumericalError, ValidationError
from .harness import (_REGIMES, ExperimentConfig, _csv_blocks,
                      export_result, pooled_esd, read_points_csv,
                      render_scatter, run_experiment, run_verification,
                      write_points_csv)
from .matpoly import RngStream, polynomial_to_json, sample_monic_gaussian

import click


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValidationError, OSError) as exc:
            # An OSError is a path the command could not read or write.
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except (NumericalError, np.linalg.LinAlgError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(2)
    return wrapper


def _parse_z(_ctx, _param, values):
    out = []
    for v in values:
        parts = v.split(",")
        try:
            if len(parts) > 2:
                raise ValueError("too many fields")
            out.append(complex(*map(float, parts)))
        except ValueError:
            raise click.BadParameter(
                f"expected 're' or 're,im', got {v!r}") from None
    return tuple(out)


@click.group()
@click.option("--quiet", is_flag=True, help="Suppress progress output.")
def main(quiet):
    """Spectra of random Gaussian monic matrix polynomials.

    Sample polynomials, pool their scaled eigenvalues, measure distances to
    the limiting laws, and verify the singular-value bounds behind them.
    """
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    root = logging.getLogger("rmpoly")
    root.handlers.clear()  # idempotent under repeated invocation
    root.addHandler(handler)
    root.setLevel(logging.WARNING if quiet else logging.INFO)


@main.command()
@click.option("--n", type=int, required=True, help="Coefficient dimension.")
@click.option("--k", type=int, required=True, help="Polynomial degree.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output JSON path (default: stdout).")
@_guard
def sample(n, k, seed, out):
    """Sample one monic Gaussian polynomial and emit it as JSON."""
    p = sample_monic_gaussian(n, k, RngStream(seed))
    text = polynomial_to_json(p)
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)


@main.command()
@click.option("--n", type=int, required=True, help="Coefficient dimension.")
@click.option("--k", type=int, required=True, help="Polynomial degree.")
@click.option("--trials", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--regime", type=click.Choice(_REGIMES),
              default="grow-n", show_default=True,
              help="Chooses the eigenvalue scaling: n**-0.5 or 1.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output CSV path (default: stdout).")
@_guard
def esd(n, k, trials, seed, regime, out):
    """Pool scaled eigenvalues over trials and emit them as re,im CSV.

    Trial t draws the random numbers of trial t in cell 0 of an experiment
    with the same seed, so the output equals the points file of a one-cell
    experiment with the same regime, n, k and trial count.
    """
    pts = pooled_esd(regime, n, k, RngStream(seed).child(0), trials).points
    if out is None:
        for block in _csv_blocks(pts):
            click.echo(block, nl=False)
    else:
        write_points_csv(pts, out)


@main.command()
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              default=None, help="JSON experiment config; flags override it.")
@click.option("--regime", type=click.Choice(_REGIMES), default=None)
@click.option("--n", "n_values", type=int, multiple=True,
              help="Dimension value (repeatable).")
@click.option("--k", "k_values", type=int, multiple=True,
              help="Degree value (repeatable).")
@click.option("--target-points", type=int, default=None,
              help="Pooled points per cell (sets the trial count).")
@click.option("--seed", type=int, default=None)
@click.option("--atom-radius", type=float, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--out", "output_dir", type=click.Path(file_okay=False),
              required=True, help="Output directory.")
@click.option("--format", "format_", type=click.Choice(["csv", "svg"]),
              default=None, help="svg also renders one scatter per cell.")
@_guard
def experiment(config_path, regime, n_values, k_values, target_points, seed,
               atom_radius, workers, output_dir, format_):
    """Run a convergence experiment and persist points plus a summary."""
    doc = {}
    if config_path is not None:
        try:
            doc = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot load config {config_path}: {exc}")
    cfg = ExperimentConfig.from_json_dict(doc, regime=regime,
                                          n_values=n_values or None,
                                          k_values=k_values or None,
                                          target_points=target_points,
                                          seed=seed,
                                          atom_radius=atom_radius,
                                          workers=workers,
                                          output_dir=output_dir,
                                          format=format_)
    result = run_experiment(cfg)
    for path in export_result(result):
        click.echo(str(path))


@main.command()
@click.option("--z", "z_values", multiple=True, callback=_parse_z,
              help="Shift as 're,im' (at most twice; the first feeds the "
                   "dimension-grown suite, the second the degree-grown one).")
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--trials", type=int, default=200, show_default=True,
              help="Trials per size in each probabilistic suite.")
@click.option("--instances", type=int, default=1000, show_default=True,
              help="Instances per deterministic sweep.")
@click.option("--mc-trials", type=int, default=100000, show_default=True,
              help="Monte Carlo draws for the tail-bound checks.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write JSON-lines reports here (default: stdout).")
@_guard
def verify(z_values, seed, trials, instances, mc_trials, out):
    """Run every bound check; exit 3 if any check records a violation."""
    if out is not None and not Path(out).parent.is_dir():
        # Checked before the run, which would otherwise be lost.
        raise ValidationError(f"cannot write {out}: no directory "
                              f"{Path(out).parent}")
    # The config carries only the seed; its sizes are placeholders.
    cfg = ExperimentConfig(regime="grow-n", n_values=(16, 32, 64),
                           k_values=(3,), seed=seed)
    shifts = {"z_values": z_values} if z_values else {}
    result = run_verification(cfg, suite_trials=trials,
                              deterministic_instances=instances,
                              mc_trials=mc_trials, **shifts)
    text = result.to_jsonl()
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)
    for r in result.reports:
        status = "ok" if r.passed else f"{r.violations} VIOLATIONS"
        click.echo(f"{r.lemma_id}: {status} (min margin {r.min_margin:.1e})",
                   err=True)
    if not result.passed:
        click.echo("verification FAILED", err=True)
        sys.exit(3)
    click.echo("verification passed", err=True)


@main.command()
@click.argument("points_file", type=click.Path(dir_okay=False, exists=True))
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Output SVG path.")
@click.option("--unit-circle/--no-unit-circle", default=True,
              show_default=True, help="Overlay the unit circle.")
@_guard
def plot(points_file, out, unit_circle):
    """Render a persisted re,im point cloud as an SVG scatter."""
    render_scatter(read_points_csv(points_file), out, unit_circle)
    click.echo(out)


if __name__ == "__main__":
    main()
