"""Spectra of random Gaussian monic matrix polynomials.

Sampling, companion linearization, empirical spectral distributions against
their two limit laws (degree-fixed/dimension-grown and
dimension-fixed/degree-grown), and numerical verification of the
singular-value bounds underpinning both limits.
"""

import os

# BLAS reads its thread count when numpy loads it, so this runs before any
# import of numpy: one BLAS thread per process unless the user set a count.
# A program that imported numpy before rmpoly keeps numpy's count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .errors import (ConvergenceError, NumericalError, SingularUpdateError,
                     ValidationError)
from .esd import (DiscMixture, DistanceReport, EmpiricalSpectralDistribution,
                  LimitLaw, UnitCircle, angular_ks, annulus_sector_discrepancy,
                  atom_mass, distance_report, esd_of_polynomial, merge,
                  radial_cdf, radial_ks, sample_points)
from .harness import (CellResult, ExperimentConfig, ExperimentResult,
                      VerificationResult, export_result, read_points_csv,
                      render_scatter, run_experiment, run_grow_k, run_grow_n,
                      run_verification, write_points_csv)
from .linalg import (eigenvalues, log_abs_det, match_distance,
                     singular_values, spectral_norm, woodbury_inverse)
from .matpoly import (MatrixPolynomial, RngStream, backward_error,
                      circulant_b_eigenvalues, circulant_matrix, companion,
                      complex_gaussian, evaluate, finite_eigenvalues,
                      polynomial_from_json, polynomial_to_json,
                      sample_monic_gaussian, trace_error)
from .svgplot import svg_scatter
from .verify import (LemmaCheckConfig, LemmaReport, beta_projection_check,
                     check_circulant_shift_bounds, check_lowrank_interlacing,
                     check_pinv_tail_domination, check_submatrix_interlacing,
                     check_mirsky, check_woodbury_identity,
                     gaussian_norm_tail, lemma_suite_grow_k,
                     lemma_suite_grow_n, mc_pseudoinverse_tail,
                     pseudoinverse_tail_bound, replacement_gap,
                     sweep_circulant_shift_bounds, sweep_lowrank_interlacing,
                     sweep_mirsky, sweep_submatrix_interlacing,
                     sweep_woodbury_identity, tail_log_sum, tail_split_index)

__version__ = "0.1.0"
