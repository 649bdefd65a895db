"""Spectra of random Gaussian monic matrix polynomials.

Sampling, companion linearization, empirical spectral distributions against
their two limit laws (degree-fixed/dimension-grown and
dimension-fixed/degree-grown), and numerical verification of the
singular-value bounds underpinning both limits.

A public name's home module loads on first use of the name, so
``import rmpoly`` loads no submodule.
"""

import importlib
import os

# BLAS reads its thread count when numpy loads it, so this runs before any
# import of numpy: one BLAS thread per process unless the user set a count.
# A program that imported numpy before rmpoly keeps numpy's count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

#: Home module -> the public names the package re-exports from it.
_EXPORTS = {
    "errors": ("ConvergenceError", "NumericalError", "SingularUpdateError",
               "ValidationError"),
    "esd": ("DiscMixture", "DistanceReport", "EmpiricalSpectralDistribution",
            "LimitLaw", "UnitCircle", "angular_ks",
            "annulus_sector_discrepancy", "atom_mass", "distance_report",
            "esd_of_polynomial", "merge", "radial_cdf", "radial_ks",
            "sample_points"),
    "harness": ("CellResult", "ExperimentConfig", "ExperimentResult",
                "VerificationResult", "export_result", "read_points_csv",
                "render_scatter", "run_experiment", "run_grow_k",
                "run_grow_n", "run_verification", "write_points_csv"),
    "linalg": ("eigenvalues", "log_abs_det", "match_distance",
               "singular_values", "spectral_norm", "woodbury_inverse"),
    "matpoly": ("MatrixPolynomial", "RngStream", "backward_error",
                "circulant_b_eigenvalues", "circulant_matrix", "companion",
                "complex_gaussian", "evaluate", "finite_eigenvalues",
                "polynomial_from_json", "polynomial_to_json",
                "sample_monic_gaussian", "trace_error"),
    "verify": ("LemmaCheckConfig", "LemmaReport", "beta_projection_check",
               "check_circulant_shift_bounds", "check_lowrank_interlacing",
               "check_pinv_tail_domination", "check_submatrix_interlacing",
               "check_mirsky", "check_woodbury_identity",
               "gaussian_norm_tail", "lemma_suite_grow_k",
               "lemma_suite_grow_n", "mc_pseudoinverse_tail",
               "pseudoinverse_tail_bound", "replacement_gap",
               "sweep_circulant_shift_bounds", "sweep_lowrank_interlacing",
               "sweep_mirsky", "sweep_submatrix_interlacing",
               "sweep_woodbury_identity", "tail_log_sum", "tail_split_index"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # Called only for a name not yet in the package globals (PEP 562).
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
