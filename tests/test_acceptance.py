"""End-to-end acceptance checks.

One test per headline claim, in order: convergence of pooled spectra to the
two limit laws, the replacement-principle gap, the deterministic and
probabilistic singular-value bound suites, the closed-form pseudoinverse
tail bound against an extended-precision oracle, the tail log-sum trend,
root-finder oracle equivalence, and byte-level determinism of outputs.

Every test prints a single ``acceptance NN <name>: PASS/FAIL (...)`` line
with the measured values (shown under ``pytest -s`` and in failure output)
and then asserts the stated tolerance.  Randomized checks run at frozen
seeds; the measured values below are deterministic in this environment.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from rmpoly import (ExperimentConfig, RngStream, backward_error,
                    circulant_matrix, companion, eigenvalues, export_result,
                    finite_eigenvalues, match_distance, mc_pseudoinverse_tail,
                    pseudoinverse_tail_bound, replacement_gap, run_grow_k,
                    run_grow_n, run_verification, sample_monic_gaussian,
                    tail_log_sum, tail_split_index)
from rmpoly.matpoly import _aberth_eigenvalues

SEED = 7


def _check(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {num:02d} {name}: {status} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def dimension_sweep():
    # k fixed at 4, dimension swept; ~20000 pooled points per cell.
    cfg = ExperimentConfig(regime="grow-n", n_values=(32, 64, 128),
                           k_values=(4,), seed=SEED)
    return run_grow_n(cfg)


@pytest.fixture(scope="module")
def degree_sweep():
    # n fixed at 4, degree swept; the k = 512 cell pools ten 2048-dim solves.
    cfg = ExperimentConfig(regime="grow-k", n_values=(4,),
                           k_values=(32, 128, 512), seed=SEED)
    return run_grow_k(cfg)


@pytest.fixture(scope="module")
def verification():
    # 200 trials per size in each probabilistic suite, 1000 instances per
    # deterministic sweep, 1e5 Monte Carlo draws per tail check.
    cfg = ExperimentConfig(regime="grow-n", n_values=(16, 32, 64),
                           k_values=(3,), seed=SEED)
    return run_verification(cfg)


def _by_id(verification):
    out = {}
    for r in verification.reports:
        out.setdefault(r.lemma_id, []).append(r)
    return out


def test_01_circle_law_anchor():
    # k = 1 reduces to the circular law: 10 trials at n = 200 must sit
    # within 0.05 of the uniform-disc radial CDF, in under two minutes.
    start = time.monotonic()
    cfg = ExperimentConfig(regime="grow-n", n_values=(200,), k_values=(1,),
                           target_points=2000, seed=SEED)
    cell = run_grow_n(cfg).cells[0]
    elapsed = time.monotonic() - start
    ks = cell.report.radial_ks
    ok = cell.trials >= 10 and ks <= 0.05 and elapsed <= 120.0
    _check(1, "circle-law anchor", ok,
           f"radial_ks={ks:.4f} <= 0.05, trials={cell.trials} >= 10, "
           f"runtime={elapsed:.1f}s <= 120s")


def test_02_dimension_grown_mixture_limit(dimension_sweep):
    # Pooled spectra at k = 4 must approach the origin-atom + disc mixture:
    # radial KS strictly decreasing in n, below 0.08 at n = 128, and the
    # origin-cluster mass within 0.75 +/- 0.05 there.
    ks = [c.report.radial_ks for c in dimension_sweep.cells]
    atom = dimension_sweep.cells[-1].report.atom_mass_observed
    decreasing = ks[0] > ks[1] > ks[2]
    ok = decreasing and ks[2] <= 0.08 and abs(atom - 0.75) <= 0.05
    _check(2, "dimension-grown mixture limit", ok,
           f"radial_ks={ks[0]:.4f}>{ks[1]:.4f}>{ks[2]:.4f}, "
           f"last <= 0.08, atom_mass(0.2)={atom:.4f} in 0.75+/-0.05")


def test_03_degree_grown_circle_limit(degree_sweep):
    # Unscaled spectra at n = 4 must concentrate on the unit circle: the
    # mass of the annulus ||z|-1| <= 0.1 increases in k and exceeds 0.9 at
    # k = 512, where angles are uniform within 0.05.
    masses = [c.extras["annulus_mass_hw0.1"] for c in degree_sweep.cells]
    angular = degree_sweep.cells[-1].report.angular_ks
    increasing = masses[0] < masses[1] < masses[2]
    ok = increasing and masses[2] >= 0.9 and angular <= 0.05
    _check(3, "degree-grown circle limit", ok,
           f"annulus_mass={masses[0]:.4f}<{masses[1]:.4f}<{masses[2]:.4f}, "
           f"last >= 0.9, angular_ks={angular:.4f} <= 0.05")


def test_04_replacement_gap_vanishes():
    # The log-determinant gap, normalized by the dimension kn, between the
    # unscaled companion matrix and its block circulant at z = 0.5 (the
    # replacement step of the k -> inf limit) must shrink with the degree:
    # the 20-trial median decreases across k in {32, 128, 512} and ends
    # below 0.05.  Both matrices enter as they are, with no scale.
    medians = []
    for k_idx, k in enumerate((32, 128, 512)):
        gaps = []
        for t in range(20):
            p = sample_monic_gaussian(2, k, RngStream(SEED, (96, k_idx, t)))
            gaps.append(abs(replacement_gap(companion(p),
                                            circulant_matrix(2, k), 0.5)))
        medians.append(float(np.median(gaps)))
    ok = medians[0] > medians[1] > medians[2] and medians[2] <= 0.05
    _check(4, "replacement gap vanishes", ok,
           f"medians={medians[0]:.6f}>{medians[1]:.6f}>{medians[2]:.6f}, "
           f"last <= 0.05")


def test_05_deterministic_suites(verification):
    # Interlacing (additive and submatrix), singular-value perturbation,
    # the low-rank inverse-update identity, and the shifted-circulant
    # singular value range: 1000 instances each, zero violations beyond
    # the 1e-10 relative slack built into the margins.
    ids = ("lowrank-interlacing", "mirsky-sv-perturbation",
           "submatrix-interlacing", "woodbury-identity",
           "circulant-shift-sv-range")
    by_id = _by_id(verification)
    counts = {i: len(by_id[i][0].per_trial_margins) for i in ids}
    violations = {i: by_id[i][0].violations for i in ids}
    ok = all(counts[i] >= 1000 for i in ids) and \
        all(violations[i] == 0 for i in ids)
    detail = ", ".join(f"{i}: {counts[i]} instances/{violations[i]} bad"
                       for i in ids)
    _check(5, "deterministic suites", ok, detail)


def test_06_pseudoinverse_tail_bound(verification):
    # Closed form P(sigma_n(R_D + G) <= tau) at n=2, N=6, tau=0.1: must
    # match a 50-digit evaluation, sit at ~1.0e-8, and dominate the
    # observed frequency (zero events in 1e5 draws, with and without a
    # norm-5 deterministic offset).
    mp = pytest.importorskip("mpmath")
    bound = pseudoinverse_tail_bound(2, 6, 0.1)
    with mp.workdps(50):
        q = 5
        oracle = (mp.mpf("0.1") ** (2 * q) / mp.sqrt(2 * mp.pi)
                  * (2 * 6 * mp.e ** 2) ** q / mp.mpf(q) ** (2 * q + mp.mpf("0.5")))
    oracle = float(oracle)
    rel = abs(bound - oracle) / oracle

    freq_centered = mc_pseudoinverse_tail(2, 6, 0.1, None, 100000,
                                          RngStream(SEED, (66, 0)))
    r_d = np.zeros((2, 6), dtype=np.complex128)
    r_d[0, 0] = 5.0  # spectral norm exactly 5
    freq_shifted = mc_pseudoinverse_tail(2, 6, 0.1, r_d, 100000,
                                         RngStream(SEED, (66, 1)))
    mc_ids = _by_id(verification)["pinv-tail-domination"]
    ok = (rel <= 1e-10 and abs(bound / 1.0e-8 - 1.0) <= 0.05
          and freq_centered == 0.0 and freq_shifted == 0.0
          and freq_centered <= bound and freq_shifted <= bound
          and all(r.violations == 0 for r in mc_ids))
    _check(6, "pseudoinverse tail bound", ok,
           f"bound={bound:.6e} (oracle rel err {rel:.1e} <= 1e-10, "
           f"~1.0e-8), events: centered={freq_centered}, "
           f"shifted={freq_shifted} out of 1e5 each")


def test_07_probabilistic_bound_sweeps(verification):
    # Both regime suites at 200 trials per size: zero bound violations,
    # and the fitted decay exponent of the smallest singular value stays
    # polynomial -- >= -4 in n (scaled companion) and >= -3 in k
    # (unscaled companion).
    by_id = _by_id(verification)
    suite_ids = [i for i in by_id
                 if i.startswith("grow-n/") or i.startswith("grow-k/")]
    violations = {i: by_id[i][0].violations for i in suite_ids}
    fit_n = by_id["grow-n/sigma-min-companion-floor"][0].fitted_exponent
    fit_k = by_id["grow-k/sigma-min-floor"][0].fitted_exponent
    trials_ok = all(len(by_id[i][0].per_trial_margins) == 600
                    for i in suite_ids)  # 200 trials x 3 sizes
    ok = (len(suite_ids) == 8 and trials_ok
          and all(v == 0 for v in violations.values())
          and fit_n is not None and fit_n >= -4.0
          and fit_k is not None and fit_k >= -3.0)
    _check(7, "probabilistic bound sweeps", ok,
           f"violations={sum(violations.values())} across {len(suite_ids)} "
           f"checks, sigma-min exponents: {fit_n:.3f} >= -4 (in n), "
           f"{fit_k:.3f} >= -3 (in k)")


def test_08_tail_log_sum_trend():
    # The log sum over the smallest singular values past the split index
    # f(n), normalized by the dimension kn, must shrink with n for both the
    # scaled companion matrix n**-0.5 M and its low-rank top-block form
    # (k = 3, z = 0.7 + 0.3i, 25 trials).
    med_m, med_e = [], []
    for n in (16, 32, 64):
        f = tail_split_index(n, 3)
        kn = 3 * n
        vm, ve = [], []
        for t in range(25):
            p = sample_monic_gaussian(n, 3, RngStream(SEED, (95, n, t)))
            m = companion(p)
            e1ct = np.zeros((kn, kn), dtype=np.complex128)
            e1ct[:n, :] = m[:n]
            scale = n ** -0.5
            vm.append(abs(tail_log_sum(scale * m, 0.7 + 0.3j, f + 1)))
            ve.append(abs(tail_log_sum(scale * e1ct, 0.7 + 0.3j, f + 1)))
        med_m.append(float(np.median(vm)))
        med_e.append(float(np.median(ve)))
    ok = med_m[0] > med_m[1] > med_m[2] and med_e[0] > med_e[1] > med_e[2]
    _check(8, "tail log-sum trend", ok,
           f"companion medians {med_m[0]:.4f}>{med_m[1]:.4f}>{med_m[2]:.4f}, "
           f"top-block medians {med_e[0]:.4f}>{med_e[1]:.4f}>{med_e[2]:.4f}")


def _det_poly_coeffs(p) -> np.ndarray:
    # Determinant of the polynomial matrix by cofactor expansion over
    # scalar-polynomial entries (exact coefficient arithmetic, n <= 3).
    n, k = p.n, p.k
    entry = np.zeros((n, n, k + 1), dtype=np.complex128)
    for j, c in enumerate(p.coeffs):
        entry[:, :, j] = c
    entry[:, :, k] += np.eye(n)
    if n == 1:
        return entry[0, 0]
    if n == 2:
        return npp.polysub(npp.polymul(entry[0, 0], entry[1, 1]),
                           npp.polymul(entry[0, 1], entry[1, 0]))

    def minor(r, c):
        rows = [i for i in range(3) if i != r]
        cols = [j for j in range(3) if j != c]
        return npp.polysub(
            npp.polymul(entry[rows[0], cols[0]], entry[rows[1], cols[1]]),
            npp.polymul(entry[rows[0], cols[1]], entry[rows[1], cols[0]]))

    out = np.zeros(1, dtype=np.complex128)
    for c in range(3):
        term = npp.polymul(entry[0, c], minor(0, c))
        out = npp.polyadd(out, term if c % 2 == 0 else -term)
    return out


def test_09_root_finder_oracle_equivalence():
    # The companion-linearization eigenvalues must agree with a scalar
    # root-finder applied to the determinant polynomial, within 1e-8
    # after optimal pairing, over 100 random small instances.
    worst = 0.0
    for inst in range(100):
        rng = RngStream(SEED, (99, inst))
        g = rng.generator()
        n = int(g.integers(1, 4))
        k = int(g.integers(1, 5))
        p = sample_monic_gaussian(n, k, rng.child(0))
        evs = finite_eigenvalues(p)
        roots = npp.polyroots(_det_poly_coeffs(p))
        assert roots.size == evs.size
        worst = max(worst, match_distance(evs, roots))
    ok = worst <= 1e-8
    _check(9, "root-finder oracle equivalence", ok,
           f"worst paired distance {worst:.3e} <= 1e-8 over 100 instances")


def test_09_structured_solver_dense_oracle():
    # The Ehrlich-Aberth solver must agree with dense eigvals on the
    # companion within 1e-10 after optimal pairing, with every eigenvalue's
    # backward error <= 100 kn eps.  The grid spans n in {1, 2, 4} and
    # k in {8, 32, 128}; the last two problems are the seed-101 grow-k
    # trials that hit an exactly singular P(x) during the iteration.
    problems = [(f"n={n} k={k}",
                 sample_monic_gaussian(n, k, RngStream(SEED, (98, n, k))))
                for n in (1, 2, 4) for k in (8, 32, 128)]
    problems += [("seed 101 cell 0 trial 13", sample_monic_gaussian(
                      4, 32, RngStream(101).child(0, 13))),
                 ("seed 101 cell 1 trial 3", sample_monic_gaussian(
                      4, 128, RngStream(101).child(1, 3)))]
    eps = np.finfo(float).eps
    worst_dist = worst_ratio = 0.0
    fallbacks = []
    for label, p in problems:
        lam = _aberth_eigenvalues(p.stack)
        if lam is None:
            fallbacks.append(label)
            continue
        kn = p.k * p.n
        worst_dist = max(worst_dist,
                         match_distance(lam, eigenvalues(companion(p))))
        worst_ratio = max(worst_ratio,
                          backward_error(p, lam).max() / (kn * eps))
    ok = not fallbacks and worst_dist <= 1e-10 and worst_ratio <= 100.0
    _check(9, "structured solver dense oracle", ok,
           f"worst paired distance {worst_dist:.3e} <= 1e-10, worst "
           f"backward error {worst_ratio:.3g} kn eps <= 100, fallbacks "
           f"{fallbacks} over {len(problems)} problems")


def test_10_byte_determinism(tmp_path):
    # Two runs with identical config + seed must produce byte-identical
    # CSV points and JSON summaries.
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = ExperimentConfig(regime="grow-n", n_values=(8,), k_values=(2,),
                               target_points=320, seed=SEED,
                               output_dir=str(out))
        export_result(run_grow_n(cfg))
        outputs.append(out)
    csv_name = f"points_grow-n_n8_k2_seed{SEED}.csv"
    json_name = f"result_grow-n_seed{SEED}.json"
    csv_same = (outputs[0] / csv_name).read_bytes() == \
        (outputs[1] / csv_name).read_bytes()
    json_same = (outputs[0] / json_name).read_bytes() == \
        (outputs[1] / json_name).read_bytes()
    # and the summary is valid JSON with the documented schema marker
    doc = json.loads((outputs[0] / json_name).read_text())
    ok = csv_same and json_same and doc["schema_version"] == 1
    _check(10, "byte determinism", ok,
           f"csv identical={csv_same}, json identical={json_same}")
