"""Release acceptance suite.

Every test enforces one release criterion at its stated tolerance and prints
a `ACCEPTANCE <id> PASS|FAIL` line (run with `-s` to see them as they
happen). The two simulation-study criteria share their repetition tables
through session fixtures; each repetition draws a fresh training sample and
an independent 200-subject test sample, fits the varying-coefficient model
(bin count by pseudo-AIC, truncation and refinement bandwidth by pseudo-BIC,
mean bandwidths by five-fold CV) and the global baseline, and scores both
against the true conditional response curves.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vcflr.evaluate import TEST_SEED_OFFSET, run_repetitions
from vcflr.fpca import eigendecompose
from vcflr.grids import GridFunction, GridSurface, make_grid
from vcflr.regression import FitConfig, Prediction, fit
from vcflr.selection import select_truncation
from vcflr.simulation import (
    REGULAR,
    SPARSE,
    eigenfunctions,
    generate,
    mean_x,
    mean_y,
    mispe,
)

from reference import centered

SEEDS = range(10)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'} - {detail}")


def basis(s):
    s = np.asarray(s, dtype=float)
    c = np.sqrt(0.2)
    return np.column_stack([
        -c * np.cos(np.pi * s / 5.0),
        c * np.sin(np.pi * s / 5.0),
        -c * np.cos(2.0 * np.pi * s / 5.0),
    ])


def repetition_table(design):
    """(global, vc) MISPE per seed, from two worker processes; each
    repetition is deterministic per seed, so the table equals the serial
    one."""
    results, failures = run_repetitions(design, len(SEEDS), 400, 200, base_seed=SEEDS[0],
                                         threads=2)
    assert not failures
    assert [r.rep for r in results] == list(SEEDS)
    return np.asarray([(r.mispe_global, r.mispe_vc) for r in results])


@pytest.fixture(scope="session")
def table_regular():
    return repetition_table(REGULAR)


@pytest.fixture(scope="session")
def table_sparse():
    return repetition_table(SPARSE)


class TestCriterion1RegularTable:
    def test_regular_mispe_bands(self, table_regular):
        g_mean = table_regular[:, 0].mean()
        v_mean = table_regular[:, 1].mean()
        ok = (2.0 <= g_mean <= 6.5) and (0.3 <= v_mean <= 1.8) \
            and v_mean < 0.5 * g_mean
        report("1 (regular-case study)", ok,
               f"global mean {g_mean:.3f} in [2.0, 6.5]; "
               f"vc mean {v_mean:.3f} in [0.3, 1.8]; ratio {v_mean/g_mean:.3f} < 0.5")
        assert 2.0 <= g_mean <= 6.5
        assert 0.3 <= v_mean <= 1.8
        assert v_mean < 0.5 * g_mean


def blup_oracle_mispe(design, seed):
    """MISPE of the criterion's test set of one seed predicted from the true
    model: BLUP scores of each subject's predictor observations under the
    true mean, eigenpairs and noise variance, pushed through the true
    conditional mean. No fitted model predicts better in expectation."""
    test, truth = generate(design, 200, TEST_SEED_OFFSET + seed)
    rho = np.square(design.score_sds)
    psi_t = eigenfunctions(truth.grid.points)
    preds = []
    for sub in test.subjects:
        psi = eigenfunctions(sub.x_times)
        sigma = (psi * rho) @ psi.T + design.sigma_x ** 2 * np.eye(sub.n_x)
        zeta = rho * (psi.T @ np.linalg.solve(sigma, sub.x_values - mean_x(sub.x_times)))
        curve = mean_y(sub.z, truth.grid.points) + (1.0 + sub.z) * (psi_t @ zeta)
        preds.append(Prediction(GridFunction(truth.grid, curve), sub.z))
    return mispe(truth, preds)


class TestCriterion1Floor:
    def test_vc_mean_is_at_least_the_blup_oracle(self, table_regular):
        oracle = np.mean([blup_oracle_mispe(REGULAR, seed) for seed in SEEDS])
        v_mean = table_regular[:, 1].mean()
        ok = v_mean >= oracle
        report("note (criterion 1 floor)", ok,
               f"vc mean {v_mean:.4f} >= BLUP-oracle mean {oracle:.4f}; "
               f"estimation gap {v_mean - oracle:.4f}")
        assert v_mean >= oracle


class TestCriterion2SparseTable:
    def test_sparse_mispe_bands(self, table_sparse):
        g_mean = table_sparse[:, 0].mean()
        v_mean = table_sparse[:, 1].mean()
        ok = (2.5 <= g_mean <= 6.0) and (0.5 <= v_mean <= 2.0) \
            and v_mean < 0.5 * g_mean
        report("2 (sparse-case study)", ok,
               f"global mean {g_mean:.3f} in [2.5, 6.0]; "
               f"vc mean {v_mean:.3f} in [0.5, 2.0]; ratio {v_mean/g_mean:.3f} < 0.5")
        assert 2.5 <= g_mean <= 6.0
        assert 0.5 <= v_mean <= 2.0
        assert v_mean < 0.5 * g_mean


class TestCriterion3EigenRecovery:
    def test_eigen_recovery(self):
        grid = make_grid(0, 10, 201)
        psi = basis(grid.points)
        rho = np.array([4.0, 2.0, 1.0])
        surface = GridSurface(grid, grid, (psi * rho) @ psi.T)
        start = time.perf_counter()
        eig = eigendecompose(surface, grid, 6)
        elapsed = time.perf_counter() - start
        val_err = np.max(np.abs(eig.values[:3] - rho))
        fun_err = 0.0
        for k in range(3):
            plus = eig.functions[:, k] - psi[:, k]
            minus = eig.functions[:, k] + psi[:, k]
            fun_err = max(fun_err, min(np.sqrt(grid.weights @ plus**2),
                                       np.sqrt(grid.weights @ minus**2)))
        ok = eig.n_components == 3 and val_err < 1e-3 and fun_err < 1e-2 \
            and elapsed < 1.0
        report("3 (eigen recovery)", ok,
               f"eigenvalue err {val_err:.2e} < 1e-3; L2 err {fun_err:.2e} < 1e-2; "
               f"{elapsed*1e3:.0f} ms < 1 s")
        assert eig.n_components == 3
        assert val_err < 1e-3
        assert fun_err < 1e-2
        assert elapsed < 1.0


class TestCriterion4SlopeIdentity:
    def test_slope_identity(self):
        from vcflr.fpca import BinEstimate, EigenSystem
        from vcflr.grids import GridFunction
        from vcflr.regression import raw_beta

        grid = make_grid(0, 10, 51)
        psi = basis(grid.points)
        rho = np.array([4.0, 2.0, 1.0])
        eig = EigenSystem(grid, rho.copy(), psi.copy())
        eig_y = EigenSystem(grid, rho.copy(), psi.copy())
        bin_est = BinEstimate(
            center=0.5, n_subjects=1,
            mean_x=GridFunction(grid, np.zeros(51)),
            mean_y=GridFunction(grid, np.zeros(51)),
            cov_x=GridSurface(grid, grid, (psi * rho) @ psi.T),
            cov_y=GridSurface(grid, grid, (psi * rho) @ psi.T),
            cross=GridSurface(grid, grid, 1.5 * (psi * rho) @ psi.T),
            eig_x=eig, eig_y=eig_y,
            sigma_mk=1.5 * np.diag(rho), sigma2_x=1.0, sigma2_y=1.0)
        surf = raw_beta(bin_est, 3, 3)
        want = 1.5 * psi @ psi.T
        err = np.max(np.abs(surf.values - want))
        ok = err < 1e-3
        report("4 (slope identity)", ok, f"max abs err {err:.2e} < 1e-3")
        assert err < 1e-3


PROPERTY_SUITES = [
    "tests/test_kernels_smoothing.py::TestPropertySuites::test_affine_exactness_1d_1000",
    "tests/test_kernels_smoothing.py::TestPropertySuites::test_affine_exactness_2d_1000",
    "tests/test_kernels_smoothing.py::TestPropertySuites::test_lp_weights_moment_conditions_1000",
    "tests/test_fpca.py::TestEigendecompose::test_orthonormality_random_surfaces_1000",
    "tests/test_regression.py::TestRawBeta::test_sign_flip_invariance_1000",
    "tests/test_regression.py::TestRefine::test_constant_reproduction_1000",
    "tests/test_regression.py::TestPredict::test_affine_in_observations_1000",
    "tests/test_regression.py::TestGlobalEquivalence::test_fit_p1_equals_fit_global_predictions_1000",
]


class TestCriterion5PropertySuites:
    def test_property_suites_pass_within_budget(self):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--no-header", "-p",
             "no:cacheprovider", *PROPERTY_SUITES],
            cwd=Path(__file__).resolve().parents[1], capture_output=True,
            text=True)
        elapsed = time.perf_counter() - start
        ok = proc.returncode == 0 and elapsed < 300.0
        report("5 (property suites)", ok,
               f"{len(PROPERTY_SUITES)} suites, exit {proc.returncode}, "
               f"{elapsed:.0f} s < 300 s")
        assert proc.returncode == 0, proc.stdout[-2000:]
        assert elapsed < 300.0


class TestCriterion6NoiseVariance:
    def test_pooled_noise_variance_recovery(self):
        from vcflr.regression import fit_global

        s2x, s2y = [], []
        for seed in SEEDS:
            ds, _ = generate(SPARSE, 1000, seed=seed)
            model = fit_global(ds, FitConfig(truncation=(3, 3),
                                             refine_bandwidth=0.5))
            s2x.append(model.sigma2_x)
            s2y.append(model.sigma2_y)
        ok = all(0.7 <= v <= 1.3 for v in s2x + s2y)
        report("6 (noise variance)", ok,
               f"sigma2_x in [{min(s2x):.3f}, {max(s2x):.3f}], "
               f"sigma2_y in [{min(s2y):.3f}, {max(s2y):.3f}], all in [0.7, 1.3]")
        assert all(0.7 <= v <= 1.3 for v in s2x), s2x
        assert all(0.7 <= v <= 1.3 for v in s2y), s2y


class TestCriterion7TruncationSanity:
    def test_response_truncation_concentrates_on_truth(self):
        chosen = []
        for seed in SEEDS:
            ds, _ = generate(REGULAR, 400, seed=seed)
            model = fit(ds, FitConfig(n_bins=8, refine_bandwidth=0.3))
            part = model.partition
            subjects_by_bin = [[ds.subjects[i] for i in part.index_sets[p]]
                               for p in range(part.n_bins)]
            streams = [centered(subs, b.mean_x, b.mean_y)
                       for b, subs in zip(model.bins, subjects_by_bin)]
            _, k, _ = select_truncation(model.bins, streams,
                                        (1, 2, 3, 4, 5, 6), "BIC", n_total=ds.n)
            chosen.append(k)
        hits = sum(1 for k in chosen if k == 3)
        ok = hits >= 6
        report("7 (truncation sanity)", ok,
               f"K choices {chosen}; K=3 in {hits}/10 seeds (need >= 6)")
        assert hits >= 6, chosen


class TestConsistencySurrogate:
    def test_vc_error_shrinks_with_sample_size(self, table_regular):
        # two worker processes; each repetition is deterministic per seed,
        # so the n=100 MISPEs equal the serial ones
        small, failures = run_repetitions(REGULAR, len(SEEDS), 100, 200,
                                          base_seed=SEEDS[0], threads=2)
        assert not failures
        assert [r.rep for r in small] == list(SEEDS)
        decreases = 0
        pairs = []
        for i, rep in enumerate(small):
            pairs.append((rep.mispe_vc, table_regular[i, 1]))
            if table_regular[i, 1] < rep.mispe_vc:
                decreases += 1
        ok = decreases >= 8
        report("note (shrinking error surrogate)", ok,
               f"vc MISPE fell from n=100 to n=400 in {decreases}/10 paired seeds "
               f"(need >= 8)")
        assert decreases >= 8, pairs
