import warnings
from dataclasses import replace

import numpy as np
import pytest

from vcflr import fpca, regression, selection
from vcflr.data import BinPartition, LongitudinalDataset, Subject
from vcflr.errors import (
    CovariateOutOfDomain,
    DomainViolation,
    EmptyBin,
    InsufficientLocalData,
    ModelFormatError,
    TruncationTooLarge,
)
from vcflr.fpca import BinEstimate, EigenSystem, default_bandwidth
from vcflr.grids import GridFunction, GridSurface, make_grid
from vcflr.kernels import Kernel1D
from vcflr.regression import (
    FitConfig,
    FittedModel,
    fit,
    fit_global,
    predict,
    raw_beta,
    refine,
)
from vcflr.serialize import load_model, save_model
from vcflr.simulation import REGULAR, SPARSE, generate
from vcflr.smoothing import local_linear_weights

import reference
from reference import gathered


def basis(s):
    s = np.asarray(s, dtype=float)
    c = np.sqrt(0.2)
    return np.column_stack([
        -c * np.cos(np.pi * s / 5.0),
        c * np.sin(np.pi * s / 5.0),
        -c * np.cos(2.0 * np.pi * s / 5.0),
    ])


RHO = np.array([4.0, 2.0, 1.0])


def exact_bin(center, grid, slope_scale=None, mean_x=None, mean_y=None):
    """BinEstimate with exact three-component ingredients at one z level."""
    scale = (1.0 + center) if slope_scale is None else slope_scale
    psi = basis(grid.points)
    eig = EigenSystem(grid, RHO.copy(), psi.copy())
    eig2 = EigenSystem(grid, RHO.copy(), psi.copy())
    cov = GridSurface(grid, grid, (psi * RHO) @ psi.T)
    return BinEstimate(
        center=center, n_subjects=50,
        mean_x=GridFunction(grid, np.zeros(grid.n) if mean_x is None else mean_x),
        mean_y=GridFunction(grid, np.zeros(grid.n) if mean_y is None else mean_y),
        cov_x=cov, cov_y=GridSurface(grid, grid, cov.values.copy()),
        cross=GridSurface(grid, grid, scale * (psi * RHO) @ psi.T),
        eig_x=eig, eig_y=eig2,
        sigma_mk=scale * np.diag(RHO),
        sigma2_x=1.0, sigma2_y=1.0,
    )


def model_from_bins(bins, grid, b=0.2, trunc=(3, 3)):
    centers = np.array([b_.center for b_ in bins])
    width = centers[1] - centers[0] if len(centers) > 1 else 1.0
    part = BinPartition(centers, width, [np.empty(0, dtype=int)] * len(bins))
    for b_ in bins:
        b_.raw_beta = raw_beta(b_, trunc[0], trunc[1])
    return FittedModel(
        s_grid=grid, t_grid=grid, s_domain=(0, 10), t_domain=(0, 10),
        z_domain=(0, 1), partition=part, bins=bins, truncation=trunc,
        refine_bandwidth=b, kernel=Kernel1D(),
        sigma2_x=1.0, sigma2_y=1.0,
    )


class TestRawBeta:
    def test_exact_inputs_reproduce_slope(self):
        grid = make_grid(0, 10, 51)
        bin_est = exact_bin(0.5, grid)
        surf = raw_beta(bin_est, 3, 3)
        psi = basis(grid.points)
        want = 1.5 * psi @ psi.T
        assert np.max(np.abs(surf.values - want)) < 1e-4

    def test_zero_moments_zero_surface(self):
        grid = make_grid(0, 10, 31)
        bin_est = exact_bin(0.5, grid)
        bin_est.sigma_mk = np.zeros((3, 3))
        surf = raw_beta(bin_est, 3, 3)
        assert np.all(surf.values == 0.0)

    def test_rank_one(self):
        grid = make_grid(0, 10, 51)
        bin_est = exact_bin(0.5, grid)
        bin_est.sigma_mk = np.diag([RHO[0], 0.0, 0.0])
        surf = raw_beta(bin_est, 1, 1)
        psi = basis(grid.points)
        assert np.allclose(surf.values, np.outer(psi[:, 0], psi[:, 0]), atol=1e-12)

    def test_truncation_too_large(self):
        grid = make_grid(0, 10, 31)
        bin_est = exact_bin(0.5, grid)
        with pytest.raises(TruncationTooLarge):
            raw_beta(bin_est, 4, 3)
        with pytest.raises(TruncationTooLarge):
            raw_beta(bin_est, 3, 4)

    def test_sign_flip_invariance_1000(self):
        rng = np.random.default_rng(40)
        grid = make_grid(0, 10, 21)
        psi = basis(grid.points)
        for case in range(1000):
            m = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            sig = rng.normal(size=(3, 3))
            bin_a = exact_bin(0.5, grid)
            bin_a.sigma_mk = sig.copy()
            base = raw_beta(bin_a, m, k)
            flips_x = rng.choice([-1.0, 1.0], size=3)
            flips_y = rng.choice([-1.0, 1.0], size=3)
            bin_b = exact_bin(0.5, grid)
            bin_b.eig_x = EigenSystem(grid, RHO.copy(), psi * flips_x)
            bin_b.eig_y = EigenSystem(grid, RHO.copy(), psi * flips_y)
            bin_b.sigma_mk = sig * np.outer(flips_x, flips_y)
            flipped = raw_beta(bin_b, m, k)
            assert np.max(np.abs(base.values - flipped.values)) < 1e-12, case


class TestRefine:
    def test_degenerate_bandwidth_returns_bin_raw(self):
        grid = make_grid(0, 10, 21)
        rng = np.random.default_rng(41)
        bins = [exact_bin(c, grid, slope_scale=rng.uniform(0.5, 2.0),
                          mean_x=rng.normal(size=21), mean_y=rng.normal(size=21))
                for c in (0.125, 0.375, 0.625, 0.875)]
        model = model_from_bins(bins, grid, b=1e-9)
        mx, my, beta = refine(model, 0.375)
        assert np.allclose(mx.values, bins[1].mean_x.values, atol=1e-12)
        assert np.allclose(my.values, bins[1].mean_y.values, atol=1e-12)
        assert np.allclose(beta.values, bins[1].raw_beta.values, atol=1e-12)

    def test_linear_in_z_reproduced_exactly(self):
        grid = make_grid(0, 10, 21)
        centers = np.array([0.125, 0.375, 0.625, 0.875])
        bins = [exact_bin(c, grid) for c in centers]    # slope scale = 1 + c
        model = model_from_bins(bins, grid, b=0.5)
        z = 0.43
        _, _, beta = refine(model, z)
        psi = basis(grid.points)
        want = (1.0 + z) * psi @ psi.T
        assert np.max(np.abs(beta.values - want)) < 1e-9

    def test_out_of_domain(self):
        grid = make_grid(0, 10, 11)
        model = model_from_bins([exact_bin(0.5, grid)], grid)
        with pytest.raises(CovariateOutOfDomain):
            refine(model, 1.5)

    def test_constant_reproduction_1000(self):
        rng = np.random.default_rng(42)
        grid = make_grid(0, 10, 11)
        for case in range(1000):
            n_bins = int(rng.integers(1, 7))
            centers = (np.arange(n_bins) + 0.5) / n_bins
            scale = rng.uniform(0.2, 3.0)
            mean_x = rng.normal(size=11)
            mean_y = rng.normal(size=11)
            bins = [exact_bin(c, grid, slope_scale=scale, mean_x=mean_x.copy(),
                              mean_y=mean_y.copy()) for c in centers]
            model = model_from_bins(bins, grid, b=rng.uniform(0.05, 0.5))
            z = rng.uniform(0, 1)
            mx, my, beta = refine(model, z)
            assert np.max(np.abs(mx.values - mean_x)) < 1e-10, case
            assert np.max(np.abs(my.values - mean_y)) < 1e-10, case
            assert np.max(np.abs(beta.values - bins[0].raw_beta.values)) < 1e-10


@pytest.fixture(scope="module")
def small_fit():
    ds, _ = generate(REGULAR, 60, seed=43)
    cfg = FitConfig(n_bins=3, truncation=(3, 3), refine_bandwidth=0.3,
                    bandwidth_policy="default", min_bin_count=2)
    return fit(ds, cfg)


def cut_streams(ds, stream, n):
    """``ds`` with each subject's ``stream`` cut to its first n observations."""
    return LongitudinalDataset(
        [replace(s, **{f"{stream}_times": getattr(s, f"{stream}_times")[:n],
                       f"{stream}_values": getattr(s, f"{stream}_values")[:n]})
         for s in ds.subjects], ds.s_domain, ds.t_domain, ds.z_domain)


class TestFit:
    def test_one_observation_responses_end_typed(self):
        # no bin holds a within-subject response pair to smooth
        ds = cut_streams(generate(SPARSE, 200, seed=7)[0], "y", 1)
        with pytest.raises(InsufficientLocalData, match="no data points"):
            fit(ds, FitConfig(n_bins=None))

    def test_no_usable_subject_is_empty_bin(self):
        ds = cut_streams(generate(REGULAR, 30, seed=3)[0], "x", 1)
        with pytest.raises(EmptyBin, match="all 30 subject.*2 or more predictor"):
            fit(ds, FitConfig(n_bins=None))

    @pytest.mark.parametrize("field", ["criterion", "binwidth_criterion"])
    @pytest.mark.parametrize("value", ["aic", "bic", "AICc", ""])
    def test_criterion_must_be_aic_or_bic(self, field, value):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: value})
        FitConfig(**{field: "AIC"})
        FitConfig(**{field: "BIC"})

    @pytest.mark.parametrize("b", [0.0, -0.3, float("nan"), float("inf")])
    def test_refine_bandwidths_must_be_finite_and_positive(self, b):
        with pytest.raises(ValueError, match="refine bandwidths"):
            FitConfig(refine_bandwidth=b)
        with pytest.raises(ValueError, match="refine bandwidths"):
            FitConfig(refine_candidates=(0.2, b))
        FitConfig(refine_bandwidth=0.3, refine_candidates=(0.2, 0.4))

    @pytest.mark.parametrize("kwargs, match", [
        (dict(bandwidth_policy="CV"), "bandwidth_policy"),
        (dict(bandwidth_policy="none"), "bandwidth_policy"),
        (dict(bandwidths={"covx": 1.0}), "unknown bandwidth key"),
        (dict(bandwidths={"cov_x": -1.0}), "bandwidth cov_x"),
        (dict(bandwidths={"mean_x": "wide"}), "bandwidth mean_x"),
        (dict(bandwidths={"diag_y": float("inf")}), "bandwidth diag_y"),
        (dict(bandwidths={"mean_y": (1.0, 2.0)}), "bandwidth mean_y"),
        (dict(bandwidths={"cross": (1.0, 0.0)}), "bandwidth cross"),
        (dict(bandwidths={"cov_y": (1.0, 2.0, 3.0)}), "bandwidth cov_y"),
        (dict(bandwidths={"mean_x": True}), "bandwidth mean_x"),
        (dict(cv_surfaces=True, cv_factors=(0.0, 1.0)), "cv_factors"),
        (dict(cv_factors=()), "cv_factors"),
        (dict(cv_factors=(1.0, float("nan"))), "cv_factors"),
        (dict(cv_folds=1), "cv_folds"),
        (dict(cv_folds=2.5), "cv_folds"),
        (dict(truncation=(2,)), "truncation must"),
        (dict(truncation=(2.5, 2)), "truncation must"),
        (dict(truncation=(0, 1)), "truncation must"),
        (dict(truncation=(2, True)), "truncation must"),
        (dict(truncation_candidates=(2, 0)), "truncation_candidates"),
        (dict(truncation_candidates=()), "truncation_candidates"),
        (dict(n_bins=0), "n_bins"),
        (dict(bin_candidates=(4, 0)), "bin_candidates"),
        (dict(bin_candidates=()), "bin_candidates"),
        (dict(n_bins=2.7), "n_bins"),
        (dict(grid_size=1), "grid_size"),
        (dict(grid_size=2.5), "grid_size"),
        (dict(grid_size="fifty"), "grid_size"),
        (dict(min_bin_count=0), "min_bin_count"),
        (dict(min_bin_count=-3), "min_bin_count"),
        (dict(min_bin_count=2.0), "min_bin_count"),
        (dict(cv_surfaces="false"), "cv_surfaces"),
        (dict(cv_surfaces=1), "cv_surfaces"),
        (dict(eigen_floor=float("nan")), "eigen_floor"),
        (dict(eigen_floor=-0.1), "eigen_floor"),
        (dict(eigen_floor=1.5), "eigen_floor"),
        (dict(eigen_floor=1.0), "eigen_floor"),
        (dict(eigen_floor=float("inf")), "eigen_floor"),
        (dict(eigen_floor=True), "eigen_floor"),
        (dict(eigen_floor="0.03"), "eigen_floor"),
        (dict(refine_candidates=()), "refine_candidates"),
        (dict(refine_bandwidth=True), "refine bandwidths"),
        (dict(refine_bandwidth="0.3"), "refine bandwidths"),
        (dict(kernel="gauss"), "kernel family"),
    ])
    def test_bandwidth_settings_validated(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FitConfig(**kwargs)

    def test_valid_bandwidth_settings_accepted(self):
        FitConfig(bandwidth_policy="default",
                  bandwidths={"mean_x": 1, "mean_y": 1.5, "cov_x": [1.0, 2.0],
                              "cov_y": 2.0, "diag_x": 0.5, "diag_y": 0.5,
                              "cross": (1.0, 2.0)},
                  cv_factors=(1e-6,), cv_folds=2)
        FitConfig(eigen_floor=0, cv_surfaces=True, kernel="quartic", refine_candidates=(0.3,))

    def test_sigma2_is_bin_average(self, small_fit):
        assert small_fit.sigma2_x == pytest.approx(
            np.mean([b.sigma2_x for b in small_fit.bins]))
        assert small_fit.sigma2_y == pytest.approx(
            np.mean([b.sigma2_y for b in small_fit.bins]))

    def test_one_bin_matches_global(self):
        ds, _ = generate(REGULAR, 40, seed=44)
        cfg = FitConfig(n_bins=1, truncation=(2, 2), refine_bandwidth=0.3,
                        bandwidth_policy="default")
        m1 = fit(ds, cfg)
        m2 = fit_global(ds, cfg)
        assert m1.n_bins == m2.n_bins == 1
        for b1, b2 in zip(m1.bins, m2.bins):
            assert np.array_equal(b1.mean_x.values, b2.mean_x.values)
            assert np.array_equal(b1.cov_x.values, b2.cov_x.values)
            assert np.array_equal(b1.sigma_mk, b2.sigma_mk)
            assert np.array_equal(b1.raw_beta.values, b2.raw_beta.values)
        assert m1.sigma2_x == m2.sigma2_x
        assert m1.refine_bandwidth == m2.refine_bandwidth

    def test_auto_truncation_near_truth(self):
        chosen = []
        for seed in range(3):
            ds, _ = generate(REGULAR, 150, seed=50 + seed)
            cfg = FitConfig(n_bins=2, truncation=None,
                            truncation_candidates=(1, 2, 3, 4),
                            refine_bandwidth=0.4, bandwidth_policy="default",
                            min_bin_count=2)
            model = fit(ds, cfg)
            chosen.append(model.truncation[0])
        assert all(2 <= m <= 4 for m in chosen)


class TestEachBinGatheredOnce:
    """A fit gathers each bin's two streams and fits its two mean curves
    once, which bandwidth CV (surfaces included), the bin's smoothers and
    truncation selection all read."""

    @staticmethod
    def count(monkeypatch, name):
        """Calls of ``fpca.<name>``, through every module binding of it."""
        calls = []
        real = getattr(fpca, name)

        def counting(*args, **kwargs):
            calls.append(args[1] if name == "_observations" else args[3])
            return real(*args, **kwargs)

        for module in (fpca, regression, selection):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("cv_surfaces", [False, True])
    def test_two_streams_and_two_means_per_bin(self, monkeypatch, cv_surfaces):
        ds, _ = generate(SPARSE, 200, seed=0)
        means = self.count(monkeypatch, "estimate_mean")
        streams = self.count(monkeypatch, "_observations")
        model = fit(ds, FitConfig(n_bins=4, truncation=None, refine_bandwidth=0.3,
                                  cv_surfaces=cv_surfaces))
        assert model.selection.tables["M"] and model.selection.tables["K"]
        assert means == [model.s_grid, model.t_grid] * 4
        assert streams == ["x", "y"] * 4


class TestBandwidthFallback:
    CFG = FitConfig(n_bins=2, truncation=(2, 2), refine_bandwidth=0.3, min_bin_count=2)

    def test_cv_failing_everywhere_falls_back_to_default(self, monkeypatch):
        ds, _ = generate(REGULAR, 40, seed=45)
        failed = []
        real = selection.cv_smoother_bandwidth

        def spy(subjects, kind, *args, **kwargs):
            try:
                return real(subjects, kind, *args, **kwargs)
            except InsufficientLocalData:
                failed.append(kind)
                raise

        monkeypatch.setattr(selection, "cv_smoother_bandwidth", spy)
        model = fit(ds, replace(self.CFG, cv_factors=(1e-6,)))
        assert failed == ["mean_x", "mean_y"] * 2
        for p, b in enumerate(model.bins):
            subjects = [ds.subjects[i] for i in model.partition.index_sets[p]]
            assert b.bandwidths["mean_x"] == default_bandwidth(
                10.0, sum(s.n_x for s in subjects))
            assert b.bandwidths["mean_y"] == default_bandwidth(
                10.0, sum(s.n_y for s in subjects))

    def test_other_cv_errors_propagate(self, monkeypatch):
        ds, _ = generate(REGULAR, 40, seed=45)

        def broken(*args, **kwargs):
            raise RuntimeError("cv broke")

        monkeypatch.setattr(selection, "cv_smoother_bandwidth", broken)
        with pytest.raises(RuntimeError, match="cv broke"):
            fit(ds, self.CFG)


    def test_scalar_cross_curve_keeps_default_bandwidth(self, monkeypatch):
        rng = np.random.default_rng(46)
        subjects = []
        for i in range(30):
            st_ = np.sort(rng.uniform(0, 10, 8))
            x = np.sin(st_) + rng.normal(0, 0.3, 8)
            subjects.append(Subject(f"s{i}", rng.uniform(0, 1), st_, x, None,
                                    np.array([float(x.mean())])))
        ds = LongitudinalDataset(subjects, (0, 10), None, (0, 1), scalar_response=True)
        kinds = []
        real = selection.cv_smoother_bandwidth

        def spy(subjects, kind, *args, **kwargs):
            kinds.append(kind)
            return real(subjects, kind, *args, **kwargs)

        monkeypatch.setattr(selection, "cv_smoother_bandwidth", spy)
        model = fit(ds, FitConfig(n_bins=2, truncation=(2, None), refine_bandwidth=0.4,
                                  min_bin_count=2, cv_surfaces=True))
        assert kinds == ["mean_x", "cov_x"] * 2
        for p, b in enumerate(model.bins):
            subs = [ds.subjects[i] for i in model.partition.index_sets[p]]
            assert b.bandwidths["cross"] == default_bandwidth(
                10.0, sum(s.n_x * s.n_y for s in subs))

    def test_functional_response_needs_k(self):
        ds, _ = generate(REGULAR, 40, seed=45)
        cfg = FitConfig(n_bins=2, truncation=(2, None), min_bin_count=2)
        with pytest.raises(ModelFormatError, match="response components"):
            fit(ds, cfg)
        with pytest.raises(ModelFormatError, match="response components"):
            fit_global(ds, cfg)

    @pytest.mark.parametrize("pair", [(1.0, 2.0), [1.5, 1.5]])
    def test_scalar_cross_pair_rejected(self, pair):
        # FitConfig accepts a cross pair, which a functional response takes;
        # a scalar response's cross-covariance is a curve with one bandwidth
        rng = np.random.default_rng(47)
        subjects = []
        for i in range(20):
            st_ = np.sort(rng.uniform(0, 10, 6))
            subjects.append(Subject(f"s{i}", rng.uniform(0, 1), st_, np.sin(st_), None,
                                    np.array([rng.normal()])))
        ds = LongitudinalDataset(subjects, (0, 10), None, (0, 1), scalar_response=True)
        cfg = FitConfig(n_bins=2, min_bin_count=2, bandwidths={"cross": pair})
        with pytest.raises(ModelFormatError, match="cross must be a single number"):
            fit(ds, cfg)
        with pytest.raises(ModelFormatError, match="cross must be a single number"):
            fit_global(ds, cfg)

    def test_surfaces_resolve_to_pairs(self):
        # a number for a surface means that bandwidth on both axes
        from vcflr.regression import _resolve_bandwidths
        ds, _ = generate(REGULAR, 40, seed=45)
        grid = make_grid(0, 10, 21)
        cfg = FitConfig(bandwidth_policy="default",
                        bandwidths={"cov_x": 1.0, "cross": [1.0, 2.0]})
        bw, _, _ = _resolve_bandwidths(gathered(ds.subjects), cfg, grid, grid)
        h = default_bandwidth(10.0, sum(s.n_y * (s.n_y - 1) for s in ds.subjects))
        assert (bw.cov_x, bw.cov_y, bw.cross) == ((1.0, 1.0), (h, h), (1.0, 2.0))


class TestPredict:
    def test_mean_predictor_gives_mean_response(self, small_fit):
        model = small_fit
        z = 0.47
        mx, my, _ = refine(model, z)
        x_obs = np.column_stack([model.s_grid.points, mx.values])
        pred = predict(model, x_obs, z)
        assert pred.mode == "dense"
        assert np.allclose(pred.y_hat.values, my.values, atol=1e-9)

    def test_zero_slope_ignores_predictor(self, small_fit):
        model = small_fit
        zero = GridSurface(model.s_grid, model.t_grid,
                           np.zeros((model.s_grid.n, model.t_grid.n)))
        model = replace(model, bins=[replace(b, raw_beta=zero) for b in model.bins])
        z = 0.3
        _, my, _ = refine(model, z)
        rng = np.random.default_rng(45)
        x_obs = np.column_stack([model.s_grid.points,
                                 rng.normal(size=model.s_grid.n)])
        pred = predict(model, x_obs, z)
        assert np.allclose(pred.y_hat.values, my.values, atol=1e-12)

    def test_sparse_mode_used_for_sparse_observations(self, small_fit):
        x_obs = np.array([[1.0, 2.0], [6.0, 7.0]])
        pred = predict(small_fit, x_obs, 0.5)
        assert pred.mode == "sparse"
        assert np.all(np.isfinite(pred.y_hat.values))

    def test_out_of_domain(self, small_fit):
        x_obs = np.array([[1.0, 2.0], [2.0, 2.5]])
        with pytest.raises(CovariateOutOfDomain):
            predict(small_fit, x_obs, -0.2)

    def test_affine_in_observations_1000(self, small_fit):
        rng = np.random.default_rng(46)
        model = small_fit
        grid_pts = model.s_grid.points
        for case in range(1000):
            z = rng.uniform(0, 1)
            if case % 2 == 0:
                times = grid_pts                       # dense path
            else:
                times = np.sort(rng.uniform(0, 10, 5))  # sparse path
            u1 = rng.normal(size=times.size)
            u2 = rng.normal(size=times.size)
            alpha = rng.uniform(-1, 2)
            mix = alpha * u1 + (1 - alpha) * u2
            p1 = predict(model, np.column_stack([times, u1]), z).y_hat.values
            p2 = predict(model, np.column_stack([times, u2]), z).y_hat.values
            pm = predict(model, np.column_stack([times, mix]), z).y_hat.values
            want = alpha * p1 + (1 - alpha) * p2
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(pm - want)) < 1e-9 * scale, case


class TestPredictRejectsUnusableObservations:
    @pytest.mark.parametrize("bad", [
        [[1.0, np.nan], [6.0, 7.0]],
        [[np.nan, 2.0], [6.0, 7.0]],
        [[1.0, 2.0], [np.inf, 7.0]],
        [[-np.inf, 2.0], [6.0, 7.0]],
        [[1.0, -np.inf], [6.0, 7.0]],
    ])
    def test_non_finite_rejected(self, small_fit, bad):
        with pytest.raises(DomainViolation, match="finite"):
            predict(small_fit, np.array(bad), 0.5)

    @pytest.mark.parametrize("bad", [
        [[-50.0, 2.0], [6.0, 7.0]],
        [[1.0, 2.0], [10.5, 7.0]],
        [[6.0, 7.0], [-1e-9, 2.0]],
    ])
    def test_times_outside_s_domain_rejected(self, small_fit, bad):
        with pytest.raises(DomainViolation, match="outside the s domain"):
            predict(small_fit, np.array(bad), 0.5)

    @pytest.mark.parametrize("empty", [np.empty((0, 2)), []])
    def test_no_predictor_observation_rejected(self, small_fit, empty):
        with pytest.raises(DomainViolation, match="at least one predictor observation"):
            predict(small_fit, empty, 0.5)

    def test_times_at_domain_ends_accepted(self, small_fit):
        pred = predict(small_fit, np.array([[10.0, 7.0], [0.0, 2.0]]), 0.5)
        assert np.all(np.isfinite(pred.y_hat.values))


class TestPredictIsReference:
    """``predict`` gives the bits of ``reference.predict``, its plain form,
    on every path and kind of model."""

    @pytest.fixture(scope="class")
    def models(self, small_fit):
        cfg = FitConfig(n_bins=3, truncation=(2, 2), refine_bandwidth=0.3,
                        bandwidth_policy="default", min_bin_count=2)
        sparse = generate(SPARSE, 90, seed=48)[0]
        regular = generate(REGULAR, 30, seed=49)[0]
        mixed = LongitudinalDataset(regular.subjects + sparse.subjects[:45], sparse.s_domain,
                                    sparse.t_domain, sparse.z_domain)
        # one bin at z = 0.5: every z beyond 0.2 of it widens the weights
        one_bin = fit_global(regular, replace(cfg, refine_bandwidth=0.2))
        return {"dense": small_fit, "sparse": fit(sparse, cfg), "mixed": fit(mixed, cfg),
                "scalar": scalar_fit(), "one-bin": one_bin}

    @pytest.mark.parametrize("kind", ["dense", "sparse", "mixed", "scalar", "one-bin"])
    def test_bitwise(self, models, kind):
        model = models[kind]
        rng = np.random.default_rng(50)
        grid = model.s_grid.points
        modes = set()
        for z in np.concatenate([[0.0, 1.0], model.partition.centers, rng.uniform(0, 1, 8)]):
            for x_obs in (
                    np.column_stack([grid, rng.normal(size=grid.size)]),
                    np.column_stack([np.arange(31) / 3.0, rng.normal(size=31)])[::-1],
                    np.column_stack([rng.uniform(0, 10, 5), rng.normal(size=5)]),
                    np.array([[4.0, 1.0], [4.0, 2.0], [1.5, 0.5]]),
                    np.array([[7.25, -1.0]])):
                got = predict(model, x_obs, z)
                want, mode = reference.predict(model, x_obs, z)
                assert got.mode == mode
                assert np.array_equal(got.y_hat if kind == "scalar" else got.y_hat.values,
                                      want), (kind, z)
                modes.add(mode)
        assert modes == {"dense", "sparse"}


def summed_refine(model, z):
    """The refinement written bin by bin: Python sums of weighted raw
    estimates."""
    w = local_linear_weights(model.partition.centers, z, model.refine_bandwidth, model.kernel)
    mean_x = sum(wp * b.mean_x.values for wp, b in zip(w, model.bins))
    beta = sum(wp * b.raw_beta.values for wp, b in zip(w, model.bins))
    if model.scalar_response:
        mean_y = float(sum(wp * b.mean_y for wp, b in zip(w, model.bins)))
    else:
        mean_y = sum(wp * b.mean_y.values for wp, b in zip(w, model.bins))
    return mean_x, mean_y, beta


def scalar_fit():
    rng = np.random.default_rng(92)
    subjects = []
    for i in range(40):
        times = np.sort(rng.uniform(0, 10, 8))
        x = np.sin(times) + rng.normal(0, 0.3, 8)
        y = float(x.mean() + rng.normal(0, 0.2))
        subjects.append(Subject(f"s{i}", rng.uniform(0, 1), times, x, None, np.array([y])))
    ds = LongitudinalDataset(subjects, (0, 10), None, (0, 1), scalar_response=True)
    return fit(ds, FitConfig(n_bins=3, truncation=(2, None), refine_bandwidth=0.4,
                             bandwidth_policy="default", min_bin_count=2))


class TestServingStacks:
    @pytest.fixture(scope="class")
    def models(self, small_fit, tmp_path_factory):
        scalar = scalar_fit()
        out = {}
        for name, model in (("functional", small_fit), ("scalar", scalar)):
            path = tmp_path_factory.mktemp("stacks") / "model.json"
            save_model(model, path)
            out[name, "fitted"] = model
            out[name, "reloaded"] = load_model(path)
            out[name, "replaced"] = replace(model, refine_bandwidth=0.55)
        return out

    @pytest.mark.parametrize("kind", ["functional", "scalar"])
    @pytest.mark.parametrize("source", ["fitted", "reloaded", "replaced"])
    def test_refine_matches_per_bin_sums(self, models, kind, source):
        model = models[kind, source]
        for z in np.linspace(0.0, 1.0, 23):
            got = refine(model, z)
            want = summed_refine(model, z)
            for g, w in zip((got[0].values, got[1], got[2].values), want):
                g = np.asarray(getattr(g, "values", g))
                scale = max(1.0, float(np.max(np.abs(w))))
                assert np.max(np.abs(g - w)) <= 1e-13 * scale, (kind, source, z)

    def test_stacks_shapes(self, models):
        f, sc = models["functional", "fitted"], models["scalar", "fitted"]
        p, g = f.n_bins, f.s_grid.n
        assert f.mean_x_stack.shape == (p, g)
        assert f.mean_y_stack.shape == (p, f.t_grid.n)
        assert f.raw_beta_stack.shape == (p, g, f.t_grid.n)
        assert sc.mean_y_stack.shape == (sc.n_bins,)
        assert sc.raw_beta_stack.shape == (sc.n_bins, sc.s_grid.n)

    def test_stacks_stay_out_of_repr_and_file(self, models, tmp_path):
        model = models["functional", "fitted"]
        assert "_stack" not in repr(model)
        first, again = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, first)
        save_model(load_model(first), again)
        assert "_stack" not in first.read_text()
        assert first.read_bytes() == again.read_bytes()

    def test_bin_without_slope_loads_but_does_not_refine(self, small_fit, tmp_path):
        bins = list(small_fit.bins)
        bins[1] = replace(bins[1], raw_beta=None)
        model = replace(small_fit, bins=bins)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.bins[1].raw_beta is None and back.raw_beta_stack is None
        for m in (model, back):
            with pytest.raises(ModelFormatError, match="no raw slope"):
                refine(m, 0.5)


class TestGlobalEquivalence:
    def test_fit_p1_equals_fit_global_predictions_1000(self):
        rng = np.random.default_rng(47)
        cases = 0
        fits = 0
        while cases < 1000:
            seed = 400 + fits
            fits += 1
            ds, _ = generate(REGULAR, 12, seed=seed)
            cfg = FitConfig(n_bins=1, truncation=(2, 2), refine_bandwidth=0.4,
                            bandwidth_policy="default", grid_size=15)
            m1 = fit(ds, cfg)
            m2 = fit_global(ds, cfg)
            for _ in range(25):
                z = rng.uniform(0, 1)
                times = np.sort(rng.uniform(0, 10, 6))
                u = rng.normal(size=6)
                x_obs = np.column_stack([times, u])
                p1 = predict(m1, x_obs, z).y_hat.values
                p2 = predict(m2, x_obs, z).y_hat.values
                assert np.max(np.abs(p1 - p2)) < 1e-12
                cases += 1

    def test_global_beats_nothing_on_flat_effect(self):
        # with a covariate-independent slope, both models should be close
        from vcflr.evaluate import predict_dataset
        from vcflr.simulation import mispe
        rng = np.random.default_rng(48)
        grid = make_grid(0, 10, 51)
        psi3 = basis(grid.points)

        def gen_flat(n, seed):
            r = np.random.default_rng(seed)
            subjects = []
            zs = np.empty(n)
            curves = np.empty((n, 51))
            times = np.arange(31) / 3.0
            psi_t = basis(times)
            for i in range(n):
                z = r.uniform(0, 1)
                zeta = r.normal(0, np.sqrt(RHO))
                u = times + np.sin(times) + psi_t @ zeta + r.normal(0, 1, 31)
                cond = times + np.sin(times) + psi_t @ zeta
                v = cond + r.normal(0, 1, 31)
                subjects.append(Subject(f"s{i}", z, times, u, times, v))
                zs[i] = z
                curves[i] = grid.points + np.sin(grid.points) + psi3 @ zeta
            from vcflr.simulation import SimTruth
            ds = LongitudinalDataset(subjects, (0, 10), (0, 10), (0, 1))
            truth = SimTruth(grid, [s.id for s in subjects], zs,
                             np.zeros((n, 3)), np.zeros((n, 3)), curves)
            return ds, truth

        train, _ = gen_flat(150, 49)
        test, truth = gen_flat(80, 50)
        cfg = FitConfig(n_bins=4, truncation=(3, 3), refine_bandwidth=0.3,
                        bandwidth_policy="default", min_bin_count=2)
        vc = fit(train, cfg)
        gl = fit_global(train, cfg)
        m_vc = mispe(truth, predict_dataset(vc, test))
        m_gl = mispe(truth, predict_dataset(gl, test))
        assert m_vc < 2 * m_gl and m_gl < 2 * m_vc


def _scaled(ds, c: float):
    """The dataset with both streams' values multiplied by c."""
    return replace(ds, subjects=[replace(s, x_values=c * s.x_values, y_values=c * s.y_values)
                                 for s in ds.subjects])


class TestUnitFree:
    """A change of the data's units changes no choice: values scaled by a
    power of two, which scales floating-point arithmetic exactly barring
    underflow, give the same (P, M, K, b), covariance and cross surfaces
    scaled by c² and predictions by c. An absolute floor on the noise
    variances used to pick P=4, (1, 1), b=0.5 at c = 2^-40."""

    @pytest.fixture(scope="class", params=["regular", "sparse"])
    def fits(self, request):
        design = REGULAR if request.param == "regular" else SPARSE
        ds, _ = generate(design, 200, seed=7)
        test, _ = generate(design, 10, seed=107)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return {k: (fit(_scaled(ds, 2.0 ** k), FitConfig(n_bins=None)), 2.0 ** k)
                    for k in (0, -40, 40)}, test

    @staticmethod
    def chosen(model):
        return model.n_bins, model.truncation, model.refine_bandwidth

    @pytest.mark.parametrize("k", [-40, 40])
    def test_same_choices_and_scaled_outputs(self, fits, k):
        models, test = fits
        base, _ = models[0]
        model, c = models[k]
        assert self.chosen(model) == self.chosen(base)

        def close(got, want, scale):
            want = scale * np.asarray(want)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        for got, want in zip(model.bins, base.bins):
            for name in ("cov_x", "cov_y", "cross"):
                close(getattr(got, name).values, getattr(want, name).values, c * c)
            close(got.eig_x.values, want.eig_x.values, c * c)
        for sub in test.subjects:
            got = predict(model, np.column_stack([sub.x_times, c * sub.x_values]), sub.z)
            want = predict(base, np.column_stack([sub.x_times, sub.x_values]), sub.z)
            close(got.y_hat.values, want.y_hat.values, c)
