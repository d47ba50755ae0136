import dataclasses
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from vcflr import regression, smoothing
from vcflr.data import LongitudinalDataset, Subject
from vcflr.errors import InsufficientLocalData
from vcflr.fpca import (
    VARIANCE_FLOOR,
    aggregate_1d,
    estimate_mean,
    observation_covariance,
)
from vcflr.grids import GridSurface, make_grid
from vcflr.kernels import Kernel1D
from vcflr.regression import FitConfig, fit, predict
from vcflr.selection import (
    _RefinementResiduals,
    _cv_choice,
    cv_errors,
    cv_smoother_bandwidth,
    select_bandwidth,
    select_binwidth,
    select_truncation,
)
from vcflr.simulation import REGULAR, SPARSE, generate
from vcflr.smoothing import (
    LocalFitConfig,
    local_linear_1d_at,
    local_linear_2d_at,
    lp_weights,
    smoothing_matrix,
)

from reference import aggregate_2d, raw_covariances, raw_cross_products


@pytest.fixture(scope="module")
def fitted():
    ds, _ = generate(REGULAR, 80, seed=60)
    cfg = FitConfig(n_bins=4, truncation=(3, 3), refine_bandwidth=0.3,
                    bandwidth_policy="default", min_bin_count=2)
    return ds, fit(ds, cfg)


class TestSelectTruncation:
    def test_perfect_fit_prefers_smallest(self, fitted):
        # zero residuals leave only the penalty, which grows with the order
        import copy
        ds, model = fitted
        bins = copy.deepcopy(model.bins)
        subjects_by_bin = []
        for p, b in enumerate(bins):
            subs = []
            for i in model.partition.index_sets[p][:5]:
                src = ds.subjects[i]
                subs.append(Subject(src.id, src.z, src.x_times,
                                    b.mean_x.at(src.x_times), src.y_times,
                                    b.mean_y.at(src.y_times)))
            subjects_by_bin.append(subs)
        m, k, tables = select_truncation(bins, subjects_by_bin, (1, 2, 3), "AIC",
                                         n_total=20)
        assert (m, k) == (1, 1)
        # with zero residuals consecutive criterion values differ by the
        # penalty increment exactly: 2P for AIC
        for table in (tables["M"], tables["K"]):
            diffs = np.diff([score for _, score in table])
            assert np.allclose(diffs, 2.0 * len(bins), atol=1e-6)

    def test_bic_penalty_increment(self, fitted):
        import copy
        ds, model = fitted
        bins = copy.deepcopy(model.bins)
        subjects_by_bin = []
        for p, b in enumerate(bins):
            subs = []
            for i in model.partition.index_sets[p][:5]:
                src = ds.subjects[i]
                subs.append(Subject(src.id, src.z, src.x_times,
                                    b.mean_x.at(src.x_times), src.y_times,
                                    b.mean_y.at(src.y_times)))
            subjects_by_bin.append(subs)
        n_total = 400
        _, _, tables = select_truncation(bins, subjects_by_bin, (1, 2, 3), "BIC",
                                         n_total=n_total)
        diffs = np.diff([score for _, score in tables["K"]])
        assert np.allclose(diffs, math.log(n_total) * len(bins), atol=1e-6)
        # spot check the absolute penalty arithmetic: P=8, K=3
        assert 2 * 8 * 3 == 48
        assert 8 * 3 * math.log(400) == pytest.approx(143.8, abs=0.05)

    def test_candidates_beyond_available_skipped(self, fitted):
        ds, model = fitted
        subjects_by_bin = [[ds.subjects[i] for i in model.partition.index_sets[p]]
                           for p in range(model.n_bins)]
        cap = min(b.eig_y.n_components for b in model.bins)
        with pytest.warns(UserWarning, match="skipping truncation"):
            m, k, _ = select_truncation(model.bins, subjects_by_bin,
                                        tuple(range(1, cap + 3)), "BIC",
                                        n_total=ds.n)
        assert k <= cap


def recompute_truncation_table(bins, subjects_by_bin, candidates, stream, criterion,
                               n_total):
    """Independent re-derivation of the truncation criterion: one dense
    observation covariance over every retained component and one
    np.linalg.solve per subject."""
    pen_scale = 2.0 if criterion == "AIC" else math.log(n_total)
    table = {}
    for c in candidates:
        total = 0.0
        for bb, subjects in zip(bins, subjects_by_bin):
            eig = bb.eig_x if stream == "x" else bb.eig_y
            mean = bb.mean_x if stream == "x" else bb.mean_y
            sigma2 = max(bb.sigma2_x if stream == "x" else bb.sigma2_y,
                         VARIANCE_FLOOR * eig.values[0])
            for sub in subjects:
                times = sub.x_times if stream == "x" else sub.y_times
                values = sub.x_values if stream == "x" else sub.y_values
                resid = values - np.interp(times, mean.grid.points, mean.values)
                phi = np.column_stack([np.interp(times, eig.grid.points, eig.functions[:, k])
                                       for k in range(c)])
                sig = observation_covariance(times, eig, sigma2)
                scores = eig.values[:c] * (phi.T @ np.linalg.solve(sig, resid))
                eps = resid - phi @ scores
                total += float(eps @ eps) / sigma2 \
                    + times.size * (math.log(2 * math.pi) + math.log(sigma2))
        table[c] = total + pen_scale * len(bins) * c
    return table


def predicted_residual_term(model, ds, b):
    """The refined-fit deviance built from ``predict`` itself: every subject
    predicted at refinement bandwidth b from its own predictor observations
    and covariate, its residuals taken at its response times, summed over
    sigma2 (the variance of the responses for a scalar response), plus
    N log(2 pi sigma2)."""
    at_b = replace(model, refine_bandwidth=b)
    if model.scalar_response:
        y = np.array([sub.y_scalar for sub in ds.subjects])
        sigma2 = max(float(np.var(y)), VARIANCE_FLOOR * float(np.mean(y * y)))
    else:
        lead = np.mean([bb.eig_y.values[0] for bb in model.bins])
        sigma2 = max(model.sigma2_y, VARIANCE_FLOOR * lead)
    total = 0.0
    n_obs = 0
    for sub in ds.subjects:
        y_hat = predict(at_b, np.column_stack([sub.x_times, sub.x_values]), sub.z).y_hat
        eps = sub.y_values - (y_hat if model.scalar_response else y_hat.at(sub.y_times))
        total += float(eps @ eps)
        n_obs += eps.size
    return total / sigma2 + n_obs * (math.log(2 * math.pi) + math.log(sigma2))


def recompute_bandwidth_table(model, ds, candidates, criterion):
    """Independent re-derivation of the refined-fit criterion: the deviance
    of ``predict``'s predictions of the subjects plus the penalty. The
    refinement weights over the bin centers are local linear; the smoother
    trace tr(SᵀS) is the sum of squares of their rows at the centers.
    """
    pen_scale = 2.0 if criterion == "AIC" else math.log(ds.n)
    table = {}
    for b in candidates:
        rows = (lp_weights(0, 1, model.partition.centers, c, b, model.kernel)
                for c in model.partition.centers)
        trace = sum(float(r @ r) for r in rows)
        table[b] = predicted_residual_term(model, ds, b) + pen_scale * trace
    return table


def _scalar_version(ds):
    """The dataset with each response replaced by its mean, as a scalar."""
    subjects = [Subject(s.id, s.z, s.x_times, s.x_values, None,
                        np.array([float(s.y_values.mean())])) for s in ds.subjects]
    return LongitudinalDataset(subjects, ds.s_domain, None, ds.z_domain,
                               scalar_response=True)


class TestTruncationOracle:
    def test_matches_per_subject_recompute_on_sparse_design(self):
        ds, _ = generate(SPARSE, 150, seed=70)
        cfg = FitConfig(n_bins=3, truncation=None, refine_bandwidth=0.3,
                        bandwidth_policy="default", min_bin_count=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # skipped truncation candidates
            model = fit(ds, cfg)
        subjects_by_bin = [[ds.subjects[i] for i in model.partition.index_sets[p]]
                           for p in range(model.n_bins)]
        for name, stream in (("M", "x"), ("K", "y")):
            table = model.selection.tables[name]
            oracle = recompute_truncation_table(
                model.bins, subjects_by_bin, [c for c, _ in table], stream, "BIC", ds.n)
            assert len(table) >= 2
            for cand, score in table:
                assert score == pytest.approx(oracle[cand], rel=1e-9)


class TestSelectBandwidth:
    def test_scalar_response_matches_recompute(self):
        scalar = _scalar_version(generate(SPARSE, 150, seed=69)[0])
        model = fit(scalar, FitConfig(n_bins=4, truncation=(3, None), refine_bandwidth=0.3,
                                      bandwidth_policy="default", min_bin_count=2))
        candidates = (0.2, 0.3, 0.5)
        b_star, table, _ = select_bandwidth(model, scalar, candidates, "AIC")
        oracle = recompute_bandwidth_table(model, scalar, candidates, "AIC")
        assert len(table) == len(candidates)
        for cand, score in table:
            assert score == pytest.approx(oracle[cand], rel=1e-9)
        assert b_star == min(oracle, key=oracle.get)

    def test_matches_independent_recompute(self, fitted):
        ds, model = fitted
        candidates = (0.15, 0.3, 0.5)
        b_star, table, _ = select_bandwidth(model, ds, candidates, "BIC")
        oracle = recompute_bandwidth_table(model, ds, candidates, "BIC")
        for cand, score in table:
            assert score == pytest.approx(oracle[cand], rel=1e-9)
        assert b_star == min(oracle, key=oracle.get)

    def test_matches_recompute_with_shared_and_unique_times(self):
        # half the subjects keep the design's common time vector, half get
        # their own, so the per-time-vector precomputation is both reused
        # and rebuilt
        ds, _ = generate(REGULAR, 80, seed=68)
        rng = np.random.default_rng(68)
        subjects = []
        for i, s in enumerate(ds.subjects):
            if i % 2:
                x_t = np.clip(s.x_times + rng.uniform(-0.1, 0.1, s.n_x), 0.0, 10.0)
                y_t = np.clip(s.y_times + rng.uniform(-0.1, 0.1, s.n_y), 0.0, 10.0)
                s = Subject(s.id, s.z, x_t, s.x_values, y_t, s.y_values)
            subjects.append(s)
        mixed = LongitudinalDataset(subjects, ds.s_domain, ds.t_domain, ds.z_domain)
        assert len({s.x_times.tobytes() for s in subjects}) == len(subjects) // 2 + 1
        cfg = FitConfig(n_bins=4, truncation=(3, 3), refine_bandwidth=0.3,
                        bandwidth_policy="default", min_bin_count=2)
        model = fit(mixed, cfg)
        candidates = (0.15, 0.3, 0.5)
        _, table, _ = select_bandwidth(model, mixed, candidates, "BIC")
        oracle = recompute_bandwidth_table(model, mixed, candidates, "BIC")
        assert len(table) == len(candidates)
        for cand, score in table:
            assert score == pytest.approx(oracle[cand], rel=1e-9)

    def test_single_bin_ties_prefer_larger(self):
        ds, _ = generate(REGULAR, 30, seed=61)
        cfg = FitConfig(n_bins=1, truncation=(2, 2), refine_bandwidth=0.3,
                        bandwidth_policy="default")
        model = fit(ds, cfg)
        b_star, table, _ = select_bandwidth(model, ds, (0.1, 0.2, 0.4), "AIC")
        scores = [s for _, s in table]
        assert np.allclose(scores, scores[0])    # identical residuals and trace
        assert b_star == 0.4

    def test_unknown_criterion_raises(self, fitted):
        ds, model = fitted
        with pytest.raises(ValueError, match="'aic'"):
            select_bandwidth(model, ds, (0.3,), "aic")
        with pytest.raises(ValueError, match="'aic'"):
            select_binwidth([model], "aic", ds.n)

    def test_tiny_bandwidth_trace_is_bin_count(self, fitted):
        ds, model = fitted
        _, trace = smoothing_matrix(model.partition.centers, 1e-9, model.kernel)
        assert trace == pytest.approx(model.n_bins)


def _half_thinned(ds, seed):
    """Every other subject keeps 4 of its predictor observations, which
    leaves gaps wider than two grid spacings, so predict reconstructs it
    from scores; the rest stay dense."""
    rng = np.random.default_rng(seed)
    subjects = []
    for i, s in enumerate(ds.subjects):
        if i % 2:
            keep = np.sort(rng.choice(s.n_x, 4, replace=False))
            s = Subject(s.id, s.z, s.x_times[keep], s.x_values[keep], s.y_times, s.y_values)
        subjects.append(s)
    return LongitudinalDataset(subjects, ds.s_domain, ds.t_domain, ds.z_domain)


class TestResidualTermIsPredict:
    """The refined-fit criterion scores exactly the predictions ``predict``
    deploys: dense and sparse subjects, functional and scalar responses,
    and bandwidths at which some subject's weights widen."""

    CASES = {
        "regular": lambda: generate(REGULAR, 80, seed=71)[0],
        "sparse": lambda: generate(SPARSE, 150, seed=72)[0],
        "scalar": lambda: _scalar_version(generate(SPARSE, 150, seed=73)[0]),
        "mixed": lambda: _half_thinned(generate(REGULAR, 80, seed=74)[0], 74),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_the_predict_built_sum(self, case):
        ds = self.CASES[case]()
        trunc = (3, None) if ds.scalar_response else (3, 3)
        model = fit(ds, FitConfig(n_bins=4, truncation=trunc, refine_bandwidth=0.3,
                                  bandwidth_policy="default", min_bin_count=2))
        modes = {predict(model, np.column_stack([s.x_times, s.x_values]), s.z).mode
                 for s in ds.subjects}
        assert modes == ({"dense", "sparse"} if case == "mixed" else
                         {"dense"} if case == "regular" else {"sparse"})
        prep = _RefinementResiduals(model, ds)
        # at b = 0.1 no center of the four bins lies within b of z = 0.25,
        # so the weights of the subjects around it widen
        z = ds.z_values()
        assert (np.abs(z[:, None] - model.partition.centers).min(axis=1) > 0.1).any()
        for b in (0.1, 0.3, 0.6):
            assert prep.residual_term(b) == pytest.approx(
                predicted_residual_term(model, ds, b), rel=1e-10)


class TestSelectBinwidth:
    def test_single_candidate_returned(self):
        ds, _ = generate(REGULAR, 60, seed=62)
        cfg = FitConfig(n_bins=None, bin_candidates=(3,), truncation=(2, 2),
                        bandwidth_policy="default", min_bin_count=2)
        model = fit(ds, cfg)
        assert model.n_bins == 3
        assert len(model.selection.tables["P"]) == 1

    def test_occupancy_violators_skipped(self):
        ds, _ = generate(REGULAR, 30, seed=63)
        cfg = FitConfig(n_bins=None, bin_candidates=(2, 16), truncation=(2, 2),
                        bandwidth_policy="default", min_bin_count=8)
        with pytest.warns(UserWarning, match="occupancy"):
            model = fit(ds, cfg)
        assert model.n_bins == 2
        assert [c for c, _ in model.selection.tables["P"]] == [2]

    def test_penalty_uses_2mkp(self):
        ds, _ = generate(REGULAR, 60, seed=64)
        cfg = FitConfig(truncation=(3, 3), bandwidth_policy="default",
                        min_bin_count=2)
        auto = fit(ds, replace(cfg, n_bins=None, bin_candidates=(2, 3)))
        # recompute each candidate's score independently
        models = [fit(ds, replace(cfg, n_bins=p, refine_bandwidth=None)) for p in (2, 3)]
        resid = [_RefinementResiduals(m, ds).residual_term(m.refine_bandwidth)
                 for m in models]
        for (cand, score), r in zip(auto.selection.tables["P"], resid):
            assert score == pytest.approx(r + 2.0 * 3 * 3 * cand, rel=1e-9)
        _, bic_table = select_binwidth(models, "BIC", ds.n)
        for (cand, score), r in zip(bic_table, resid):
            assert score == pytest.approx(r + math.log(ds.n) * 3 * 3 * cand, rel=1e-9)

    def test_ties_prefer_fewer_bins(self):
        ds, _ = generate(REGULAR, 60, seed=64)
        cfg = FitConfig(truncation=(3, 3), bandwidth_policy="default",
                        min_bin_count=2)
        small, large = (fit(ds, replace(cfg, n_bins=p, refine_bandwidth=None))
                        for p in (2, 3))
        # equal penalized scores: 100 + 2*3*3*2 == 82 + 2*3*3*3
        small.selection.refined_residual = 100.0
        large.selection.refined_residual = 82.0
        winner, table = select_binwidth([large, small], "AIC", ds.n)
        assert winner is small
        assert [c for c, _ in table] == [2, 3]
        assert table[0][1] == table[1][1]


def assert_same(a, b, path):
    """Exact recursive equality of model parts (dataclasses, arrays, containers)."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), path
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_same(a[key], b[key], f"{path}[{key!r}]")
    else:
        assert a == b, path


class TestAutoSelectedFit:
    @pytest.fixture(scope="class")
    def data(self):
        ds, _ = generate(REGULAR, 80, seed=67)
        return ds

    def test_winner_equals_fit_at_chosen_settings(self, data):
        cfg = FitConfig(n_bins=None)
        auto = fit(data, cfg)
        chosen = auto.selection.chosen
        fixed = fit(data, replace(cfg, n_bins=chosen["P"], refine_bandwidth=chosen["b"]))
        for f in dataclasses.fields(auto):
            if f.name != "selection":
                assert_same(getattr(auto, f.name), getattr(fixed, f.name), f.name)
        assert chosen == fixed.selection.chosen
        for name in ("M", "K"):
            assert_same(auto.selection.tables[name], fixed.selection.tables[name], name)
        # the winner keeps its own refinement-bandwidth table
        assert chosen["b"] in dict(auto.selection.tables["b"])

    def test_each_candidate_fitted_once(self, data, monkeypatch):
        centers = []
        real = regression.fit_bin

        def counting(subjects, center, *args, **kwargs):
            centers.append(center)
            return real(subjects, center, *args, **kwargs)

        monkeypatch.setattr(regression, "fit_bin", counting)
        model = fit(data, FitConfig(n_bins=None, bin_candidates=(3, 4)))
        assert len(centers) == 3 + 4
        assert model.n_bins in (3, 4)


class TestCvSmootherBandwidth:
    def make_subjects(self, n, seed, affine=False):
        rng = np.random.default_rng(seed)
        subjects = []
        for i in range(n):
            st_ = np.sort(rng.uniform(0, 10, 8))
            tt = np.sort(rng.uniform(0, 10, 6))
            if affine:
                x = 1.0 + 0.5 * st_
                y = 2.0 - 0.25 * tt
            else:
                x = np.sin(st_) + rng.normal(0, 0.4, 8)
                y = np.cos(tt) + rng.normal(0, 0.4, 6)
            subjects.append(Subject(f"s{i}", rng.uniform(0, 1), st_, x, tt, y))
        return subjects

    def test_noiseless_affine_ties_to_largest(self):
        subjects = self.make_subjects(20, 65, affine=True)
        grid = make_grid(0, 10, 21)
        got = cv_smoother_bandwidth(subjects, "mean_x", 4, (2.0, 3.0, 4.0),
                                    grid, grid)
        assert got == 4.0

    def test_fold_count_exceeds_subjects(self):
        subjects = self.make_subjects(3, 66)
        grid = make_grid(0, 10, 11)
        with pytest.raises(ValueError):
            cv_smoother_bandwidth(subjects, "mean_x", 5, (2.0,), grid, grid)

    def test_interior_argmin_for_wiggly_mean(self):
        # CV should reject strong oversmoothing of a curved mean
        hits = 0
        grid = make_grid(0, 10, 31)
        for seed in range(8):
            subjects = self.make_subjects(40, 70 + seed)
            cands = (0.75, 1.5, 3.0, 6.0, 12.0)
            got = cv_smoother_bandwidth(subjects, "mean_x", 5, cands, grid, grid)
            if got < 12.0:
                hits += 1
        assert hits >= 7

    def test_infeasible_candidates_skipped(self):
        subjects = self.make_subjects(10, 80)
        grid = make_grid(0, 10, 21)
        got = cv_smoother_bandwidth(subjects, "mean_x", 3, (0.01, 5.0), grid, grid)
        assert got == 5.0

    def test_covariance_kind_runs(self):
        subjects = self.make_subjects(25, 81)
        grid = make_grid(0, 10, 15)
        got = cv_smoother_bandwidth(subjects, "cov_x", 5,
                                    ((2.0, 2.0), (4.0, 4.0)), grid, grid,
                                    mean_bandwidths=(2.0, 2.0))
        assert got in ((2.0, 2.0), (4.0, 4.0))

    def test_scalar_response_has_no_cross_kind(self):
        subjects = self.make_subjects(10, 83)
        grid = make_grid(0, 10, 21)
        with pytest.raises(ValueError, match="response grid"):
            cv_smoother_bandwidth(subjects, "cross", 5, (2.0,), grid, None,
                                  mean_bandwidths=(2.0, None))

    def test_all_fail_raises(self):
        subjects = self.make_subjects(10, 82)
        grid = make_grid(0, 10, 21)
        with pytest.raises(InsufficientLocalData):
            cv_smoother_bandwidth(subjects, "mean_x", 3, (0.001,), grid, grid)


class TestCvTieRule:
    """Errors within rounding of the least are ties; ties go to the larger
    bandwidth, and real differences are not ties."""

    def test_exact_tie(self):
        assert _cv_choice([(2.0, 1.5), (3.0, 1.5), (4.0, 1.6)], scale=10.0) == 3.0
        assert _cv_choice([((2.0, 2.5), 0.7), ((3.0, 3.5), 0.7)], scale=1.0) == (3.0, 3.5)

    def test_rounding_noise_ties(self):
        # the held-out errors of three exact affine fits: rounding noise
        rows = [(2.0, 4.2e-29), (3.0, 1.3e-28), (4.0, 9.6e-29)]
        assert _cv_choice(rows, scale=2.0e3) == 4.0

    def test_real_gap_is_not_a_tie(self):
        assert _cv_choice([(2.0, 1.0), (3.0, 1.0 + 1e-9)], scale=1.0e3) == 2.0
        assert _cv_choice([(2.0, 1.0 + 1e-9), (3.0, 1.0)], scale=1.0e3) == 3.0


def oracle_cv_errors(subjects, kind, n_folds, candidates, s_grid, t_grid,
                     kernel=Kernel1D(), mean_bandwidths=None):
    """The per-candidate loop: each fold's training data re-aggregated for
    every candidate, held-out subjects scored one at a time."""
    folds = np.arange(len(subjects)) % n_folds
    if kind in ("mean_x", "mean_y"):
        x = kind == "mean_x"
        grid = s_grid if x else t_grid
        pts = [(s.x_times if x else s.y_times, s.x_values if x else s.y_values)
               for s in subjects]
    else:
        def mean(stream):
            grid = s_grid if stream == "x" else t_grid
            bw = mean_bandwidths[0 if stream == "x" else 1]
            return estimate_mean(
                np.concatenate([getattr(s, f"{stream}_times") for s in subjects]),
                np.concatenate([getattr(s, f"{stream}_values") for s in subjects]),
                LocalFitConfig(bw, kernel), grid)
        if kind == "cross":
            grids = (s_grid, t_grid)
            mean_x, mean_y = mean("x"), mean("y")
            per_subject_raw = [raw_cross_products([s], mean_x, mean_y) for s in subjects]
        else:
            stream = kind[-1]
            grids = (s_grid, s_grid) if stream == "x" else (t_grid, t_grid)
            m = mean(stream)
            per_subject_raw = [raw_covariances([s], m, stream)[0] for s in subjects]
    results = []
    for cand in candidates:
        sse = 0.0
        ok = True
        for f in range(n_folds):
            train = [i for i in range(len(subjects)) if folds[i] != f]
            test = [i for i in range(len(subjects)) if folds[i] == f]
            try:
                if kind in ("mean_x", "mean_y"):
                    xu, ybar, w = aggregate_1d(np.concatenate([pts[i][0] for i in train]),
                                               np.concatenate([pts[i][1] for i in train]))
                    curve = local_linear_1d_at(xu, ybar, grid.points, float(cand),
                                               kernel=kernel, weights=w)
                    for i in test:
                        pred = np.interp(pts[i][0], grid.points, curve)
                        sse += float(np.sum((pts[i][1] - pred) ** 2))
                else:
                    tr = np.vstack([per_subject_raw[i] for i in train])
                    x1, x2, ybar, w = aggregate_2d(tr[:, 0], tr[:, 1], tr[:, 2])
                    surf = GridSurface(grids[0], grids[1], local_linear_2d_at(
                        x1, x2, ybar, grids[0].points, grids[1].points, tuple(cand),
                        kernel=kernel, weights=w))
                    for i in test:
                        r = per_subject_raw[i]
                        sse += float(np.sum((r[:, 2] - surf.at(r[:, 0], r[:, 1])) ** 2))
            except InsufficientLocalData:
                ok = False
                break
        if ok:
            results.append((cand, sse))
    return results


def oracle_choice(results):
    """Smallest error; the larger bandwidth on exact ties."""
    best = None
    for cand, sse in sorted(results, key=lambda r: np.atleast_1d(r[0])[0], reverse=True):
        if best is None or sse < best[1]:
            best = (cand, sse)
    return best[0]


class TestCvAgainstPerCandidateLoop:
    """Folds prepared once give the errors and the choice of the loop that
    re-aggregates every fold for every candidate."""

    MEANS = (2.0, 2.0)
    CANDIDATES = {
        "mean_x": (0.75, 1.5, 3.0), "mean_y": (0.75, 1.5, 3.0),
        "cov_x": ((1.5, 1.5), (2.5, 2.5), (4.0, 4.0)),
        "cov_y": ((2.5, 2.5), (4.0, 4.0), (6.0, 6.0)),
        "cross": ((1.5, 2.0), (2.5, 3.0), (4.0, 4.0)),
    }

    @staticmethod
    def subjects(n, seed, lattice=False):
        """Noisy subjects; on a lattice, times repeat within and across them."""
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            nx, ny = rng.integers(1, 9), rng.integers(1, 7)
            if lattice:
                st_, tt = rng.integers(0, 21, nx) * 0.5, rng.integers(0, 21, ny) * 0.5
            else:
                st_, tt = rng.uniform(0, 10, nx), rng.uniform(0, 10, ny)
            out.append(Subject(f"s{i}", 0.5, st_, np.sin(st_) + rng.normal(0, 0.4, nx),
                               tt, np.cos(tt) + rng.normal(0, 0.4, ny)))
        return out

    @staticmethod
    def assert_same(got, want):
        assert [c for c, _ in got] == [c for c, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a == pytest.approx(b, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lattice", [False, True])
    @pytest.mark.parametrize("kind", ["mean_x", "mean_y", "cov_x", "cov_y", "cross"])
    def test_every_kind(self, kind, lattice):
        subjects = self.subjects(30, 140, lattice)
        s_grid, t_grid = make_grid(0, 10, 21), make_grid(0, 10, 17)
        cands = self.CANDIDATES[kind]
        means = None if kind.startswith("mean") else self.MEANS
        got, _ = cv_errors(subjects, kind, 5, cands, s_grid, t_grid, mean_bandwidths=means)
        want = oracle_cv_errors(subjects, kind, 5, cands, s_grid, t_grid,
                                mean_bandwidths=means)
        assert len(want) >= 2
        self.assert_same(got, want)
        assert cv_smoother_bandwidth(subjects, kind, 5, cands, s_grid, t_grid,
                                     mean_bandwidths=means) == oracle_choice(want)

    @pytest.mark.parametrize("kind, small, wide", [
        ("mean_x", 1.0, 3.0), ("cov_x", (2.0, 2.0), (4.0, 4.0)), ("mean_y", 1.0, 3.0),
        ("cov_y", (2.0, 2.0), (4.0, 4.0)), ("cross", (2.0, 2.0), (4.0, 4.0))])
    def test_candidate_failing_in_one_fold_is_skipped(self, kind, small, wide):
        # only subject 0 (fold 0) observes either stream near 10
        rng = np.random.default_rng(141)
        subjects = []
        for i in range(12):
            st_ = np.sort(rng.uniform(0, 8, 8))
            if i == 0:
                st_ = np.concatenate([st_, [9.3, 9.6, 9.9]])
            subjects.append(Subject(f"s{i}", 0.5, st_, np.sin(st_) + rng.normal(0, 0.3, st_.size),
                                    np.array([1.0, 2.0]), rng.normal(size=2)))
        # the response stream from a generator of its own, so the predictor
        # stream is the same for every kind; subject 0 observes it every 0.5,
        # so that a copy of it lets every fold fit each surface point
        rng_y = np.random.default_rng(241)
        for i, s in enumerate(subjects):
            tt = (np.concatenate([np.arange(0.25, 8, 0.5), [9.3, 9.6, 9.9]]) if i == 0
                  else np.sort(rng_y.uniform(0, 8, 8)))
            subjects[i] = replace(s, y_times=tt, y_values=np.cos(tt) + rng_y.normal(0, 0.3, tt.size))
        grid = make_grid(0, 10, 21)
        means = None if kind.startswith("mean") else (3.0, 3.0)
        cands = (small, wide)
        got, _ = cv_errors(subjects, kind, 3, cands, grid, grid, mean_bandwidths=means)
        want = oracle_cv_errors(subjects, kind, 3, cands, grid, grid, mean_bandwidths=means)
        assert [c for c, _ in want] == [wide]
        self.assert_same(got, want)
        # the small bandwidth fails only while subject 0 is held out: with a
        # copy of it in fold 1, every fold keeps data near s = 10
        copied = subjects[:1] + [replace(subjects[0], id="copy")] + subjects[1:]
        rows, _ = cv_errors(copied, kind, 3, cands, grid, grid, mean_bandwidths=means)
        assert [c for c, _ in rows] == [small, wide]
        assert cv_smoother_bandwidth(subjects, kind, 3, cands, grid, grid,
                                     mean_bandwidths=means) == wide

    @pytest.mark.parametrize("kind, cands", [
        ("mean_x", (1.2, 1.4)), ("cov_x", ((2.2, 2.2), (2.4, 2.4))), ("mean_y", (1.2, 1.4)),
        ("cov_y", ((2.2, 2.2), (2.4, 2.4))), ("cross", ((2.2, 2.2), (2.4, 2.4)))])
    def test_exact_tie_goes_to_larger_bandwidth(self, kind, cands):
        # integer times and grid: a uniform kernel of either width weighs the
        # same points equally, so both fits and errors are identical
        rng = np.random.default_rng(142)
        subjects = []
        for i in range(15):
            st_ = np.sort(rng.choice(11, 6, replace=False)).astype(float)
            subjects.append(Subject(f"s{i}", 0.5, st_, rng.normal(size=6),
                                    np.array([1.0]), np.array([0.0])))
        # the response stream from a generator of its own, so the predictor
        # stream is the same for every kind
        rng_y = np.random.default_rng(242)
        for i, s in enumerate(subjects):
            tt = np.sort(rng_y.choice(11, 6, replace=False)).astype(float)
            subjects[i] = replace(s, y_times=tt, y_values=rng_y.normal(size=6))
        grid = make_grid(0, 10, 11)
        uni = Kernel1D("uniform")
        means = None if kind.startswith("mean") else (3.0, 3.0)
        got, _ = cv_errors(subjects, kind, 3, cands, grid, grid, kernel=uni,
                           mean_bandwidths=means)
        want = oracle_cv_errors(subjects, kind, 3, cands, grid, grid, kernel=uni,
                                mean_bandwidths=means)
        self.assert_same(got, want)
        assert got[0][1] == got[1][1]
        assert cv_smoother_bandwidth(subjects, kind, 3, cands, grid, grid, kernel=uni,
                                     mean_bandwidths=means) == cands[1]


def fold_column_cv_errors(subjects, kind, n_folds, candidates, grid, kernel=Kernel1D()):
    """Mean-kind CV as one ``local_linear_1d_at`` call per candidate over
    the fold columns, each fold interpolated at every held-out observation."""
    x = kind == "mean_x"
    times = np.concatenate([s.x_times if x else s.y_times for s in subjects])
    values = np.concatenate([s.x_values if x else s.y_values for s in subjects])
    owner = np.repeat(np.arange(len(subjects)), [s.n_x if x else s.n_y for s in subjects])
    folds = (np.arange(len(subjects)) % n_folds)[owner]
    xu, group = np.unique(times, return_inverse=True)
    w = np.empty((xu.size, n_folds))
    ybar = np.zeros((xu.size, n_folds))
    for f in range(n_folds):
        train = folds != f
        w[:, f] = np.bincount(group[train], minlength=xu.size)
        sums = np.bincount(group[train], weights=values[train], minlength=xu.size)
        np.divide(sums, w[:, f], out=ybar[:, f], where=w[:, f] > 0)
    rows = []
    for cand in candidates:
        try:
            fitted = local_linear_1d_at(xu, ybar, grid.points, cand, kernel=kernel, weights=w)
        except InsufficientLocalData:
            continue
        sse = 0.0
        for f in range(n_folds):
            test = folds == f
            err = values[test] - np.interp(times[test], grid.points, fitted[:, f])
            sse += float(err @ err)
        rows.append((cand, sse))
    return rows


class TestMeanCvIsTheFoldColumnFit:
    """Mean-kind CV, counted once and scored at the distinct times, gives
    every row of fitting each candidate on the fold columns and
    interpolating at every held-out observation, bit for bit."""

    @staticmethod
    def tiled_subjects():
        # 4000 distinct times: several support tiles at the narrower widths
        rng = np.random.default_rng(143)
        out = []
        for i in range(400):
            st_, tt = np.sort(rng.uniform(0, 10, 10)), np.sort(rng.uniform(0, 10, 7))
            out.append(Subject(f"s{i}", 0.5, st_, np.sin(st_) + rng.normal(0, 0.4, 10),
                               tt, np.cos(tt) + rng.normal(0, 0.4, 7)))
        return out

    @pytest.mark.parametrize("kind", ["mean_x", "mean_y"])
    def test_several_tiles(self, kind):
        subjects = self.tiled_subjects()
        grid, cands = make_grid(0, 10, 51), (0.3, 0.6, 1.2, 2.4)
        n = sum(s.n_x if kind == "mean_x" else s.n_y for s in subjects)
        assert min(n // smoothing._TILE_POINTS_1D, int(10 / cands[1])) >= 2
        got, _ = cv_errors(subjects, kind, 5, cands, grid, grid)
        assert got == fold_column_cv_errors(subjects, kind, 5, cands, grid)
        assert len(got) == len(cands)

    @pytest.mark.parametrize("family, kept", [("uniform", [0.5, 1.0, 1.5, 3.0]),
                                              ("epanechnikov", [1.0, 1.5, 3.0])])
    @pytest.mark.parametrize("kind", ["mean_x", "mean_y"])
    def test_times_exactly_one_bandwidth_from_grid_points(self, kind, family, kept):
        # times on a 0.5 lattice, integer grid points: many times lie exactly
        # b from a grid point. At b = 0.5 a window holds its grid point and
        # those two ends, which only the uniform kernel's closed support weighs
        rng = np.random.default_rng(144)
        subjects = []
        for i in range(30):
            st_ = np.sort(rng.integers(0, 21, 6) * 0.5)
            tt = np.sort(rng.integers(0, 21, 5) * 0.5)
            subjects.append(Subject(f"s{i}", 0.5, st_, rng.normal(size=6), tt,
                                    rng.normal(size=5)))
        grid, kern, cands = make_grid(0, 10, 11), Kernel1D(family), (0.5, 1.0, 1.5, 3.0)
        got, _ = cv_errors(subjects, kind, 5, cands, grid, grid, kernel=kern)
        assert got == fold_column_cv_errors(subjects, kind, 5, cands, grid, kernel=kern)
        assert [c for c, _ in got] == kept

    @pytest.mark.parametrize("kind", ["mean_x", "mean_y"])
    def test_candidate_failing_in_one_fold(self, kind):
        # only subject 0 (fold 0) observes either stream beyond 8.5
        rng = np.random.default_rng(145)
        subjects = []
        for i in range(12):
            extra = [9.0, 9.4, 9.8] if i == 0 else []
            st_ = np.concatenate([np.sort(rng.uniform(0, 8, 8)), extra])
            tt = np.concatenate([np.sort(rng.uniform(0, 8, 6)), extra])
            subjects.append(Subject(f"s{i}", 0.5, st_, np.sin(st_) + rng.normal(0, 0.3, st_.size),
                                    tt, np.cos(tt) + rng.normal(0, 0.3, tt.size)))
        grid, cands = make_grid(0, 10, 21), (1.0, 3.0)
        got, _ = cv_errors(subjects, kind, 3, cands, grid, grid)
        assert [c for c, _ in got] == [3.0]
        assert got == fold_column_cv_errors(subjects, kind, 3, cands, grid)
        # with a copy of subject 0 in fold 1 every fold keeps data near 10
        copied = subjects[:1] + [replace(subjects[0], id="copy")] + subjects[1:]
        got, _ = cv_errors(copied, kind, 3, cands, grid, grid)
        assert [c for c, _ in got] == [1.0, 3.0]
        assert got == fold_column_cv_errors(copied, kind, 3, cands, grid)

    @pytest.mark.parametrize("kind", ["mean_x", "mean_y"])
    def test_one_moment_pass_per_surviving_candidate(self, kind, monkeypatch):
        calls = []
        real = smoothing.local_moments_1d

        def counting(x, eval_points, bandwidth, *args, **kwargs):
            calls.append(bandwidth)
            return real(x, eval_points, bandwidth, *args, **kwargs)

        monkeypatch.setattr(smoothing, "local_moments_1d", counting)
        subjects = TestCvAgainstPerCandidateLoop.subjects(30, 146)
        grid = make_grid(0, 10, 21)
        # 0.01 fails everywhere and 0.2 in some fold; neither forms moments
        cands = (0.01, 0.2, 1.5, 3.0)
        got, _ = cv_errors(subjects, kind, 5, cands, grid, grid)
        assert [c for c, _ in got] == [1.5, 3.0]
        assert calls == [1.5, 3.0]
