"""Cross-module pipeline behaviors: BLUP scores against fitted bins,
per-subject prediction quality versus the global baseline, bandwidth CV
on realistic bins, and a scalar response through full auto-selection,
saving and loading."""

import json
import math

import numpy as np

from vcflr.data import LongitudinalDataset, Subject
from vcflr.fpca import blup_scores
from vcflr.grids import make_grid
from vcflr.regression import FitConfig, fit, fit_global, predict
from vcflr.selection import cv_smoother_bandwidth
from vcflr.serialize import load_model, save_model
from vcflr.simulation import REGULAR, SPARSE, generate


class TestEstimateScores:
    def test_score_scale_tracks_truth(self):
        # X-side BLUP scores across a fitted bin should have roughly the
        # right spread for the leading component
        ds, truth = generate(REGULAR, 120, seed=96)
        model = fit(ds, FitConfig(n_bins=1, truncation=(3, 3),
                                  refine_bandwidth=0.4,
                                  bandwidth_policy="default"))
        bin_est = model.bins[0]
        scores = np.array([
            blup_scores(s.x_times, s.x_values, bin_est.mean_x.at(s.x_times),
                        bin_est.eig_x, bin_est.sigma2_x, 1)[0]
            for s in ds.subjects])
        corr = np.corrcoef(scores, truth.zeta[:, 0] * np.sign(
            bin_est.eig_x.functions[10, 0] /
            (-np.sqrt(0.2) * np.cos(np.pi * model.s_grid.points[10] / 5))))[0, 1]
        assert abs(corr) > 0.9


class TestPredictionComparison:
    def test_vc_beats_global_per_subject(self):
        # fully observed noise-free test predictors; the varying-coefficient
        # fit should win on most subjects
        train, _ = generate(REGULAR, 300, seed=97)
        cfg = FitConfig(n_bins=6, truncation=(3, 3), refine_bandwidth=0.25)
        vc = fit(train, cfg)
        gl = fit_global(train, cfg)
        test, truth = generate(REGULAR, 100, seed=98)
        grid = vc.s_grid
        wins = 0
        for i in range(truth.n):
            xs = truth.predictor_values(i, grid.points)
            x_obs = np.column_stack([grid.points, xs])
            z = truth.z[i]
            pv = predict(vc, x_obs, z).y_hat.values
            pg = predict(gl, x_obs, z).y_hat.values
            w = truth.grid.weights
            ispe_v = float(w @ (pv - truth.curves[i]) ** 2)
            ispe_g = float(w @ (pg - truth.curves[i]) ** 2)
            if ispe_v < ispe_g:
                wins += 1
        assert wins >= 80


class TestMeanBandwidthCv:
    def test_cv_rejects_oversmoothing_on_design_bins(self):
        # on bins of the regular design the CV curve should reject the upper
        # end of the candidate grid (the curved mean punishes oversmoothing)
        grid = make_grid(0, 10, 51)
        rejected_top = 0
        for seed in range(10):
            ds, _ = generate(REGULAR, 50, seed=110 + seed)
            n_obs = sum(s.n_y for s in ds.subjects)
            h0 = 10.0 * n_obs ** -0.2
            cands = tuple(h0 * f for f in (0.5, 0.7071, 1.0, 1.4142, 2.0))
            got = cv_smoother_bandwidth(ds.subjects, "mean_y", 5, cands,
                                        grid, grid)
            if got < cands[-1]:
                rejected_top += 1
        assert rejected_top >= 8


def scalar_responses(ds):
    """The dataset with each subject's response replaced by its mean y."""
    subjects = [Subject(s.id, s.z, s.x_times, s.x_values, None,
                        np.array([float(s.y_values.mean())])) for s in ds.subjects]
    return LongitudinalDataset(subjects, ds.s_domain, None, ds.z_domain,
                               scalar_response=True)


def numbers(doc):
    """Every number in a JSON document, nested lists and objects included."""
    if isinstance(doc, dict):
        for value in doc.values():
            yield from numbers(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from numbers(value)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


class TestScalarAutoSelection:
    def test_fit_save_load_predict(self, tmp_path):
        train = scalar_responses(generate(SPARSE, 400, seed=120)[0])
        model = fit(train, FitConfig(n_bins=None))
        path = tmp_path / "model.json"
        save_model(model, path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert all(math.isfinite(v) for v in numbers(doc))
        for stack in (model.mean_x_stack, model.mean_y_stack, model.raw_beta_stack):
            assert np.isfinite(stack).all()

        back = load_model(path)
        chosen = back.selection.chosen
        assert chosen["P"] == model.n_bins == back.n_bins
        assert chosen["M"] == model.truncation[0] == back.truncation[0]
        assert chosen["K"] is None and back.truncation[1] is None
        assert chosen["b"] == model.refine_bandwidth == back.refine_bandwidth

        test = scalar_responses(generate(SPARSE, 50, seed=121)[0])
        for s in test.subjects:
            x_obs = np.column_stack([s.x_times, s.x_values])
            fitted = predict(model, x_obs, s.z)
            loaded = predict(back, x_obs, s.z)
            assert fitted.mode == "sparse" and math.isfinite(fitted.y_hat)
            assert abs(fitted.y_hat - loaded.y_hat) <= 1e-12
