"""Cross-module pipeline behaviors: BLUP scores against fitted bins,
per-subject prediction quality versus the global baseline, bandwidth CV
on realistic bins, and a scalar response through full auto-selection,
saving and loading."""

import json
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from vcflr.data import LongitudinalDataset, Subject, partition
from vcflr.errors import VcflrError
from vcflr.fpca import blup_scores
from vcflr.grids import make_grid
from vcflr.regression import FitConfig, fit, fit_global, predict
from vcflr.selection import cv_smoother_bandwidth
from vcflr.serialize import load_model, save_model
from vcflr.simulation import REGULAR, SPARSE, generate

from reference import gathered


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
            got = cv_smoother_bandwidth(gathered(ds.subjects), "mean_y", 5, cands,
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


def perturbed(ds, ties, one_response, edges, constant_x, scalar):
    """A legal variant of ``ds``: times rounded to 0.5 (ties within and
    across subjects), every ``one_response``-th subject (none for 0) cut to
    one response observation, every fifth covariate at a domain end, a
    predictor constant at 1.5, and the response replaced by its mean."""
    subjects = []
    for i, s in enumerate(ds.subjects):
        xt, xv, yt, yv, z = s.x_times, s.x_values, s.y_times, s.y_values, s.z
        if ties:
            ox = np.argsort(np.round(xt * 2), kind="stable")
            oy = np.argsort(np.round(yt * 2), kind="stable")
            xt, xv = np.round(xt * 2)[ox] / 2, xv[ox]
            yt, yv = np.round(yt * 2)[oy] / 2, yv[oy]
        if one_response and i % one_response == 0:
            yt, yv = yt[:1], yv[:1]
        if edges and i % 5 == 0:
            z = ds.z_domain[i % 2]
        if constant_x:
            xv = np.full(xv.size, 1.5)
        if scalar:
            yt, yv = None, np.array([float(yv.mean())])
        subjects.append(Subject(s.id, z, xt, xv, yt, yv))
    return LongitudinalDataset(subjects, ds.s_domain, None if scalar else ds.t_domain,
                               ds.z_domain, scalar_response=scalar)


def typed_error_or_finite(ds, cfg, seed):
    """Fit ``ds`` at ``cfg``, save, load and predict four sparse subjects,
    two of them at the ends of the z domain: either a VcflrError or a model
    whose stacks, variances, bandwidth and predictions are all finite."""
    test = generate(SPARSE, 4, seed + 1)[0].subjects
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # skipped candidates and subjects
            model = fit(ds, cfg)
        with tempfile.TemporaryDirectory() as tmp:
            save_model(model, Path(tmp) / "model.json")
            model = load_model(Path(tmp) / "model.json")
        preds = [predict(model, np.column_stack([s.x_times, s.x_values]), z).y_hat
                 for s, z in zip(test, (*ds.z_domain, test[2].z, test[3].z))]
    except VcflrError:
        return
    arrays = [model.mean_x_stack, model.mean_y_stack, model.raw_beta_stack,
              [model.sigma2_x, model.sigma2_y or 0.0, model.refine_bandwidth]]
    arrays += [[p] if ds.scalar_response else p.values for p in preds]
    assert all(np.isfinite(a).all() for a in arrays)


class TestLegalPerturbations:
    """fit, save_model, load_model and predict on small sparse datasets with
    legal perturbations end in a typed error or in a finite model whose
    predictions are finite."""

    @given(seed=st.integers(0, 2**16), ties=st.booleans(),
           one_response=st.sampled_from([0, 1, 3]), edges=st.booleans(),
           constant_x=st.booleans(), scalar=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_typed_error_or_finite_model(self, seed, ties, one_response, edges, constant_x,
                                         scalar):
        ds = perturbed(generate(SPARSE, 60, seed)[0], ties, one_response, edges, constant_x,
                       scalar)
        typed_error_or_finite(ds, FitConfig(n_bins=2), seed)

    @given(seed=st.integers(0, 2**16), least=st.integers(2, 8), ties=st.booleans(),
           one_response=st.sampled_from([0, 1, 3]), scalar=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_bin_at_min_count(self, seed, least, ties, one_response, scalar):
        # the first ``least`` subjects fill the lower bin, which then holds
        # exactly min_bin_count subjects
        ds = perturbed(generate(SPARSE, 60, seed)[0], ties, one_response, False, False,
                       scalar)
        subjects = [replace(s, z=s.z / 2 if i < least else 0.5 + s.z / 2)
                    for i, s in enumerate(ds.subjects)]
        ds = replace(ds, subjects=subjects)
        cfg = FitConfig(n_bins=2, min_bin_count=least)
        assert partition(ds, 2, min_count=least).counts.min() == least
        typed_error_or_finite(ds, cfg, seed)

    @given(seed=st.integers(0, 2**16), ties=st.booleans(), edges=st.booleans(),
           constant_x=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_scalar_auto_selection(self, seed, ties, edges, constant_x):
        ds = perturbed(generate(SPARSE, 60, seed)[0], ties, 0, edges, constant_x, True)
        typed_error_or_finite(ds, FitConfig(n_bins=None), seed)
