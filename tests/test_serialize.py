import dataclasses
import json

import numpy as np
import pytest

from vcflr.data import Subject, LongitudinalDataset
from vcflr.errors import ModelFormatError
from vcflr.fpca import BinBandwidths
from vcflr.regression import FitConfig, fit, predict, refine
from vcflr.serialize import load_model, save_model
from vcflr.simulation import REGULAR, generate


@pytest.fixture(scope="module")
def model():
    ds, _ = generate(REGULAR, 50, seed=90)
    cfg = FitConfig(n_bins=2, truncation=(2, 2), refine_bandwidth=0.3,
                    bandwidth_policy="default", min_bin_count=2)
    return fit(ds, cfg)


class TestRoundTrip:
    def test_arrays_exact(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.truncation == model.truncation
        assert back.refine_bandwidth == model.refine_bandwidth
        assert back.sigma2_x == model.sigma2_x
        assert np.array_equal(back.partition.centers, model.partition.centers)
        for a, b in zip(model.bins, back.bins):
            assert np.array_equal(a.mean_x.values, b.mean_x.values)
            assert np.array_equal(a.cov_x.values, b.cov_x.values)
            assert np.array_equal(a.cross.values, b.cross.values)
            assert np.array_equal(a.eig_x.values, b.eig_x.values)
            assert np.array_equal(a.eig_x.functions, b.eig_x.functions)
            assert np.array_equal(a.sigma_mk, b.sigma_mk)
            assert np.array_equal(a.raw_beta.values, b.raw_beta.values)

    def test_loaded_model_predicts_identically(self, model, tmp_path):
        # stored values round-trip bit-exactly; predictions may differ at the
        # last ulp through BLAS memory-layout effects, well inside the 1e-12
        # per-value contract
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        rng = np.random.default_rng(91)
        for _ in range(10):
            z = rng.uniform(0, 1)
            times = np.sort(rng.uniform(0, 10, 6))
            x_obs = np.column_stack([times, rng.normal(size=6)])
            p1 = predict(model, x_obs, z).y_hat.values
            p2 = predict(back, x_obs, z).y_hat.values
            assert np.allclose(p1, p2, rtol=0, atol=1e-12)

    def test_refine_matches_after_reload(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        mx1, my1, b1 = refine(model, 0.42)
        mx2, my2, b2 = refine(back, 0.42)
        assert np.array_equal(mx1.values, mx2.values)
        assert np.array_equal(b1.values, b2.values)

    def test_scalar_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(92)
        subjects = []
        for i in range(30):
            st_ = np.sort(rng.uniform(0, 10, 8))
            x = np.sin(st_) + rng.normal(0, 0.3, 8)
            y = float(x.mean() + rng.normal(0, 0.2))
            subjects.append(Subject(f"s{i}", rng.uniform(0, 1), st_, x, None,
                                    np.array([y])))
        ds = LongitudinalDataset(subjects, (0, 10), None, (0, 1),
                                 scalar_response=True)
        cfg = FitConfig(n_bins=2, truncation=(2, None), refine_bandwidth=0.4,
                        bandwidth_policy="default", min_bin_count=2)
        model = fit(ds, cfg)
        path = tmp_path / "scalar.json"
        save_model(model, path)
        back = load_model(path)
        assert back.scalar_response
        assert back.truncation == (2, None)
        x_obs = np.column_stack([np.linspace(0, 10, 6), np.zeros(6)])
        assert predict(back, x_obs, 0.5).y_hat == \
            predict(model, x_obs, 0.5).y_hat


class TestRefinementOrder:
    def test_local_linear_order_round_trips(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        assert json.loads(path.read_text())["refine"]["order"] == 1
        back = load_model(path)
        save_model(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()

    def test_other_order_rejected(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["refine"]["order"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="refinement order 2"):
            load_model(path)


class TestBinBandwidths:
    def test_written_once_per_bin(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert "bandwidths" not in doc["selection"]
        assert [b["bandwidths"] for b in doc["bins"]] == [b.bandwidths for b in model.bins]

    def test_file_with_report_copy_loads(self, model, tmp_path):
        # earlier v1 files also carry a copy of the bins' bandwidths in the
        # selection report
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["selection"]["bandwidths"] = [b["bandwidths"] for b in doc["bins"]]
        path.write_text(json.dumps(doc))
        back = load_model(path)
        assert [b.bandwidths for b in back.bins] == [b.bandwidths for b in model.bins]
        assert back.selection.chosen == model.selection.chosen
        save_model(back, tmp_path / "again.json")
        assert "bandwidths" not in json.loads((tmp_path / "again.json").read_text())["selection"]


class TestBandwidthFileForm:
    def test_symmetric_covariance_pair_is_one_number(self):
        bw = BinBandwidths(mean_x=1.0, mean_y=2.0, cov_x=(1.5, 1.5), cov_y=(1.0, 2.5),
                           diag_x=0.5, diag_y=0.7, cross=(2.0, 2.0))
        assert bw.as_dict() == {"mean_x": 1.0, "mean_y": 2.0, "cov_x": 1.5,
                                "cov_y": [1.0, 2.5], "diag_x": 0.5, "diag_y": 0.7,
                                "cross": [2.0, 2.0]}

    def test_scalar_response(self):
        bw = BinBandwidths(mean_x=1.0, mean_y=None, cov_x=(1.0, 2.0), cov_y=None,
                           diag_x=0.5, diag_y=None, cross=3.0)
        assert bw.as_dict() == {"mean_x": 1.0, "mean_y": None, "cov_x": [1.0, 2.0],
                                "cov_y": None, "diag_x": 0.5, "diag_y": None, "cross": 3.0}


class TestFormatErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            load_model(path)

    def test_wrong_version(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="format-version"):
            load_model(path)

    def test_missing_field(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["bins"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="malformed"):
            load_model(path)


def _drop_last_center(doc):
    doc["partition"]["centers"].pop()


def _drop_last_count(doc):
    doc["partition"]["counts"].pop()


def _drop_last_bin(doc):
    doc["bins"].pop()


def _short_mean_x(doc):
    doc["bins"][0]["mean_x"].pop()


def _one_point_grid(doc):
    doc["s_grid"]["n"] = 1


def _set_bandwidth(value):
    def edit(doc):
        doc["refine"]["bandwidth"] = value
    return edit


# one-field edits of a saved model, each of which used to escape load_model
# (or the first predict) as an untyped error
MALFORMED = {
    "fewer centers": (_drop_last_center, "partition center"),
    "fewer counts": (_drop_last_count, "partition center"),
    "fewer bins": (_drop_last_bin, "partition center"),
    "short mean_x": (_short_mean_x, "malformed"),
    "one-point grid": (_one_point_grid, "malformed"),
    "negative bandwidth": (_set_bandwidth(-0.3), "refinement bandwidth"),
    "zero bandwidth": (_set_bandwidth(0), "refinement bandwidth"),
    "boolean bandwidth": (_set_bandwidth(True), "refinement bandwidth"),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_field_edit_is_a_format_error(self, model, tmp_path, case):
        edit, shown = MALFORMED[case]
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=shown):
            load_model(path)

    def test_non_finite_bandwidth(self, model, tmp_path):
        # json writes NaN and Infinity, and reads them back
        path = tmp_path / "model.json"
        for value in (float("nan"), float("inf")):
            save_model(dataclasses.replace(model, refine_bandwidth=value), path)
            with pytest.raises(ModelFormatError, match="refinement bandwidth"):
                load_model(path)
