import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vcflr
from vcflr.cli import main
from vcflr.data import LongitudinalDataset, Subject, save_csv
from vcflr.serialize import load_model


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main(["simulate", "--example", "regular", "--n", "40", "--test-n", "12",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "bins": 2, "truncation": [2, 2], "refine_bandwidth": 0.3,
        "min_bin_count": 2, "bandwidth_policy": "default",
    }))
    return path


@pytest.fixture(scope="module")
def model_dir(sim_dir, cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    code = main(["fit", "--train", str(sim_dir / "train.csv"),
                 "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_train_row_count(self, sim_dir):
        header, rows = read_rows(sim_dir / "train.csv")
        assert header == ["subject_id", "z", "stream", "time", "value"]
        assert len(rows) == 40 * 62

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", "--example", "sparse", "--n", "25",
                         "--test-n", "5", "--seed", "9", "--out", str(out)]) == 0
        for name in ("train.csv", "test.csv", "truth_curves.csv",
                     "truth_scores.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_example_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "5", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestFit:
    def test_writes_model_and_report(self, model_dir):
        model = load_model(model_dir / "model.json")
        assert model.n_bins == 2
        header, _ = read_rows(model_dir / "selection_report.csv")
        assert header == ["candidate", "criterion", "score"]

    def test_global_flag_matches_single_bin(self, sim_dir, cfg_path, tmp_path):
        ga, gb = tmp_path / "ga", tmp_path / "gb"
        assert main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg_path), "--global", "--out", str(ga)]) == 0
        assert main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg_path), "--bins", "1", "--out", str(gb)]) == 0
        a = load_model(ga / "model.json")
        b = load_model(gb / "model.json")
        from vcflr.regression import predict
        rng = np.random.default_rng(13)
        for _ in range(5):
            z = rng.uniform(0, 1)
            times = np.sort(rng.uniform(0, 10, 5))
            x_obs = np.column_stack([times, rng.normal(size=5)])
            assert np.array_equal(predict(a, x_obs, z).y_hat.values,
                                  predict(b, x_obs, z).y_hat.values)

    def test_occupancy_failure_exit_3(self, sim_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bins": 30, "truncation": [2, 2],
                                   "refine_bandwidth": 0.3}))
        code = main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 3

    def test_partial_domains_merge_over_defaults(self, sim_dir, cfg_path, tmp_path):
        cfg = json.loads(cfg_path.read_text())
        cfg["domains"] = {"s": [0, 10], "z": [0, 1]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(path), "--out", str(tmp_path / "m")])
        assert code == 0
        assert load_model(tmp_path / "m" / "model.json").t_domain == (0.0, 10.0)

    def test_ill_typed_config_value_exit_4(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_size": "fifty"}))
        code = main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 4
        assert "fifty" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["criterion", "binwidth_criterion"])
    def test_lowercase_criterion_exit_4(self, sim_dir, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "aic"}))
        code = main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 4
        assert "'aic'" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("b", [-0.3, float("nan")])
    def test_bad_refine_bandwidth_exit_4(self, sim_dir, tmp_path, capsys, b):
        # rejected at fit time, not left for predict to die on
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"refine_bandwidth": b}))
        code = main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 4
        assert "refine bandwidths" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("truncation, shown", [
        ([2], "truncation must"), ([2.5, 2], "truncation must"), ("ab", "truncation must"),
        ([2, None], "response components"),
    ])
    def test_bad_truncation_exit_4(self, sim_dir, tmp_path, capsys, truncation, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truncation": truncation}))
        code = main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 4
        assert shown in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("pair", ["ab", [0, "10"], [10, 0], [0, 0], [0],
                                      [0, 10, 20], [0, float("inf")], [True, 10], None])
    def test_bad_domain_exit_4(self, sim_dir, tmp_path, capsys, pair):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domains": {"s": pair}}))
        code = main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 4
        assert "domain s" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, shown", [
        ({"bandwidth_policy": "CV"}, "'CV'"),
        ({"bandwidths": {"covx": 1.0}}, "covx"),
        ({"bandwidths": {"cov_x": -1.0}}, "-1.0"),
        ({"bandwidths": {"mean_x": "wide"}}, "wide"),
        ({"bandwidths": {"cross": [1.0, None]}}, "None"),
    ])
    def test_bad_bandwidth_setting_exit_4(self, sim_dir, tmp_path, capsys, setting, shown):
        # rejected before fitting, instead of ignored or dying in the smoother
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        code = main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 4
        assert shown in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("setting, shown", [
        ({"bins": 2.7}, "n_bins"),
        ({"grid_size": 1}, "grid_size"),
        ({"grid_size": 2.5}, "grid_size"),
        ({"min_bin_count": 0}, "min_bin_count"),
        ({"min_bin_count": -3}, "min_bin_count"),
        ({"min_bin_count": 1.5}, "min_bin_count"),
        ({"cv_surfaces": "false"}, "cv_surfaces"),
        ({"eigen_floor": float("nan")}, "eigen_floor"),
        ({"eigen_floor": -0.5}, "eigen_floor"),
        ({"eigen_floor": 1.5}, "eigen_floor"),
        ({"eigen_floor": True}, "eigen_floor"),
        ({"refine_bandwidth": "0.3"}, "refine bandwidths"),
        ({"kernel": "gauss"}, "kernel family"),
        ({"scalar_response": "false"}, "scalar_response"),
        ({"bandwidths": [["mean_x", 1.0]]}, "bandwidths must be a mapping"),
    ])
    def test_bad_count_setting_exit_4(self, sim_dir, tmp_path, capsys, setting, shown):
        # rejected before fitting, instead of coerced, truncated or dying in
        # the fit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        code = main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 4
        assert shown in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_scalar_cross_pair_exit_4(self, tmp_path, capsys):
        rng = np.random.default_rng(48)
        subjects = []
        for i in range(20):
            st_ = np.sort(rng.uniform(0, 10, 6))
            subjects.append(Subject(f"s{i}", float(rng.uniform(0, 1)), st_, np.sin(st_),
                                    None, np.array([rng.normal()])))
        save_csv(LongitudinalDataset(subjects, (0.0, 10.0), None, (0.0, 1.0),
                                     scalar_response=True), tmp_path / "train.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scalar_response": True, "bins": 2, "min_bin_count": 2,
                                   "bandwidths": {"cross": [1.0, 2.0]}}))
        code = main(["fit", "--train", str(tmp_path / "train.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 4
        assert "cross must be a single number" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_no_threads_option(self, sim_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--train", str(sim_dir / "train.csv"),
                  "--threads", "2", "--out", str(tmp_path / "m")])
        assert exc.value.code == 2

    def test_unknown_config_key_exit_4(self, sim_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bin_count": 4}))
        code = main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 4

    def test_seed_is_not_a_config_key(self, sim_dir, tmp_path, capsys):
        # no command reads a seed from the config document
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "x"}))
        code = main(["fit", "--train", str(sim_dir / "train.csv"),
                     "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 4
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("stream, code", [("y", 5), ("x", 3)])
    def test_one_observation_streams_exit_typed(self, tmp_path, capsys, stream, code):
        # responses: no pairs to smooth (numerical); predictors: no usable subject
        from vcflr.simulation import SPARSE, generate
        ds, _ = generate(SPARSE, 200, seed=7)
        cut = [Subject(s.id, s.z, s.x_times[:1] if stream == "x" else s.x_times,
                       s.x_values[:1] if stream == "x" else s.x_values,
                       s.y_times[:1] if stream == "y" else s.y_times,
                       s.y_values[:1] if stream == "y" else s.y_values) for s in ds.subjects]
        save_csv(LongitudinalDataset(cut, ds.s_domain, ds.t_domain, ds.z_domain),
                 tmp_path / "train.csv")
        assert main(["fit", "--train", str(tmp_path / "train.csv"),
                     "--out", str(tmp_path / "m")]) == code
        assert "Traceback" not in capsys.readouterr().err


class TestPredict:
    def test_output_shape(self, sim_dir, model_dir, tmp_path):
        out = tmp_path / "preds.csv"
        code = main(["predict", "--model", str(model_dir / "model.json"),
                     "--test", str(sim_dir / "test.csv"), "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["subject_id", "time", "y_hat"]
        assert len(rows) == 12 * 51
        assert len({r[0] for r in rows}) == 12

    def test_corrupt_model_exit_4(self, sim_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["predict", "--model", str(bad),
                     "--test", str(sim_dir / "test.csv"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 4

    def test_out_of_domain_subjects_skipped(self, model_dir, tmp_path, capsys):
        test = tmp_path / "test.csv"
        test.write_text(
            "subject_id,z,stream,time,value\n"
            "ok,0.5,X,1.0,1.0\nok,0.5,X,2.0,1.5\n"
        )
        # widen the stored covariate domain so loading passes but prediction
        # must still reject values beyond the fitted range
        model = load_model(model_dir / "model.json")
        from vcflr.serialize import save_model
        import dataclasses
        clone = dataclasses.replace(model, z_domain=(0.0, 1.0))
        path = tmp_path / "m.json"
        save_model(clone, path)
        test.write_text(
            "subject_id,z,stream,time,value\n"
            "ok,0.5,X,1.0,1.0\nok,0.5,X,2.0,1.5\n"
            "far,1.0,X,1.0,1.0\nfar,1.0,X,2.0,1.5\n"
        )
        out = tmp_path / "preds.csv"
        code = main(["predict", "--model", str(path), "--test", str(test),
                     "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out)
        assert {r[0] for r in rows} == {"ok", "far"}


class TestEvaluate:
    def test_small_run_table_and_dumps(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "bins": 2, "truncation": [3, 3], "refine_bandwidth": 0.3,
            "min_bin_count": 2, "bandwidth_policy": "default",
        }))
        out = tmp_path / "eval"
        code = main(["evaluate", "--example", "regular", "--reps", "3",
                     "--n", "40", "--test-n", "15", "--seed", "2",
                     "--config", str(cfg), "--out", str(out),
                     "--beta-levels", "0.5"])
        assert code == 0
        header, rows = read_rows(out / "mispe.csv")
        assert header == ["rep", "model", "mispe"]
        assert len(rows) == 6                      # 2 models x 3 reps
        by_model = {}
        for rep, name, value in rows:
            by_model.setdefault(name, []).append(float(value))
        assert np.mean(by_model["vc"]) < np.mean(by_model["global"])

        header, rows = read_rows(out / "beta_z0.5.csv")
        assert header == ["s", "t", "value"]
        assert len(rows) == 51 * 51
        # quadrature of the dump against the first basis product ~ 1.5
        s = np.array(sorted({float(r[0]) for r in rows}))
        vals = np.zeros((51, 51))
        idx = {v: i for i, v in enumerate(s)}
        for r in rows:
            vals[idx[float(r[0])], idx[float(r[1])]] = float(r[2])
        w = np.full(51, 0.2)
        w[0] = w[-1] = 0.1
        psi1 = -np.sqrt(0.2) * np.cos(np.pi * s / 5)
        proj = (psi1 * w) @ vals @ (psi1 * w)
        assert proj == pytest.approx(1.5, abs=0.5)

    def test_slope_dumps_come_from_the_worker(self, tmp_path, monkeypatch):
        from vcflr import cli, evaluate, regression
        from vcflr.simulation import REGULAR, generate

        config = {"bins": 2, "truncation": [3, 3], "refine_bandwidth": 0.3,
                  "min_bin_count": 2, "bandwidth_policy": "default"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        fit_config = cli.fit_config_from(cli.load_config(cfg))
        model = regression.fit(generate(REGULAR, 40, 3)[0], fit_config)
        want = {z: regression.refine(model, z)[2].values for z in (0.3, 0.7)}

        def refuse(*args, **kwargs):
            raise AssertionError("the calling process fitted a model")

        for module in (cli, evaluate, regression):
            monkeypatch.setattr(module, "fit", refuse)
        out = tmp_path / "eval"
        code = main(["evaluate", "--example", "regular", "--reps", "2",
                     "--n", "40", "--test-n", "10", "--seed", "3",
                     "--config", str(cfg), "--out", str(out),
                     "--beta-levels", "0.3", "0.7"])
        assert code == 0
        for z, values in want.items():
            _, rows = read_rows(out / f"beta_z{z:g}.csv")
            got = np.array([float(r[2]) for r in rows]).reshape(values.shape)
            assert np.allclose(got, values, rtol=0, atol=1e-12 * np.max(np.abs(values)))


def test_import_leaves_scipy_out():
    # scipy is a test dependency only: the library and its CLI never load it
    src = Path(vcflr.__file__).resolve().parents[1]
    probe = "import sys, vcflr, vcflr.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
