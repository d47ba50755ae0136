"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The coverage test runs one traced operation of every workload (about half a
minute) and checks that each wrapped binding is reached where it should be,
so that a later import move cannot silently zero a layer's figures.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_library()

import tracer  # noqa: E402
import workloads  # noqa: E402

# Reached on both study workloads.
STUDY = {
    "evaluate.fit", "evaluate.fit_global", "evaluate.predict",
    "evaluate.predict_dataset", "evaluate.mispe",
    "regression.fit", "regression.fit_bin", "regression.refine",
    "regression.lp_weights", "regression.widen_until_fit", "regression.make_partition",
    "selection.select_binwidth", "selection.select_bandwidth",
    "selection.select_truncation", "selection.cv_smoother_bandwidth",
    "selection.observation_covariance", "selection.lp_weights",
    "selection.local_linear_1d_at", "selection.widen_until_fit",
    "smoothing.lp_weights", "smoothing.kernel_eval",
    "fpca.estimate_mean", "fpca.smooth_covariance", "fpca.smooth_cross_covariance",
    "fpca.estimate_sigma2", "fpca.eigendecompose", "fpca.local_linear_1d_at",
    "fpca.local_linear_2d_at", "fpca.widen_until_fit", "fpca.kernel_eval",
    "grids.bilinear", "kernels.kernel_eval", "simulation.generate",
}
# Selection is skipped entirely on fit-serve; smoothing's own lp_weights
# binding serves only smoothing_matrix, which only bandwidth selection uses.
SELECTION_ONLY = {b for b in STUDY if b.startswith("selection.")} | {"smoothing.lp_weights"}
EXPECTED = {
    "study-regular": STUDY,
    "study-sparse": STUDY | {"regression.blup_scores", "fpca.observation_covariance"},
    "fit-serve": (STUDY - SELECTION_ONLY - {
        "evaluate.fit", "evaluate.fit_global", "evaluate.mispe"}) | {
        "data.load_csv", "serialize.save_model", "serialize.load_model",
        "regression.predict", "regression.fit_global", "regression.blup_scores",
        "fpca.observation_covariance", "simulation.mispe"},
}
# Bindings no workload goes through, besides the package's re-exports
# (``vcflr.*``): defining modules whose own code calls the function through
# another name, paths only the CLI, tests or non-default options take, and
# run_repetition's own generate (the benchmark generates at set-up).
UNUSED = {
    "data.partition", "fpca.blup_scores", "fpca.fit_bin", "evaluate.generate",
    "selection.estimate_mean", "selection.local_linear_2d_at",
    "smoothing.local_linear_1d_at", "smoothing.local_linear_2d_at",
    "smoothing.widen_until_fit",
}


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """Calls per binding and per-name stats for one traced op per workload."""
    out = {}
    for name in workloads.WORKLOADS:
        tr = tracer.Tracer()
        tr.install()
        try:
            state = workloads.setup(name, 0, str(tmp_path_factory.mktemp(name)))
            result = workloads.run_op(name, state, 0, tr)
        finally:
            tr.uninstall()
        out[name] = (tr, result)
    return out


def test_each_binding_is_reached_where_expected(reached):
    for name, expected in EXPECTED.items():
        tr, _ = reached[name]
        missing = sorted(b for b in expected if tr.reached[b] == 0)
        assert not missing, f"{name}: bindings never reached: {missing}"


def test_every_binding_is_accounted_for(reached):
    tr, _ = reached["study-regular"]
    found = {b for bindings in tr.bindings.values() for b in bindings
             if not b.startswith("vcflr.")}
    known = set().union(*EXPECTED.values()) | UNUSED
    assert not found - known, f"new bindings to place in EXPECTED or UNUSED: {sorted(found - known)}"


def test_fit_serve_runs_no_selection(reached):
    tr, result = reached["fit-serve"]
    assert not any(tr.reached[b] for b in SELECTION_ONLY)
    for fn in ("select_binwidth", "select_bandwidth", "select_truncation",
               "cv_smoother_bandwidth"):
        assert result.stats.calls[fn] == 0


def test_seed_zero_counts_and_fingerprint(reached):
    _, result = reached["study-regular"]
    calls = result.stats.calls
    assert (calls["observation_covariance"], calls["fit_bin"], calls["lp_weights"],
            calls["fit"]) == (27600, 39, 15425, 7)
    fp = result.fingerprint
    assert (fp["P"], fp["M"], fp["K"]) == (10, 3, 3)
    assert fp["mispe_vc"] == pytest.approx(0.339707, abs=1e-6)
    assert fp["mispe_global"] == pytest.approx(2.903581, abs=1e-6)
    assert result.warnings["skipped_truncation"] > 0


def test_fit_self_times_cover_the_fit(reached):
    for name, (_, result) in reached.items():
        stats = result.stats
        inside = sum(stats.by_stage["stage.fit_vc"].values())
        assert inside == pytest.approx(stats.incl["stage.fit_vc"], rel=1e-9)
        assert stats.self_["fit"] < 0.05 * stats.incl["stage.fit_vc"], name


def test_recursive_spans_count_outermost_time_once():
    tr = tracer.Tracer()
    with tr.span("fit"):
        with tr.span("fit"):
            time.sleep(0.01)
        with tr.span("leaf"):
            time.sleep(0.01)
    stats = tr.take()
    assert stats.calls["fit"] == 2
    total = stats.self_["fit"] + stats.self_["leaf"]
    assert stats.incl["fit"] == pytest.approx(total, rel=1e-9)
    assert stats.incl["leaf"] == pytest.approx(stats.self_["leaf"], rel=1e-9)


def test_retries_are_counted():
    import vcflr.smoothing as sm

    tr = tracer.Tracer()
    tr.install()
    try:
        widths = []

        def attempt(cfg):
            widths.append(cfg.bandwidth)
            if len(widths) < 3:
                raise sm.InsufficientLocalData("too narrow")
            return cfg.bandwidth

        sm.widen_until_fit(attempt, sm.LocalFitConfig(1.0))
    finally:
        tr.uninstall()
    assert tr.take().retries == 2


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-serve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
