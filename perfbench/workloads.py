"""The benchmark's workloads: generated inputs, one operation, output checks.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one returned. The library receives only inputs
generated here from the workload seed.

study-regular, study-sparse
    One repetition of the paper's simulation study, as
    ``vcflr.evaluate.run_repetition`` runs it: auto-selected
    varying-coefficient fit, global fit, predicting the 200 test subjects
    with both, and both MISPEs. Repetition ``i`` of seed ``s`` trains on
    seed ``1000 s + i`` and tests on ``100000 + 1000 s + i``, so repetition
    0 of seed ``s`` is the study's repetition at seed ``1000 s``. Selection
    dominates; regular curves share one time vector, sparse ones do not.
fit-serve
    Fixed hyperparameters, so no selection: read a sparse n=4000 CSV, fit,
    save and reload the model, predict 5000 sparse subjects one call at a
    time from the reloaded model, and score MISPE; then fit and score the
    global baseline at the same settings. Training on seed ``s``, test on
    ``100000 + s``.
"""

from __future__ import annotations

import functools
import math
import os
import time
import warnings
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

import vcflr.data
import vcflr.evaluate
import vcflr.regression
import vcflr.serialize
import vcflr.simulation

STUDY_N_TRAIN = 400
STUDY_N_TEST = 200
STUDY_POOL = 8            # repetitions generated at set-up, cycled by the loop
SERVE_N_TRAIN = 4000
SERVE_N_TEST = 5000
SERVE_CHECK_EVERY = 10    # every 10th test subject is also scored in memory
SERVE_CONFIG = dict(n_bins=8, truncation=(3, 3), refine_bandwidth=0.25,
                    bandwidth_policy="default")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Operations every run makes whatever the time budget. Accuracy and
    # per-layer figures come from these alone, so they are the same inputs
    # on every commit at a given seed.
    fixed_ops: int
    # vc-model predict calls per operation, timed for the latency metrics
    predicts_per_op: int

    @property
    def tail_pct(self) -> float:
        """The highest percentile of a fixed ladder with at least ten
        latency samples beyond it within the fixed operations."""
        n = self.fixed_ops * self.predicts_per_op
        return max(p for p in (90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.95, 99.99)
                   if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9)


WORKLOADS = {
    w.name: w for w in (
        Workload("study-regular",
                 "paper study repetition, regular design, n=400: selection is ~95% of the fit; "
                 "all curves share one time vector, so caching pays; dense predict path",
                 fixed_ops=4, predicts_per_op=STUDY_N_TEST),
        Workload("study-sparse",
                 "same repetition on the sparse design: same selection code on small, all "
                 "distinct time vectors (no cache hits); unaggregated 2D smoothing; BLUP predict",
                 fixed_ops=5, predicts_per_op=STUDY_N_TEST),
        Workload("fit-serve",
                 "fixed hyperparameters, so a selection change should not move it: CSV read, "
                 "n=4000 sparse fit, save/load, 5000 one-at-a-time BLUP predicts",
                 fixed_ops=3, predicts_per_op=SERVE_N_TEST),
    )
}


class CheckFailed(Exception):
    """An operation returned output that fails the benchmark's checks."""


@dataclass
class OpResult:
    wall: float
    stages: dict
    fingerprint: dict
    warnings: Counter = field(default_factory=Counter)
    stats: object = None          # tracer.Stats when traced
    model_bytes: int = 0
    returned_bins: int = 0
    index: int = -1


@contextmanager
def timed_calls(module, attr: str, samples: list):
    """Append the wall time of every call made through ``module.attr`` to
    ``samples`` while the block runs. No span bookkeeping, so untraced runs
    stay untraced."""
    original = getattr(module, attr)
    clock = time.perf_counter

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = clock()
        out = original(*args, **kwargs)
        samples.append(clock() - t0)
        return out

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


@dataclass
class Recorder:
    """Stage timer for one operation; opens tracer spans when tracing."""

    tracer: object = None
    stages: dict = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        with self.tracer.span("stage." + name) if self.tracer else nullcontext():
            yield
        self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t0


def classify_warning(message: str) -> str:
    if message.startswith("skipping truncation candidate"):
        return "skipped_truncation"
    if message.startswith("skipping bin-count candidate"):
        return "skipped_bincount"
    if message.startswith("excluding"):
        return "excluded_subjects"
    return "other"


def check_predictions(model, preds, label: str) -> None:
    grid = model.t_grid
    for j, p in enumerate(preds):
        y = p.y_hat
        if not y.grid.same_as(grid):
            raise CheckFailed(f"{label}: prediction {j} is not on the model's t-grid")
        if not np.all(np.isfinite(y.values)):
            raise CheckFailed(f"{label}: prediction {j} has non-finite values")


def check_mispe(value: float, label: str) -> None:
    if not math.isfinite(value):
        raise CheckFailed(f"{label}: MISPE is not finite ({value})")


def chosen(model) -> dict:
    c = model.selection.chosen
    return {"P": int(c["P"]), "M": int(c["M"]), "K": c["K"], "b": float(c["b"])}


# -- study workloads --------------------------------------------------------

def study_setup(design, seed: int, workdir: str):
    offset = vcflr.evaluate.TEST_SEED_OFFSET
    pool = []
    for i in range(STUDY_POOL):
        rep_seed = 1000 * seed + i
        train, _ = vcflr.simulation.generate(design, STUDY_N_TRAIN, rep_seed)
        test, truth = vcflr.simulation.generate(design, STUDY_N_TEST, offset + rep_seed)
        pool.append((rep_seed, train, test, truth))
    return {"pool": pool, "latencies": []}


def study_op(state, i: int, rec: Recorder) -> OpResult:
    """The calls of ``evaluate.run_repetition``, through ``evaluate``'s own
    bindings, with each stage timed. Predict latency is taken on the
    varying-coefficient model only: mixing in the cheaper global model's
    calls would put the median between two modes."""
    ev = vcflr.evaluate
    pool = state["pool"]
    rep_seed, train, test, truth = pool[i % len(pool)]
    t0 = time.perf_counter()
    with rec.stage("fit_vc"):
        vc = ev.fit(train, ev.FitConfig(n_bins=None))
    with rec.stage("predict"), timed_calls(ev, "predict", state["latencies"]):
        preds_vc = ev.predict_dataset(vc, test)
    with rec.stage("mispe"):
        mispe_vc = ev.mispe(truth, preds_vc)
    with rec.stage("fit_global"):
        glob = ev.fit_global(train, ev.FitConfig())
    with rec.stage("predict"):
        preds_g = ev.predict_dataset(glob, test)
    with rec.stage("mispe"):
        mispe_g = ev.mispe(truth, preds_g)
    wall = time.perf_counter() - t0

    def check():
        check_predictions(vc, preds_vc, "vc")
        check_predictions(glob, preds_g, "global")
        check_mispe(mispe_vc, "vc")
        check_mispe(mispe_g, "global")

    fp = {"rep_seed": rep_seed, "mispe_vc": mispe_vc, "mispe_global": mispe_g, **chosen(vc)}
    return OpResult(wall, rec.stages, fp, returned_bins=vc.n_bins + glob.n_bins), check


# -- fit-serve ---------------------------------------------------------------

def serve_setup(seed: int, workdir: str):
    sim = vcflr.simulation
    train, _ = sim.generate(sim.SPARSE, SERVE_N_TRAIN, seed)
    test, truth = sim.generate(sim.SPARSE, SERVE_N_TEST,
                               vcflr.evaluate.TEST_SEED_OFFSET + seed)
    csv_path = os.path.join(workdir, "train.csv")
    vcflr.data.save_csv(train, csv_path)
    queries = [(np.column_stack([s.x_times, s.x_values]), s.z) for s in test.subjects]
    return {"csv": csv_path, "model": os.path.join(workdir, "model.json"),
            "domains": (train.s_domain, train.z_domain, train.t_domain),
            "test": test, "truth": truth, "queries": queries,
            "latencies": []}


def serve_op(state, i: int, rec: Recorder) -> OpResult:
    reg, ser = vcflr.regression, vcflr.serialize
    cfg = reg.FitConfig(**SERVE_CONFIG)
    s_dom, z_dom, t_dom = state["domains"]
    latencies = state["latencies"]
    clock = time.perf_counter
    t0 = clock()
    with rec.stage("load_csv"):
        ds = vcflr.data.load_csv(state["csv"], s_dom, z_dom, t_dom)
    with rec.stage("fit_vc"):
        model = reg.fit(ds, cfg)
    with rec.stage("save_load"):
        ser.save_model(model, state["model"])
        loaded = ser.load_model(state["model"])
    with rec.stage("predict"):
        preds = []
        for x_obs, z in state["queries"]:
            q0 = clock()
            preds.append(reg.predict(loaded, x_obs, z))
            latencies.append(clock() - q0)
    with rec.stage("mispe"):
        mispe_vc = vcflr.simulation.mispe(state["truth"], preds)
    with rec.stage("fit_global"):
        glob = reg.fit_global(ds, cfg)
    with rec.stage("predict_global"):
        preds_g = vcflr.evaluate.predict_dataset(glob, state["test"])
    with rec.stage("mispe"):
        mispe_g = vcflr.simulation.mispe(state["truth"], preds_g)
    wall = clock() - t0

    def check():
        check_predictions(loaded, preds, "vc")
        check_predictions(glob, preds_g, "global")
        check_mispe(mispe_vc, "vc")
        check_mispe(mispe_g, "global")
        queries = state["queries"]
        for j in range(0, len(queries), SERVE_CHECK_EVERY):
            x_obs, z = queries[j]
            diff = np.max(np.abs(reg.predict(model, x_obs, z).y_hat.values
                                 - preds[j].y_hat.values))
            if not diff <= 1e-12:
                raise CheckFailed(f"loaded model differs from the fitted one by {diff:g} "
                                  f"at test subject {j}")

    fp = {"rep_seed": None, "mispe_vc": mispe_vc, "mispe_global": mispe_g, **chosen(model)}
    return OpResult(wall, rec.stages, fp, model_bytes=os.path.getsize(state["model"]),
                    returned_bins=model.n_bins + glob.n_bins), check


def setup(name: str, seed: int, workdir: str):
    if name == "fit-serve":
        return serve_setup(seed, workdir)
    design = vcflr.simulation.REGULAR if name == "study-regular" else vcflr.simulation.SPARSE
    return study_setup(design, seed, workdir)


def run_op(name: str, state, i: int, tracer=None) -> OpResult:
    """One operation with its warnings counted by kind, then its output
    checks, which stay outside the operation's time and trace."""
    rec = Recorder(tracer)
    op = serve_op if name == "fit-serve" else study_op
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tracer.span("op") if tracer is not None else nullcontext():
                result, check = op(state, i, rec)
        if tracer is not None:
            result.stats = tracer.take()
        result.warnings = Counter(classify_warning(str(w.message)) for w in caught)
        check()
    finally:
        if tracer is not None:
            tracer.take()   # drop the checks' spans, or a failed operation's
    result.index = i
    return result
