"""Repetition harness comparing the varying-coefficient fit to the global one.

One repetition draws a fresh training sample and an independent test sample
from the same design, fits both models, predicts every test subject from its
own predictor observations and covariate, and scores both MISPEs against the
test sample's true conditional response curves. Test streams use seed
100000 + repetition seed so train/test draws never collide.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .regression import FitConfig, FittedModel, fit, fit_global, predict
from .simulation import SimDesign, generate, mispe

TEST_SEED_OFFSET = 100_000
# read by the BLAS libraries numpy may load, once, when they load
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class RepetitionResult:
    rep: int
    mispe_global: float
    mispe_vc: float


def predict_dataset(model: FittedModel, ds) -> list:
    """Predict every subject of a dataset from its x observations and z."""
    return [
        predict(model, np.column_stack([s.x_times, s.x_values]), s.z)
        for s in ds.subjects
    ]


def run_repetition(design: SimDesign, n_train: int, n_test: int, seed: int,
                   vc_config: FitConfig | None = None,
                   global_config: FitConfig | None = None,
                   keep_models: bool = False):
    """One generate -> fit both models -> predict -> MISPE cycle."""
    vc_config = vc_config if vc_config is not None else FitConfig(n_bins=None)
    global_config = global_config if global_config is not None else FitConfig()
    train, _ = generate(design, n_train, seed)
    test, truth = generate(design, n_test, TEST_SEED_OFFSET + seed)

    vc_model = fit(train, vc_config)
    vc_mispe = mispe(truth, predict_dataset(vc_model, test))
    g_model = fit_global(train, global_config)
    g_mispe = mispe(truth, predict_dataset(g_model, test))

    result = RepetitionResult(seed, g_mispe, vc_mispe)
    if keep_models:
        return result, vc_model, g_model
    return result


def _worker(args):
    design, n_train, n_test, seed, vc_config, global_config = args
    return run_repetition(design, n_train, n_test, seed, vc_config, global_config)


@contextmanager
def _single_thread_blas():
    """Set every BLAS thread variable to 1 for the duration, then restore
    them. Processes spawned inside inherit the setting before they import
    numpy, so each loads its BLAS with one thread."""
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def run_repetitions(design: SimDesign, reps: int, n_train: int, n_test: int,
                    base_seed: int = 0, vc_config: FitConfig | None = None,
                    global_config: FitConfig | None = None, threads: int = 1):
    """Run several repetitions, tolerating individual failures.

    Returns (results, failures) where failures is a list of
    (seed, exception message) pairs for repetitions that raised. With
    ``threads`` > 1 the repetitions run in that many freshly spawned worker
    processes, each with BLAS pinned to one thread: the workers already use
    the cores, and threaded BLAS in each of them oversubscribes the machine.
    """
    jobs = [(design, n_train, n_test, base_seed + r, vc_config, global_config)
            for r in range(reps)]
    results: list[RepetitionResult] = []
    failures: list[tuple[int, str]] = []
    if threads > 1:
        with _single_thread_blas(), ProcessPoolExecutor(
                max_workers=threads, mp_context=multiprocessing.get_context("spawn")) as pool:
            futures = {pool.submit(_worker, job): job[3] for job in jobs}
            for fut, seed in futures.items():
                try:
                    results.append(fut.result())
                except Exception as err:  # noqa: BLE001 - per-rep isolation
                    failures.append((seed, f"{type(err).__name__}: {err}"))
    else:
        for job in jobs:
            try:
                results.append(_worker(job))
            except Exception as err:  # noqa: BLE001 - per-rep isolation
                failures.append((job[3], f"{type(err).__name__}: {err}"))
    results.sort(key=lambda r: r.rep)
    return results, failures
