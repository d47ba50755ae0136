import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from vcflr.errors import EmptyBin
from vcflr.evaluate import _single_thread_blas, run_repetition, run_repetitions
from vcflr.regression import FitConfig
from vcflr.simulation import REGULAR

GLOBAL = FitConfig(truncation=(2, 2), refine_bandwidth=0.3, bandwidth_policy="default")


def vc_config(min_bin_count):
    return FitConfig(n_bins=4, truncation=(2, 2), refine_bandwidth=0.3,
                     bandwidth_policy="default", min_bin_count=min_bin_count)


def small_runs(min_bin_count, threads):
    return run_repetitions(REGULAR, 2, 40, 10, base_seed=0, vc_config=vc_config(min_bin_count),
                           global_config=GLOBAL, threads=threads)


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestParallelRepetitions:
    def test_workers_match_direct_calls(self):
        direct = [run_repetition(REGULAR, 40, 10, seed, vc_config(2), GLOBAL) for seed in (0, 1)]
        assert small_runs(2, threads=1) == (direct, [])
        assert small_runs(2, threads=2) == (direct, [])

    def test_failure_reports_seed_and_message(self):
        # at 40 subjects seed 0 leaves a bin under 8 subjects; seed 1 does not
        with pytest.raises(EmptyBin) as err:
            run_repetition(REGULAR, 40, 10, 0, vc_config(8), GLOBAL)
        assert "fewer than the required 8" in str(err.value)
        direct = [run_repetition(REGULAR, 40, 10, 1, vc_config(8), GLOBAL)]
        for threads in (1, 2):
            assert small_runs(8, threads) == (direct, [(0, f"EmptyBin: {err.value}")])

    def test_thread_variables_restored(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        small_runs(2, threads=2)
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert "MKL_NUM_THREADS" not in os.environ

    def test_spawned_workers_see_one_blas_thread(self):
        spawn = multiprocessing.get_context("spawn")
        with _single_thread_blas(), ProcessPoolExecutor(1, mp_context=spawn) as pool:
            assert pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result(timeout=120) == "1"
