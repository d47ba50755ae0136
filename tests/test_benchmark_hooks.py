"""The library names that the benchmark under ``perfbench/`` hooks into.

The benchmark wraps the functions listed in ``perfbench/tracer.py``'s
``TRACED`` and drives ``widen_until_fit`` with a ``LocalFitConfig``, so a
rename or deletion of any of them would break only the benchmark's own
suite. These tests catch it here; they skip where ``perfbench/`` is absent.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from vcflr.errors import InsufficientLocalData
from vcflr.smoothing import LocalFitConfig, widen_until_fit

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def traced():
    if not TRACER.exists():
        pytest.skip("no perfbench/ next to the tests")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves(traced):
    missing = [f"{mod}.{name}" for mod, name, _ in traced
               if not callable(getattr(importlib.import_module(f"vcflr.{mod}"), name, None))]
    assert missing == []


def test_widening_hands_attempts_a_bandwidth(traced):
    seen = []

    def attempt(cfg):
        seen.append(cfg.bandwidth)
        if len(seen) < 3:
            raise InsufficientLocalData("too narrow")
        return cfg

    got = widen_until_fit(attempt, LocalFitConfig(1.0))
    assert seen == [1.0, 1.5, 2.25]
    assert got.bandwidth == 2.25
