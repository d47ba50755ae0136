"""The library names that the benchmark under ``perfbench/`` hooks into.

The benchmark wraps the functions listed in ``perfbench/tracer.py``'s
``TRACED`` and drives ``widen_until_fit`` with a ``LocalFitConfig``, so a
rename or deletion of any of them would break only the benchmark's own
suite. These tests catch it here; they skip where ``perfbench/`` is absent.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from vcflr.errors import InsufficientLocalData
from vcflr.smoothing import LocalFitConfig, widen_until_fit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def _placed_bindings() -> set:
    """``EXPECTED`` and ``UNUSED`` of ``perfbench/test_benchmark.py``: the
    bindings its coverage tests place. Only the assignments that build those
    sets are run, so nothing of the benchmark is imported."""
    names = {"STUDY", "SELECTION_ONLY", "EXPECTED", "UNUSED"}
    tree = ast.parse((PERFBENCH / "test_benchmark.py").read_text(encoding="utf-8"))
    body = [node for node in tree.body if isinstance(node, ast.Assign)
            and {t.id for t in node.targets if isinstance(t, ast.Name)} & names]
    scope = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), "test_benchmark.py", "exec"), scope)
    return set().union(*scope["EXPECTED"].values()) | scope["UNUSED"]


def test_every_traced_binding_is_placed(traced):
    """Each module-level name bound to a traced function in the modules the
    tracer wraps is one the benchmark's coverage test expects, so a new
    ``from .x import f`` shows up here and not only under ``pytest perfbench``.
    The package's own re-exports (``vcflr.*``) are left out, as there."""
    modules = sorted({mod for mod, _, _ in traced})
    found = set()
    for mod, name, _ in traced:
        original = getattr(importlib.import_module(f"vcflr.{mod}"), name)
        for owner in modules:
            for attr, value in vars(importlib.import_module(f"vcflr.{owner}")).items():
                if value is original:
                    found.add(f"{owner}.{attr}")
    assert sorted(found - _placed_bindings()) == []
