"""Outside tracer: spans and counters around vcflr's public functions.

The library is not changed. Instead every module-level binding of a traced
function is replaced by a wrapper, in every loaded ``vcflr`` module. The
library binds names with ``from .x import f`` in many places, so wrapping
``fpca.observation_covariance`` alone would miss the calls ``selection``
makes through its own binding; scanning all modules for the same function
object catches those. Calls made through a module attribute at call time
(``selection.cv_smoother_bandwidth``, ``regression.fit``) and imports done
inside a function body see the wrapper too.

A span records name, parent, start and end. Self time is the span minus the
spans directly below it. ``regression.fit`` recurses (bin-count selection
refits), so a span's inclusive time counts only when no ancestor has the
same name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function, kind). "span" records timed spans; "count" only counts
# calls, for functions too fine to time from outside; "retries" counts the
# attempts beyond the first that widen_until_fit makes.
TRACED = (
    ("selection", "select_binwidth", "span"),
    ("selection", "select_bandwidth", "span"),
    ("selection", "select_truncation", "span"),
    ("selection", "cv_smoother_bandwidth", "span"),
    ("fpca", "observation_covariance", "span"),
    ("fpca", "blup_scores", "span"),
    ("fpca", "fit_bin", "span"),
    ("fpca", "estimate_mean", "span"),
    ("fpca", "smooth_covariance", "span"),
    ("fpca", "smooth_cross_covariance", "span"),
    ("fpca", "estimate_sigma2", "span"),
    ("fpca", "eigendecompose", "span"),
    ("smoothing", "local_linear_1d_at", "span"),
    ("smoothing", "local_linear_2d_at", "span"),
    ("smoothing", "lp_weights", "span"),
    ("smoothing", "widen_until_fit", "retries"),
    ("regression", "fit", "span"),
    ("regression", "fit_global", "span"),
    ("regression", "predict", "span"),
    ("regression", "refine", "span"),
    ("grids", "bilinear", "span"),
    ("kernels", "kernel_eval", "count"),
    ("data", "load_csv", "span"),
    ("data", "partition", "span"),
    ("serialize", "save_model", "span"),
    ("serialize", "load_model", "span"),
    ("simulation", "generate", "span"),
    ("simulation", "mispe", "span"),
    ("evaluate", "predict_dataset", "span"),
)


class Stats:
    """Per-name totals over a set of spans."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)     # outermost spans only
        self.self_ = defaultdict(float)
        self.errors = Counter()            # exceptions escaping the span
        self.retries = 0
        # self time per name under each "stage.*" span of the benchmark
        self.by_stage = defaultdict(lambda: defaultdict(float))


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent, start, end, nested]
        self._stack: list[int] = []
        self._depth = Counter()
        self.counts = Counter()
        self.errors = Counter()
        self.retries = 0
        self.bindings: dict[tuple[str, str], list[str]] = {}
        self.reached = Counter()           # calls per binding, never cleared
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), 0.0,
                           self._depth[name] > 0])
        self._depth[name] += 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()
        self._depth[self.spans[idx][0]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            self._exit(idx)

    def take(self) -> Stats:
        """Aggregate and clear the spans, counts and retries recorded so far.

        Must be called with no span open.
        """
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        stats = Stats()
        child = [0.0] * len(self.spans)
        stage = [None] * len(self.spans)
        for i, (name, parent, start, end, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
            stage[i] = name if name.startswith("stage.") else (
                stage[parent] if parent >= 0 else None)
        for i, (name, _, start, end, nested) in enumerate(self.spans):
            own = (end - start) - child[i]
            stats.calls[name] += 1
            stats.self_[name] += own
            if not nested:
                stats.incl[name] += end - start
            if stage[i] is not None:
                stats.by_stage[stage[i]][name] += own
        stats.calls.update(self.counts)
        stats.errors = self.errors
        stats.retries = self.retries
        self.spans = []
        self.counts = Counter()
        self.errors = Counter()
        self.retries = 0
        return stats

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name: str, binding: str, fn):
        reached = self.reached

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reached[binding] += 1
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self._exit(idx)
        return wrapper

    def _count_wrapper(self, name: str, binding: str, fn):
        reached = self.reached

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reached[binding] += 1
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _retries_wrapper(self, name: str, binding: str, fn):
        reached = self.reached

        @functools.wraps(fn)
        def wrapper(attempt, cfg, *args, **kwargs):
            tried = 0

            def counted(c):
                nonlocal tried
                tried += 1
                if tried > 1:
                    self.retries += 1
                return attempt(c)

            reached[binding] += 1
            self.counts[name] += 1
            return fn(counted, cfg, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every traced function in the vcflr modules.

        Each binding gets its own wrapper, so ``reached`` tells which
        module's name a call went through.
        """
        for mod_name, _, _ in TRACED:
            importlib.import_module(f"vcflr.{mod_name}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "vcflr" or name.startswith("vcflr.")}
        make = {"span": self._span_wrapper, "count": self._count_wrapper,
                "retries": self._retries_wrapper}
        for mod_name, fn_name, kind in TRACED:
            original = getattr(modules[f"vcflr.{mod_name}"], fn_name)
            found = []
            for name, mod in sorted(modules.items()):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        binding = f"{name.removeprefix('vcflr.')}.{attr}"
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, make[kind](fn_name, binding, original))
                        found.append(binding)
            self.bindings[(mod_name, fn_name)] = found

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

