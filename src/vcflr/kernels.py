"""Compactly supported smoothing kernels.

All kernels live on [-1, 1] and have order (0, 2): unit mass, vanishing first
moment, finite nonzero second moment. The 2D smoother weighs a point by the
product K(u) K(v) of one kernel on both axes, which is order ((0, 0), 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_FAMILIES = ("epanechnikov", "quartic", "uniform")


@dataclass(frozen=True)
class Kernel1D:
    """Univariate kernel on [-1, 1].

    ``closed_support`` records whether the kernel is strictly positive at the
    support boundary (true only for the uniform family); local fits use it to
    count which points carry positive weight.
    """

    family: str = "epanechnikov"

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; choose from {_FAMILIES}")

    @property
    def closed_support(self) -> bool:
        return self.family == "uniform"

    def __call__(self, u) -> np.ndarray:
        return kernel_eval(self, u)

    def scaled(self, x, b: float) -> np.ndarray:
        """K_b(x) = K(x / b) / b."""
        return kernel_eval(self, np.asarray(x, dtype=float) / b) / b


def kernel_eval(k: Kernel1D, u) -> np.ndarray:
    """Evaluate K(u); zero outside [-1, 1]."""
    u = np.asarray(u, dtype=float)
    if k.family in ("epanechnikov", "quartic"):
        # max(0, 1 - u²), in place in one temporary
        out = np.multiply(u, u, out=np.empty_like(u))
        np.subtract(1.0, out, out=out)
        np.maximum(out, 0.0, out=out)
        if k.family == "quartic":
            np.square(out, out=out)
        out *= 0.75 if k.family == "epanechnikov" else 0.9375
    else:  # uniform
        out = np.where(np.abs(u) <= 1.0, 0.5, 0.0)
    return out if out.ndim else float(out)
