"""Evaluation grids with trapezoid quadrature.

All curves and surfaces in the pipeline live on dense equally spaced grids;
integrals, inner products and the double integrals that project
cross-covariances onto eigenfunction pairs are trapezoid sums on those grids,
written at their call sites as products with ``Grid.weights``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, InvalidInterval


@dataclass(frozen=True)
class Grid:
    """Ordered abscissae over a closed interval plus trapezoid weights.

    Attributes
    ----------
    lower, upper : float
        Interval endpoints; the first/last abscissae coincide with them.
    points : np.ndarray
        Strictly increasing abscissae, shape (n,).
    weights : np.ndarray
        Trapezoid quadrature weights, shape (n,); they sum to upper - lower.
    """

    lower: float
    upper: float
    points: np.ndarray
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.points.ndim != 1 or self.points.size < 2:
            raise InvalidInterval("grid needs at least two abscissae")
        if not np.all(np.diff(self.points) > 0):
            raise InvalidInterval("grid abscissae must be strictly increasing")

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def covered_by(self, times: np.ndarray) -> bool:
        """Whether sorted, nonempty ``times`` leave no gap wider than two grid
        spacings, to either end included: the observations that prediction
        interpolates onto the grid rather than reconstructs from scores."""
        max_gap = 2.0 * (self.points[1] - self.points[0])
        return times[0] - self.lower <= max_gap and self.upper - times[-1] <= max_gap \
            and (times.size == 1 or (times[1:] - times[:-1]).max() <= max_gap)

    def same_as(self, other: "Grid") -> bool:
        return (
            self.n == other.n
            and self.lower == other.lower
            and self.upper == other.upper
            and np.array_equal(self.points, other.points)
        )


@dataclass
class GridFunction:
    """Real-valued curve sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise GridMismatch(
                f"values shape {self.values.shape} does not match grid size {self.grid.n}"
            )

    def at(self, x) -> np.ndarray:
        """Linear interpolation at arbitrary points inside the domain."""
        return np.interp(np.asarray(x, dtype=float), self.grid.points, self.values)


@dataclass
class GridSurface:
    """Real-valued surface sampled on the product of two grids."""

    row_grid: Grid
    col_grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.row_grid.n, self.col_grid.n):
            raise GridMismatch(
                f"values shape {self.values.shape} does not match grids "
                f"({self.row_grid.n}, {self.col_grid.n})"
            )

    def at(self, x_row, x_col) -> np.ndarray:
        """Bilinear interpolation at paired points (vectorized)."""
        return bilinear(self.row_grid.points, self.col_grid.points, self.values, x_row, x_col)


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoid weights: endpoints get half the adjacent spacing, interior
    points half the sum of both adjacent spacings."""
    d = np.diff(points)
    w = np.zeros_like(points, dtype=float)
    w[0] = d[0] / 2.0
    w[-1] = d[-1] / 2.0
    w[1:-1] = (d[:-1] + d[1:]) / 2.0
    return w


def make_grid(lower: float, upper: float, n: int) -> Grid:
    """Equally spaced grid of ``n`` points over [lower, upper]."""
    if not upper > lower:
        raise InvalidInterval(f"need lower < upper, got [{lower}, {upper}]")
    if n < 2:
        raise InvalidInterval("need at least 2 grid points")
    points = np.linspace(float(lower), float(upper), int(n))
    return Grid(float(lower), float(upper), points, trapezoid_weights(points))


def bilinear(gx: np.ndarray, gy: np.ndarray, z: np.ndarray, x, y) -> np.ndarray:
    """Bilinear interpolation of z (on gx x gy) at paired points (x, y).

    Points are clipped to the grid's bounding box, matching np.interp's
    handling of out-of-range queries on each axis. x and y broadcast against
    each other; the four cell corners are read through one flat index into
    z.
    """
    x = np.minimum(np.maximum(np.asarray(x, dtype=float), gx[0]), gx[-1])
    y = np.minimum(np.maximum(np.asarray(y, dtype=float), gy[0]), gy[-1])
    # cell index: the number of interior abscissae at or below the clipped
    # point, so the last grid line falls in the last cell
    ix = np.searchsorted(gx[1:-1], x, side="right")
    iy = np.searchsorted(gy[1:-1], y, side="right")
    fx = (x - gx[ix]) / (gx[ix + 1] - gx[ix])
    fy = (y - gy[iy]) / (gy[iy + 1] - gy[iy])
    ny = gy.size
    flat = np.ravel(z)
    i00 = ix * ny + iy
    ex, ey = 1 - fx, 1 - fy
    return (flat[i00] * ex * ey + flat[i00 + ny] * fx * ey
            + flat[i00 + 1] * ex * fy + flat[i00 + (ny + 1)] * fx * fy)
