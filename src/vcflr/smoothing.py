"""Weighted local linear smoothers and local polynomial refinement weights.

The one- and two-dimensional smoothers return the local intercept of a
kernel-weighted least-squares fit at each evaluation point; both reproduce
affine data exactly for any bandwidth. Each takes one ``Kernel1D``, which
the 2D smoother applies on both axes at a (b1, b2) bandwidth pair.
``local_linear_weights`` builds the linear weights that combine per-bin raw
estimates across the covariate axis; ``lp_weights`` is the general local
polynomial reference they agree with.

Points may carry multiplicity weights: a weighted point (x, y, w) enters the
normal equations exactly like w copies of (x, y), which lets callers collapse
duplicate design locations (regular designs produce huge numbers of them)
without changing any result.

The smoothers sum their kernel moments in support tiles, whose work follows
the kernel's support. The 2D smoother instead forms them over the lattice
of its points' distinct coordinates when the points fill enough of it
(``_LATTICE_CELLS``), as a regular design's pairs fill the lattice of its
shared observation times; scattered points, as on a sparse design, keep
the tiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientCenters, InsufficientLocalData
from .kernels import Kernel1D, kernel_eval

# Relative determinant below which a 1D or rotated-diagonal local system is
# near-singular, and the diagonal loading, relative to its mean diagonal
# entry, that such a system gets.
_SINGULAR_RTOL = 1e-14
_RIDGE = 1e-10
# Held-out squared error, relative to the held-out sum of squared values,
# within which two cross-validated fits tie. A fit that reproduces the data
# errs by rounding alone, a few hundred ulps of each value at most, which
# squares to about 1e-27 of that sum; a gap of 1e-20 of it is an RMS
# difference of 1e-10 of the data's scale, far below any real difference.
_CV_TIE_RTOL = 1e-20
# Relative centered-moment determinant below which a 2D design is degenerate.
_DEGENERATE_RTOL = 1e-13
# Bandwidth growth per retry, and retries, when a local fit lacks data.
_WIDEN_FACTOR = 1.5
_WIDEN_ATTEMPTS = 5
# Fewest data points per tile, on average, for which the smoothers split
# their data into support-sized tiles: at most N / _TILE_POINTS_1D tiles in
# 1D (mean curves, rotated diagonal fit) and sqrt(N / _TILE_POINTS_2D) per
# axis in 2D; below that a tile's loop overhead outweighs what it saves.
# Replaying the smoother calls of seed-1000 study fits and of fit-serve fits
# (one BLAS thread, 2-core Xeon), 2D floors of 100-200 points beat 1000 by
# 25% on sparse designs, and 1D floors of 500-2000 were within noise.
_TILE_POINTS_1D = 1000
_TILE_POINTS_2D = 200
# Most lattice cells per data point for which the 2D smoother forms its
# moments over the lattice of distinct coordinates (``_lattice_moments``)
# and not in support tiles (``_tiled_moments``). The lattice products cost
# U1 * U2 per evaluation point whatever the bandwidth, tiles about the
# points in the kernel's support, so the lattice wins only where enough
# cells hold points. One BLAS thread, 2-core Xeon, 51 x 51 evaluation grid:
# replaying the 84 calls of a seed-1000 regular auto-selected fit, whose
# bins fill 97-100% of their 31 x 31 lattice, took 0.038 s against 0.150 s
# in tiles; the sparse design's bins (0.8-3.5% full) ran at 0.8x the tiles'
# speed on the lattice, and fit-serve's (0.2%) at 0.06x. Randomly thinned
# 31 x 31 to 121 x 121 lattices broke even at 3-6% full, and a quarter
# full still ran 2-4.6x faster than in tiles, so the bound sits clear of
# both kinds of input.
_LATTICE_CELLS = 4
# Most weighted products a smoother forms at once: evaluation points on a
# tile's longest axis run times data points, in 1D, where the temporaries
# are that size whatever the columns, and that times five per column in 2D,
# whose moment array is (5, F, run, points). A larger tile is smoothed in
# blocks of its points, which bounds the temporaries.
_BLOCK = 1_000_000


def _check_bandwidths(bandwidth) -> None:
    """ValueError unless every bandwidth is positive (NaN is not)."""
    if not np.all(np.asarray(bandwidth, dtype=float) > 0):
        raise ValueError(f"bandwidths must be strictly positive, got {bandwidth!r}")


@dataclass(frozen=True)
class LocalFitConfig:
    """Bandwidth and kernel for one local fit.

    ``bandwidth`` is a float for 1D smoothers and a (b1, b2) pair for 2D
    ones, which weigh a point by the product of ``kernel`` on both axes.
    """

    bandwidth: float | tuple[float, float]
    kernel: Kernel1D = Kernel1D()

    def __post_init__(self):
        _check_bandwidths(self.bandwidth)

    def widened(self, factor: float) -> "LocalFitConfig":
        bw = self.bandwidth
        return LocalFitConfig(tuple(b * factor for b in bw) if isinstance(bw, (tuple, list))
                              else bw * factor, self.kernel)


def widen_until_fit(fit: Callable[[LocalFitConfig], object], cfg: LocalFitConfig,
                    factor: float = _WIDEN_FACTOR, attempts: int = _WIDEN_ATTEMPTS):
    """Run ``fit(cfg)``, widening the bandwidth on insufficient-data errors.

    Retries with bandwidth * factor**k for k = 1..attempts, then re-raises the
    last error.
    """
    current = cfg
    for k in range(attempts + 1):
        try:
            return fit(current)
        except (InsufficientLocalData, InsufficientCenters) as err:
            last = err
            current = current.widened(factor)
    raise last


def _support_counts(x_sorted_unique: np.ndarray, centers: np.ndarray, b, closed: bool,
                    prefix: np.ndarray | None = None) -> np.ndarray:
    """Number of distinct x values with positive kernel weight per center.

    ``b`` broadcasts against ``centers``, so a (C, 1) column of bandwidths
    counts every bandwidth's windows at once. With ``prefix``, the running
    count (U + 1, F) of the values present in each of F columns, each
    column's present values are counted, along a trailing axis of size F.
    """
    side_lo, side_hi = ("left", "right") if closed else ("right", "left")
    lo = np.searchsorted(x_sorted_unique, centers - b, side=side_lo)
    hi = np.searchsorted(x_sorted_unique, centers + b, side=side_hi)
    return hi - lo if prefix is None else prefix[hi] - prefix[lo]


def _column_support(x: np.ndarray, w_cols: np.ndarray, centers: np.ndarray, bandwidths,
                    closed: bool) -> np.ndarray:
    """The distinct x values of positive multiplicity in each of the F
    columns of ``w_cols`` that the kernel weighs at each center, for each
    of C bandwidths: (C, n_centers, F).

    Cost: one sort of x for all columns and bandwidths; each column's
    presence is a prefix count over the distinct values, and one
    ``searchsorted`` per side finds every window's ends.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))[:xs.size]
    present = np.logical_or.reduceat(w_cols[order] > 0, first, axis=0)
    prefix = np.zeros((first.size + 1, w_cols.shape[1]), dtype=np.intp)
    np.cumsum(present, axis=0, out=prefix[1:])
    b = np.asarray(bandwidths, dtype=float).reshape(-1, 1)
    return _support_counts(xs[first], centers, b, closed, prefix)


def _support_tiles(points, evals, bandwidths, floor: int, width: int = 1):
    """Data tiles about one bandwidth wide per axis, and the evaluation
    points each tile can reach.

    ``points``, ``evals`` and ``bandwidths`` hold one entry per axis, each
    ``evals`` array sorted. Each axis is cut into min(span / b, cap) equal
    cells, cap = N // floor in 1D and isqrt(N // floor) in 2D. Returns ``(order,
    tiles)``: ``order`` indexes the data in tile order, and each tile is
    (slice of the ordered data, per-axis slice of ``evals``). An evaluation
    run is found with ``searchsorted`` against the tile's range widened by
    one bandwidth and a relative 1e-12, so it holds every point that the
    kernels' |x - s| / b <= 1 test accepts, closed-support boundaries
    included. A tile of more than ``_BLOCK`` products (longest run times
    points times ``width``, the caller's arrays of that size per point)
    comes as several slices of its points.
    """
    n = points[0].size
    cap = n // floor if len(points) == 1 else math.isqrt(n // floor)
    key = None
    for x, b in zip(points, bandwidths):
        lo, span = (float(x.min()), float(x.max() - x.min())) if cap > 1 else (0.0, 0.0)
        k = min(cap, int(span / b))
        if k >= 2:
            cell = np.minimum(((x - lo) * (k / span)).astype(int), k - 1)
            key = cell if key is None else key * k + cell
    if key is None:   # one tile, reaching every evaluation point
        order, starts = slice(None), np.zeros(min(n, 1), dtype=int)
        reach = [tuple(slice(0, e.size) for e in evals)]
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        runs = []
        for x, e, b in zip(points, evals, bandwidths):
            xs = x[order]
            lo, hi = np.minimum.reduceat(xs, starts), np.maximum.reduceat(xs, starts)
            margin = 1e-12 * (b + np.maximum(np.abs(lo), np.abs(hi)))
            runs.append(zip(np.searchsorted(e, lo - b - margin).tolist(),
                            np.searchsorted(e, hi + b + margin, side="right").tolist()))
        reach = [tuple(slice(*r) for r in tile) for tile in zip(*runs)]
    tiles = []
    for start, stop, tile in zip(starts.tolist(), starts[1:].tolist() + [n], reach):
        sizes = [r.stop - r.start for r in tile]
        if min(sizes) > 0:
            step = max(1, _BLOCK // (max(sizes) * width))
            tiles.extend((slice(i, min(i + step, stop)), tile) for i in range(start, stop, step))
    return order, tiles


def local_moments_1d(x: np.ndarray, eval_points: np.ndarray, bandwidth: float,
                     kernel: Kernel1D, columns) -> list[np.ndarray]:
    """Kernel moments of a local polynomial fit in one variable: for each
    power j and (N, c_j) array ``columns[j]``, the (n_eval, c_j) sums
    sum_i K((x_i - s) / b) (x_i - s)^j columns[j][i] at the sorted
    ``eval_points`` s.

    Cost: each ``_support_tiles`` tile forms its kernel weights only
    against the evaluation points it can reach, and every power costs one
    matrix product per tile for all its columns.
    """
    b = float(bandwidth)
    order, tiles = _support_tiles((x,), (eval_points,), (b,), _TILE_POINTS_1D)
    x = x[order]
    columns = [c[order] for c in columns]
    sums = [np.zeros((eval_points.size, c.shape[1])) for c in columns]
    for data, (rows,) in tiles:
        dx = x[None, data] - eval_points[rows, None]   # dx[p, i] = x_i - s_p
        k = kernel_eval(kernel, dx / b)
        for j, (c, total) in enumerate(zip(columns, sums)):
            if j:
                k *= dx
            total[rows] += k @ c[data]
    return sums


def _columns(y: np.ndarray, weights: np.ndarray | None, n: int):
    """Values and multiplicities as broadcast (n, F) column stacks, and
    whether either was given as a stack."""
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    y_cols, w_cols = np.broadcast_arrays(y.reshape(n, -1), w.reshape(n, -1))
    return y_cols, w_cols, y.ndim == 2 or w.ndim == 2


def local_linear_1d_at(
    x: np.ndarray,
    y: np.ndarray,
    eval_points: np.ndarray,
    bandwidth: float,
    kernel: Kernel1D = Kernel1D(),
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Local linear intercept at arbitrary evaluation points, for one data
    column or a stack of columns sharing the locations x.

    ``y`` holds the value at each location and ``weights`` its multiplicity,
    each of shape (U,) or (U, F) for F columns; a location of multiplicity
    zero is absent from that column. The result is (n_eval,) when both are
    one-dimensional and (n_eval, F) otherwise. Each column is fitted on its
    own: raises InsufficientLocalData when, in some column, an evaluation
    point has fewer than two distinct present x values inside the kernel
    window, and loads the diagonal of a column's numerically singular local
    system with ``_RIDGE``.

    Cost: one sort of x counts every column's support
    (``_column_support``); the moments come from one ``local_moments_1d``
    call, three matrix products per support tile for all F columns, and the
    systems are solved once (``_local_linear_fit``, which cross-validation
    shares).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eval_points = np.asarray(eval_points, dtype=float)
    y_cols, w_cols, stacked = _columns(y, weights, x.size)
    _check_bandwidths(bandwidth)
    b = float(bandwidth)

    counts = _column_support(x, w_cols, eval_points, b, kernel.closed_support)[0]
    if np.any(counts < 2):
        f = int(np.argmax(np.any(counts < 2, axis=0)))
        p = int(np.argmax(counts[:, f] < 2))
        raise InsufficientLocalData(
            f"only {counts[p, f]} distinct point(s) within bandwidth {b:g} "
            f"of evaluation point {eval_points[p]:g}"
            + (f" in column {f}" if stacked else "")
        )

    order = np.argsort(eval_points, kind="stable")
    out = np.empty((eval_points.size, w_cols.shape[1]))
    out[order] = _local_linear_fit(x, y_cols, w_cols, eval_points[order], b, kernel)
    return out if stacked else out[:, 0]


def _local_linear_fit(x: np.ndarray, y_cols: np.ndarray, w_cols: np.ndarray,
                      sorted_evals: np.ndarray, b: float, kernel: Kernel1D) -> np.ndarray:
    """Local linear intercepts (n_eval, F) of every column of values
    ``y_cols`` and multiplicities ``w_cols`` (U, F) at sorted evaluation
    points: the moments of one ``local_moments_1d`` call, solved in closed
    form. A numerically singular system (determinant at most
    ``_SINGULAR_RTOL`` s0 s2) has its diagonal loaded with ``_RIDGE`` times
    its mean diagonal entry. Support is the caller's to check.
    """
    # [multiplicities | value sums]: K against it gives s0 | t0, K dx s1 | t1
    wy = np.concatenate([w_cols, w_cols * y_cols], axis=1)
    m0, m1, s2 = local_moments_1d(x, sorted_evals, b, kernel, [wy, wy, w_cols])
    n_cols = w_cols.shape[1]
    s0, t0, s1, t1 = m0[:, :n_cols], m0[:, n_cols:], m1[:, :n_cols], m1[:, n_cols:]
    det = s0 * s2 - s1 * s1
    bad = det <= _SINGULAR_RTOL * s0 * s2
    if np.any(bad):
        lam = _RIDGE * (s0[bad] + s2[bad]) / 2.0
        s0[bad] += lam
        s2[bad] += lam
        det = s0 * s2 - s1 * s1
    return (s2 * t0 - s1 * t1) / det


def _lattice_codes(x1: np.ndarray, x2: np.ndarray):
    """The distinct values of each coordinate and every point's index among
    them, ``((u1, c1), (u2, c2))``, when the points lie on a lattice of at
    most ``_LATTICE_CELLS`` cells per point; None otherwise.

    Cost: an x1 in sorted order, as ``fpca`` and ``selection`` pass their
    grouped rows, is coded in one comparison pass, and the distinct x2 of a
    prefix bound U2 from below, which turns scattered inputs away before any
    sort of x2. Only an unsorted x1 is sorted.
    """
    n = x1.size
    if n == 0:
        return None
    cap = _LATTICE_CELLS * n
    ordered = not np.any(x1[1:] < x1[:-1])
    n_u1 = np.count_nonzero(x1[1:] != x1[:-1]) + 1 if ordered else np.unique(x1).size
    # scattered inputs hold more than cap / U1 distinct x2 in this prefix
    if n_u1 * np.unique(x2[:2 * (cap // n_u1) + 2]).size > cap:
        return None
    u2, c2 = np.unique(x2, return_inverse=True)
    if n_u1 * u2.size > cap:
        return None
    if ordered:
        new = np.concatenate(([True], x1[1:] != x1[:-1]))
        return (x1[new], np.cumsum(new) - 1), (u2, c2)
    return np.unique(x1, return_inverse=True), (u2, c2)


def _lattice_moments(codes, y_cols, w_cols, eval1, eval2, bandwidths, kernel: Kernel1D):
    """``_tiled_moments`` on the lattice of ``_lattice_codes``.

    With A_j[p, u] = K((u - s_p) / b1) (u - s_p)^j over the U1 distinct
    first coordinates, B_k the same over the U2 second ones, and a column's
    U1 x U2 lattices W of multiplicities and V of value sums (one
    ``bincount`` each), S_jk = A_j W B_k^T and T_jk = A_j V B_k^T. The
    support count is (A_0 > 0) P (B_0 > 0)^T, with P the lattice of points
    of positive multiplicity, which is the integer that the tiles count.

    Cost: two matrix products for all columns and powers at once, each over
    the whole lattice and every evaluation point, whatever the bandwidth;
    they form all eighteen (j, W or V, k) surfaces, of which nine are kept.
    """
    (u1, c1), (u2, c2) = codes
    b1, b2 = bandwidths
    n_cols, cells = w_cols.shape[1], u1.size * u2.size
    cell = c1 * u2.size + c2
    lattice = np.empty((3, n_cols, cells))   # W | V | P, per column
    for f in range(n_cols):
        w = w_cols[:, f]
        lattice[0, f] = np.bincount(cell, weights=w, minlength=cells)
        lattice[1, f] = np.bincount(cell, weights=w * y_cols[:, f], minlength=cells)
        lattice[2, f] = np.bincount(cell, weights=w > 0, minlength=cells)
    lattice = lattice.reshape(3, n_cols, u1.size, u2.size)

    def powers(u, s, b):
        d = u[None, :] - s[:, None]   # d[p, i] = u_i - s_p
        out = np.empty((3,) + d.shape)
        out[0] = kernel_eval(kernel, d / b)
        np.multiply(out[0], d, out=out[1])
        np.multiply(out[1], d, out=out[2])
        return out

    a, bk = powers(u1, eval1, b1), powers(u2, eval2, b2)
    n1, n2 = eval1.size, eval2.size
    # every A_j [W | V] B_k^T: right products first, then one left product
    right = lattice[:2].reshape(-1, u2.size) @ bk.reshape(-1, u2.size).T
    right = right.reshape(-1, u1.size, 3 * n2).transpose(1, 0, 2).reshape(u1.size, -1)
    full = (a.reshape(-1, u1.size) @ right).reshape(3, n1, 2, n_cols, 3, n2)
    # (j, W or V, k) of s00, s10, t00, s20, t10 | s01, s11, t01 | s02
    moments = full[[0, 1, 0, 2, 1, 0, 1, 0, 0], :, [0, 0, 1, 0, 1, 0, 0, 1, 0], :,
                   [0, 0, 0, 0, 0, 1, 1, 1, 2]].transpose(0, 2, 1, 3)
    count = (a[0] > 0).astype(float) @ lattice[2] @ (bk[0] > 0).astype(float).T
    return moments, count


def _tiled_moments(x1, x2, y_cols, w_cols, eval1, eval2, bandwidths, kernel: Kernel1D):
    """The nine moment surfaces of ``local_linear_2d_at``, (9, F, n1, n2) in
    the order s00, s10, t00, s20, t10, s01, s11, t01, s02, and the support
    count (F, n1, n2), the points of positive multiplicity that the kernel
    weighs, at sorted evaluation points. Each block of a tile's points gives
    them in three stacked matrix products: [a0, a1, y a0, a2, y a1] against
    b0, [a0, a1, y a0] against b1 and a0 against b2.

    Cost: each ``_support_tiles`` tile (at most sqrt(N / 200) per axis, so
    under 800 points is one tile) only touches the evaluation rows and
    columns within one bandwidth of its points, so the work follows the
    kernel's support. Its kernel weights serve all F columns; the products
    scale with F.
    """
    b1, b2 = bandwidths
    n_cols, n1, n2 = w_cols.shape[1], eval1.size, eval2.size
    order, tiles = _support_tiles((x1, x2), (eval1, eval2), bandwidths, _TILE_POINTS_2D,
                                  5 * n_cols)
    x1, x2 = x1[order], x2[order]
    w_t, y_t = w_cols[order].T, y_cols[order].T   # (F, U)

    moments = np.zeros((9, n_cols, n1, n2))
    count = np.zeros((n_cols, n1, n2))
    for data, (rows, cols) in tiles:
        d1 = x1[None, data] - eval1[rows, None]   # d1[p, i] = x1_i - eval1_p
        d2 = x2[None, data] - eval2[cols, None]
        (m1, n), m2 = d1.shape, d2.shape[0]
        a = np.empty((5, n_cols, m1, n))
        bk = np.empty((3, m2, n))
        np.multiply(kernel_eval(kernel, d1 / b1), w_t[:, None, data], out=a[0])
        np.multiply(a[0], d1, out=a[1])
        np.multiply(a[0], y_t[:, None, data], out=a[2])
        np.multiply(a[1], d1, out=a[3])
        np.multiply(a[1], y_t[:, None, data], out=a[4])
        bk[0] = kernel_eval(kernel, d2 / b2)
        np.multiply(bk[0], d2, out=bk[1])
        np.multiply(bk[1], d2, out=bk[2])
        tile = moments[:, :, rows, cols]
        tile[:5] += (a.reshape(-1, n) @ bk[0].T).reshape(5, n_cols, m1, m2)
        tile[5:8] += (a[:3].reshape(-1, n) @ bk[1].T).reshape(3, n_cols, m1, m2)
        tile[8] += a[0] @ bk[2].T
        count[:, rows, cols] += (a[0] > 0).astype(float) @ (bk[0] > 0).astype(float).T
    return moments, count


# The moment that each of the nine (s00, s10, t00, s20, t10, s01, s11, t01,
# s02) becomes at its mirror, (j, k) -> (k, j).
_MIRROR = [0, 5, 2, 8, 7, 1, 6, 4, 3]


def _diagonal_count(x1, x2, w_cols, eval1, eval2, bandwidths, kernel: Kernel1D):
    """The points on the diagonal x1 == x2 of positive multiplicity that
    the kernel weighs at each evaluation point, (F, n1, n2): the ones that
    a support count and its mirror both hold."""
    on = x1 == x2
    if not np.any(on):
        return 0.0
    x, (b1, b2) = x1[on], bandwidths
    present = (w_cols[on] > 0).T   # (F, D)
    e1 = kernel_eval(kernel, (x[None, :] - eval1[:, None]) / b1) > 0
    e2 = kernel_eval(kernel, (x[None, :] - eval2[:, None]) / b2) > 0
    return (e1 & present[:, None, :]).astype(float) @ e2.T.astype(float)


def _moments(x1, x2, y_cols, w_cols, eval1, eval2, bandwidths, kernel: Kernel1D,
             mirror: bool):
    """The nine moment surfaces and the support count of
    ``local_linear_2d_at`` at sorted evaluation points, from the lattice or
    the support tiles. With ``mirror`` each moment S_jk gains its mirror's,
    which is S_kj at the evaluation axes and bandwidths swapped, transposed
    (the same surfaces when the axes are alike), and the count gains its
    transpose less the diagonal points that both hold."""
    codes = _lattice_codes(x1, x2)

    def form(e1, e2, bw):
        if codes is None:
            return _tiled_moments(x1, x2, y_cols, w_cols, e1, e2, bw, kernel)
        return _lattice_moments(codes, y_cols, w_cols, e1, e2, bw, kernel)

    moments, count = form(eval1, eval2, bandwidths)
    if mirror:
        b1, b2 = bandwidths
        alike = b1 == b2 and np.array_equal(eval1, eval2)
        swapped, swapped_count = (moments, count) if alike else form(eval2, eval1, (b2, b1))
        moments += swapped[_MIRROR].swapaxes(-1, -2)   # indexing copies: no aliasing
        count = count + swapped_count.swapaxes(-1, -2) \
            - _diagonal_count(x1, x2, w_cols, eval1, eval2, bandwidths, kernel)
    return moments, count


def local_linear_2d_at(
    x1: np.ndarray,
    x2: np.ndarray,
    y: np.ndarray,
    eval1: np.ndarray,
    eval2: np.ndarray,
    bandwidths: tuple[float, float],
    kernel: Kernel1D = Kernel1D(),
    weights: np.ndarray | None = None,
    mirror: bool = False,
) -> np.ndarray:
    """Local linear intercept surface on eval1 x eval2, for one data column
    or a stack of columns sharing the locations (x1, x2).

    ``y`` and ``weights`` are (U,) or (U, F), as for ``local_linear_1d_at``;
    the result is (n1, n2) or (n1, n2, F), each column fitted on its own.
    With ``mirror``, every point (x1, x2) with x1 < x2 also stands for its
    mirror (x2, x1), with the same value and multiplicity, and a point with
    x1 == x2 for itself twice: the half j < l of a covariance's raw pairs
    gives the fit of all of them. Points with x1 > x2 raise ValueError. No
    points raise InsufficientLocalData.

    A point is weighed by the product K(d1/b1) K(d2/b2) of one kernel on
    both axes, which makes every entry of the local normal equations a sum
    of separable terms: with a_j = K(d1/b1) w d1^j and b_j = K(d2/b2) d2^j,
    the moment S_jk is a_j b_k^T and T_jk is (y a_j) b_k^T. The nine moment
    surfaces of every column therefore come from matrix products, formed one
    of two ways (``_lattice_moments`` and ``_tiled_moments``, which return
    the same moments and support count).

    The intercept is solved in closed form: with weighted means μ = (s10,
    s01) / s00 and ȳ = t00 / s00, the slopes β solve the centred 2x2 system
    [v11 v12; v12 v22] β = c, and the intercept is ȳ - β·μ. A point with
    fewer than three weighted locations, or whose centred determinant
    cdet = v11 v22 - v12² is at most 1e-13 b1² b2² (all weight at one
    location, or on one line), raises InsufficientLocalData. No ridge is
    needed past that check: the 3x3 determinant is det M = s00³ cdet, and on
    the kernel's support s20 <= b1² s00 and s02 <= b2² s00, so a
    near-singular system with det M <= 1e-14 s00 s20 s02 has
    cdet <= 1e-14 b1² b2² and has already been rejected as degenerate.

    Cost: points on a lattice of at most ``_LATTICE_CELLS`` cells per point
    (a regular design's pairs: 465 covariance or 961 cross rows on 30 x 30
    or 31 x 31 distinct times)
    get their moments as A_j W B_k^T over the distinct coordinates, one
    ``bincount`` per column and two small matrix products per column and
    power. Scattered points (a sparse design's pairs, a few percent of their
    lattice or less) are summed in support tiles, whose work follows the
    kernel's support. Either way the kernel weights serve all F columns.
    With ``mirror``, a covariance row stands for itself and its mirror, so
    the moments are formed from half the rows and their mirrors added as
    transposes (``_moments``): a regular bin's covariance is 465 rows per
    stream, not 930. Unless eval1 == eval2 and b1 == b2, the mirrors need a
    second moment pass.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    _check_bandwidths(bandwidths)
    if x1.size == 0:
        raise InsufficientLocalData("no data points to smooth")
    if mirror and np.any(x1 > x2):
        raise ValueError("mirrored points need x1 <= x2")
    y_cols, w_cols, stacked = _columns(np.asarray(y, dtype=float), weights, x1.size)
    b1, b2 = float(bandwidths[0]), float(bandwidths[1])
    # sorted evaluation points make the rows and columns a tile reaches contiguous
    eval1 = np.asarray(eval1, dtype=float)
    eval2 = np.asarray(eval2, dtype=float)
    order1, order2 = np.argsort(eval1, kind="stable"), np.argsort(eval2, kind="stable")
    eval1, eval2 = eval1[order1], eval2[order2]
    n1, n2, n_cols = eval1.size, eval2.size, w_cols.shape[1]

    moments, count = _moments(x1, x2, y_cols, w_cols, eval1, eval2, (b1, b2), kernel,
                              mirror)

    def first(bad: np.ndarray) -> tuple[tuple, str]:
        """The first failing (column, row, col) entry, column by column,
        and the evaluation point it names."""
        f, p1, p2 = np.unravel_index(int(np.argmax(bad)), bad.shape)
        return (f, p1, p2), (f"evaluation point ({eval1[p1]:g}, {eval2[p2]:g})"
                             + (f" in column {f}" if stacked else ""))

    s00, s10, t00, s20, t10, s01, s11, t01, s02 = moments
    if np.any(count < 3):
        at, where = first(count < 3)
        raise InsufficientLocalData(
            f"only {int(count[at])} point(s) within bandwidths ({b1:g}, {b2:g}) of {where}")

    # Degenerate designs (all weighted points at one location or collinear)
    # have a vanishing centered second-moment determinant.
    with np.errstate(invalid="ignore", divide="ignore"):
        mu1, mu2, ybar = s10 / s00, s01 / s00, t00 / s00
        v11 = s20 / s00 - mu1 ** 2
        v22 = s02 / s00 - mu2 ** 2
        v12 = s11 / s00 - mu1 * mu2
    centered_det = v11 * v22 - v12 * v12
    degenerate = centered_det <= _DEGENERATE_RTOL * (b1 * b1) * (b2 * b2)
    if np.any(degenerate):
        _, where = first(degenerate)
        raise InsufficientLocalData(
            f"degenerate local design (no affinely independent points) at {where}")

    c1 = t10 / s00 - ybar * mu1
    c2 = t01 / s00 - ybar * mu2
    beta1 = (v22 * c1 - v12 * c2) / centered_det
    beta2 = (v11 * c2 - v12 * c1) / centered_det
    sol = ybar - beta1 * mu1 - beta2 * mu2
    out = np.empty((n1, n2, n_cols))
    out[np.ix_(order1, order2)] = sol.transpose(1, 2, 0)
    return out if stacked else out[:, :, 0]


def lp_weights(q: int, r: int, centers: np.ndarray, z: float, b: float,
               kernel: Kernel1D = Kernel1D()) -> np.ndarray:
    """Local polynomial weights for the q-th derivative of a degree-r fit.

    Returns a length-P vector w with sum_p w_p (centers_p - z)^j = q! δ_jq
    for j = 0..r. When fewer than r + 1 centers carry positive kernel weight
    the fit order drops to the largest feasible degree (down to q), so the
    b -> 0 limit at a center degenerates to interpolating that center.
    """
    if q < 0 or r < 1 or q > r:
        raise ValueError("need 0 <= q <= r and r >= 1")
    centers = np.asarray(centers, dtype=float)
    kw = kernel.scaled(centers - z, float(b))
    m = int(np.count_nonzero(kw > 0))
    if m == 0:
        raise InsufficientCenters(f"no bin center carries weight at z={z:g} with b={b:g}")
    if m < q + 1:
        raise InsufficientCenters(
            f"{m} weighted center(s) cannot identify derivative order q={q} at z={z:g}"
        )
    r_eff = min(r, m - 1)
    # The design is centred at the heaviest center, whose row of sqrt(W) C
    # is then (sqrt(w), 0, ...): the QR mixes no rounding error of that
    # row's size into the rows of nearly weightless centers, which would
    # otherwise break the moment conditions. The derivative at z is read
    # off the polynomial fitted in (c - ref) / b.
    ref = centers[np.argmax(kw)]
    d = (centers - ref) / b   # scaled distances keep the design conditioned
    delta = (z - ref) / b
    sqw = np.sqrt(kw)
    while True:
        # weights = a' (C'WC)^{-1} C'W, a_j = d^q/du^q u^j at u = delta,
        # computed through a thin QR of sqrt(W) C so the conditioning is not
        # squared
        powers = d[:, None] ** np.arange(r_eff + 1)[None, :]
        qmat, rmat = np.linalg.qr(sqw[:, None] * powers)
        rhs = np.array([math.perm(j, q) * delta ** (j - q) if j >= q else 0.0
                        for j in range(r_eff + 1)])
        try:
            g = np.linalg.solve(rmat.T, rhs)
        except np.linalg.LinAlgError:
            g = None
        if g is not None and np.all(np.isfinite(g)):
            return (qmat @ g) * sqw / b**q
        if r_eff == q:
            raise InsufficientCenters(
                f"singular local polynomial system at z={z:g} with b={b:g}"
            )
        r_eff -= 1


def local_linear_weights(centers: np.ndarray, z, b: float,
                         kernel: Kernel1D = Kernel1D()) -> np.ndarray:
    """``lp_weights(0, 1, centers, z, b, kernel)`` in closed form, for a
    scalar z (shape (P,)) or an array of z (shape (len(z), P)).

    With K_p the kernel weight of center p and u_p its scaled distance to z,
    w_p = K_p (S2 - u_p S1) / (S0 S2 - S1²), S_j = sum_q K_q u_q^j, evaluated
    as a_p (V - ū (u_p - ū)) / V with a = K / S0, ū = sum a u and
    V = sum a (u - ū)², moments taken about the heaviest center so that tiny
    weights do not cancel. A row where one center carries weight is that
    center's indicator (the local constant fit); a row where none does widens
    its own bandwidth as ``widen_until_fit`` does, raising
    InsufficientCenters when exhausted.

    Cost: O(P) per z, in a handful of array operations over the (len(z), P)
    weights. A scalar z takes ``_weight_row``, the same operations on one
    row without the batch's per-row indexing: 13 us against 22 us for a
    one-row batch at P = 10 (2-core Xeon).
    """
    if not b > 0:
        raise ValueError("bandwidths must be strictly positive")
    centers = np.asarray(centers, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return _weight_row(centers, float(z), float(b), kernel)
    d = centers[None, :] - z[:, None]
    u = d / float(b)
    kw = kernel_eval(kernel, u)
    # kernel weights are nonnegative: a row sum is positive iff some center
    # in that row carries weight
    s0 = kw.sum(axis=1, keepdims=True)
    if not (s0 > 0).all():
        # per-row bandwidths only once some row has no weighted center
        bw = np.full((z.size, 1), float(b))
        for _ in range(_WIDEN_ATTEMPTS):
            bw[~(s0[:, 0] > 0)] *= _WIDEN_FACTOR
            u = d / bw
            kw = kernel_eval(kernel, u)
            s0 = kw.sum(axis=1, keepdims=True)
            if (s0 > 0).all():
                break
        else:
            raise InsufficientCenters(
                f"no bin center carries weight at z={z[np.argmin(s0[:, 0] > 0)]:g} "
                f"with b={b:g}")
    a = kw / s0
    ref = u[np.arange(z.size), kw.argmax(axis=1)][:, None]
    c = u - ref
    m1 = (a * c).sum(axis=1, keepdims=True)
    c -= m1
    var = (a * c * c).sum(axis=1, keepdims=True)
    # V = 0 when all weight sits at one location: a is then the local
    # constant fit, the indicator of a single weighted center
    w = a * (var - (ref + m1) * c)
    if var.all():
        w /= var
    else:
        flat = var[:, 0] == 0.0
        w /= np.where(flat[:, None], 1.0, var)
        w[flat] = a[flat]
    return w


def _weight_row(centers: np.ndarray, z: float, b: float, kernel: Kernel1D) -> np.ndarray:
    """``local_linear_weights`` at one z: the batch code's operations in its
    order on a (P,) row, so the row is the batch row bit for bit, without
    the per-row bookkeeping that costs a single call more than its
    arithmetic."""
    d = centers - z
    u = d / b
    kw = kernel_eval(kernel, u)
    s0 = kw.sum()
    if not s0 > 0:
        bw = b
        for _ in range(_WIDEN_ATTEMPTS):
            bw *= _WIDEN_FACTOR
            u = d / bw
            kw = kernel_eval(kernel, u)
            s0 = kw.sum()
            if s0 > 0:
                break
        else:
            raise InsufficientCenters(f"no bin center carries weight at z={z:g} with b={b:g}")
    a = kw / s0
    ref = u[kw.argmax()]
    c = u - ref
    m1 = (a * c).sum()
    c -= m1
    var = (a * c * c).sum()
    if var == 0.0:
        return a
    w = a * (var - (ref + m1) * c)
    w /= var
    return w


def smoothing_matrix(centers: np.ndarray, b: float,
                     kernel: Kernel1D = Kernel1D()) -> tuple[np.ndarray, float]:
    """P x P refinement smoother matrix (row p: the local linear weights at
    center p) and tr(SᵀS), the bandwidth criterion's effective parameter
    count."""
    s = local_linear_weights(centers, centers, b, kernel)
    return s, float(np.sum(s * s))
