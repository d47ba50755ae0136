"""Weighted local linear smoothers and local polynomial refinement weights.

The one- and two-dimensional smoothers return the local intercept of a
kernel-weighted least-squares fit at each evaluation point; both reproduce
affine data exactly for any bandwidth. ``local_linear_weights`` builds the
linear weights that combine per-bin raw estimates across the covariate axis;
``lp_weights`` is the general local polynomial reference they agree with.

Points may carry multiplicity weights: a weighted point (x, y, w) enters the
normal equations exactly like w copies of (x, y), which lets callers collapse
duplicate design locations (regular designs produce huge numbers of them)
without changing any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientCenters, InsufficientLocalData
from .kernels import Kernel1D, Kernel2D, kernel_eval

# Relative determinant below which a local system counts as near-singular.
_SINGULAR_RTOL = 1e-14
# Relative centered-moment determinant below which a 2D design is degenerate.
_DEGENERATE_RTOL = 1e-13
# Bandwidth growth per retry, and retries, when a local fit lacks data.
_WIDEN_FACTOR = 1.5
_WIDEN_ATTEMPTS = 5
# Fewest data points per tile, on average, for which local_linear_2d_at and
# fpca.covariance_diagonal split their work into support-sized tiles: below
# it a tile's loop overhead outweighs what it saves, so small inputs are one
# tile.
_CELL_POINTS = 1000


@dataclass(frozen=True)
class LocalFitConfig:
    """Bandwidth(s), kernel and ridge fallback for one local fit.

    ``bandwidth`` is a float for 1D smoothers and a (b1, b2) pair for 2D ones.
    ``ridge`` scales the diagonal loading applied when the local normal
    equations are numerically singular.
    """

    bandwidth: float | tuple[float, float]
    kernel: Kernel1D | Kernel2D = Kernel1D()
    ridge: float = 1e-10

    def __post_init__(self):
        bw = np.atleast_1d(np.asarray(self.bandwidth, dtype=float))
        if np.any(bw <= 0):
            raise ValueError("bandwidths must be strictly positive")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")

    def widened(self, factor: float) -> "LocalFitConfig":
        if isinstance(self.bandwidth, tuple):
            bw = (self.bandwidth[0] * factor, self.bandwidth[1] * factor)
        else:
            bw = self.bandwidth * factor
        return LocalFitConfig(bw, self.kernel, self.ridge)


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


def _support_counts(x_sorted_unique: np.ndarray, centers: np.ndarray, b: float,
                    closed: bool) -> np.ndarray:
    """Number of distinct x values with positive kernel weight per center."""
    side_lo, side_hi = ("left", "right") if closed else ("right", "left")
    lo = np.searchsorted(x_sorted_unique, centers - b, side=side_lo)
    hi = np.searchsorted(x_sorted_unique, centers + b, side=side_hi)
    return hi - lo


def local_linear_1d_at(
    x: np.ndarray,
    y: np.ndarray,
    eval_points: np.ndarray,
    bandwidth: float,
    kernel: Kernel1D = Kernel1D(),
    ridge: float = 1e-10,
    weights: np.ndarray | None = None,
    max_block: int = 2_000_000,
) -> np.ndarray:
    """Local linear intercept at arbitrary evaluation points.

    Raises InsufficientLocalData when some evaluation point has fewer than two
    distinct x values inside the kernel window.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eval_points = np.asarray(eval_points, dtype=float)
    w_mult = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    b = float(bandwidth)

    counts = _support_counts(np.unique(x), eval_points, b, kernel.closed_support)
    if np.any(counts < 2):
        p = int(np.argmax(counts < 2))
        raise InsufficientLocalData(
            f"only {counts[p]} distinct point(s) within bandwidth {b:g} "
            f"of evaluation point {eval_points[p]:g}"
        )

    out = np.empty(eval_points.size, dtype=float)
    block = max(1, max_block // max(x.size, 1))
    for start in range(0, eval_points.size, block):
        s = eval_points[start:start + block, None]
        dx = x[None, :] - s
        w = kernel_eval(kernel, dx / b) * w_mult[None, :]
        s0 = w.sum(axis=1)
        s1 = (w * dx).sum(axis=1)
        s2 = (w * dx * dx).sum(axis=1)
        t0 = w @ y
        t1 = (w * dx) @ y
        det = s0 * s2 - s1 * s1
        bad = det <= _SINGULAR_RTOL * s0 * s2
        if np.any(bad):
            lam = ridge * (s0[bad] + s2[bad]) / 2.0
            s0 = s0.copy()
            s2 = s2.copy()
            s0[bad] += lam
            s2[bad] += lam
            det = s0 * s2 - s1 * s1
        out[start:start + block] = (s2 * t0 - s1 * t1) / det
    return out


def _window(points: np.ndarray, lo: float, hi: float, b: float) -> slice:
    """The run of sorted ``points`` within one bandwidth of [lo, hi].

    Distances are tested as the kernels see them (|x - s| / b <= 1), so every
    point that has a nonzero kernel weight against some location in [lo, hi]
    is inside the run.
    """
    near = np.flatnonzero(((lo - points) / b <= 1.0) & ((points - hi) / b <= 1.0))
    return slice(near[0], near[-1] + 1) if near.size else slice(0, 0)


def _cells(x: np.ndarray, b: float, cap: int) -> tuple[np.ndarray, int]:
    """Cell of each x among k equal cells over its range: k cells about one
    bandwidth wide, at most ``cap`` and at least one."""
    lo, span = (float(x.min()), float(x.max() - x.min())) if cap > 1 else (0.0, 0.0)
    k = min(cap, int(span / b))
    if k < 2:
        return np.zeros(x.size, dtype=int), 1
    return np.minimum(((x - lo) * (k / span)).astype(int), k - 1), k


def local_linear_2d_at(
    x1: np.ndarray,
    x2: np.ndarray,
    y: np.ndarray,
    eval1: np.ndarray,
    eval2: np.ndarray,
    bandwidths: tuple[float, float],
    kernel: Kernel2D = Kernel2D(),
    ridge: float = 1e-10,
    weights: np.ndarray | None = None,
    chunk: int = 40_000,
) -> np.ndarray:
    """Local linear intercept surface on eval1 x eval2.

    The product-kernel structure makes every entry of the local normal
    equations a sum of separable terms, so the nine moment surfaces are
    accumulated with matrix products over chunks of data points.

    Cost: the data points are bucketed into cells about one bandwidth wide
    per axis, at most sqrt(N / 1000) per axis for N points, and each cell
    only touches the evaluation rows and columns within one bandwidth of its
    points, where its kernel weights can be nonzero. The work is then
    proportional to the kernel support rather than to the whole grid. An
    input under 4000 points is one cell covering the whole grid. ``chunk``
    bounds the data points per matrix product, and so the temporaries.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y = np.asarray(y, dtype=float)
    w_mult = np.ones_like(x1) if weights is None else np.asarray(weights, dtype=float)
    b1, b2 = float(bandwidths[0]), float(bandwidths[1])
    # sorted evaluation points make the rows and columns a cell reaches contiguous
    eval1 = np.asarray(eval1, dtype=float)
    eval2 = np.asarray(eval2, dtype=float)
    order1, order2 = np.argsort(eval1, kind="stable"), np.argsort(eval2, kind="stable")
    eval1, eval2 = eval1[order1], eval2[order2]

    n1, n2 = eval1.size, eval2.size
    cap = math.isqrt(x1.size // _CELL_POINTS)
    c1, k1 = _cells(x1, b1, cap)
    c2, k2 = _cells(x2, b2, cap)
    if k1 * k2 == 1:
        tiles = [(0, x1.size, slice(0, n1), slice(0, n2))]
    else:
        key = c1 * k2 + c2
        order = np.argsort(key, kind="stable")
        x1, x2, y, w_mult = x1[order], x2[order], y[order], w_mult[order]
        bounds = np.searchsorted(key[order], np.arange(k1 * k2 + 1))
        tiles = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo < hi:
                tiles.append((lo, hi,
                              _window(eval1, x1[lo:hi].min(), x1[lo:hi].max(), b1),
                              _window(eval2, x2[lo:hi].min(), x2[lo:hi].max(), b2)))

    moments = np.zeros((9, n1, n2))
    count = np.zeros((n1, n2))
    for lo, hi, rows, cols in tiles:
        if rows.start == rows.stop or cols.start == cols.stop:
            continue
        e1, e2 = eval1[rows], eval2[cols]
        tile_moments = moments[:, rows, cols]
        for start in range(lo, hi, chunk):
            sl = slice(start, min(start + chunk, hi))
            d1 = x1[None, sl] - e1[:, None]   # d1[p, i] = x1_i - eval1_p
            d2 = x2[None, sl] - e2[:, None]
            a0 = kernel_eval(kernel.kx, d1 / b1) * w_mult[None, sl]
            b0 = kernel_eval(kernel.ky, d2 / b2)
            a1 = a0 * d1
            a2 = a1 * d1
            bb1 = b0 * d2
            bb2 = bb1 * d2
            ya0 = a0 * y[None, sl]
            ya1 = a1 * y[None, sl]
            tile_moments[0] += a0 @ b0.T    # S00
            tile_moments[1] += a1 @ b0.T    # S10
            tile_moments[2] += a0 @ bb1.T   # S01
            tile_moments[3] += a2 @ b0.T    # S20
            tile_moments[4] += a1 @ bb1.T   # S11
            tile_moments[5] += a0 @ bb2.T   # S02
            tile_moments[6] += ya0 @ b0.T   # T00
            tile_moments[7] += ya1 @ b0.T   # T10
            tile_moments[8] += ya0 @ bb1.T  # T01
            count[rows, cols] += (a0 > 0).astype(float) @ (b0 > 0).astype(float).T

    s00, s10, s01, s20, s11, s02, t00, t10, t01 = moments
    if np.any(count < 3):
        p1, p2 = np.unravel_index(int(np.argmax(count < 3)), count.shape)
        raise InsufficientLocalData(
            f"only {int(count[p1, p2])} point(s) within bandwidths ({b1:g}, {b2:g}) "
            f"of evaluation point ({eval1[p1]:g}, {eval2[p2]:g})"
        )

    # Degenerate designs (all weighted points at one location or collinear)
    # have a vanishing centered second-moment determinant.
    with np.errstate(invalid="ignore", divide="ignore"):
        v11 = s20 / s00 - (s10 / s00) ** 2
        v22 = s02 / s00 - (s01 / s00) ** 2
        v12 = s11 / s00 - (s10 / s00) * (s01 / s00)
    centered_det = v11 * v22 - v12 * v12
    degenerate = centered_det <= _DEGENERATE_RTOL * (b1 * b1) * (b2 * b2)
    if np.any(degenerate):
        p1, p2 = np.unravel_index(int(np.argmax(degenerate)), degenerate.shape)
        raise InsufficientLocalData(
            f"degenerate local design (no affinely independent points) at "
            f"evaluation point ({eval1[p1]:g}, {eval2[p2]:g})"
        )

    m = np.empty((n1, n2, 3, 3))
    m[..., 0, 0] = s00
    m[..., 0, 1] = m[..., 1, 0] = s10
    m[..., 0, 2] = m[..., 2, 0] = s01
    m[..., 1, 1] = s20
    m[..., 1, 2] = m[..., 2, 1] = s11
    m[..., 2, 2] = s02
    rhs = np.stack([t00, t10, t01], axis=-1)

    det = np.linalg.det(m)
    bad = det <= _SINGULAR_RTOL * s00 * s20 * s02
    if np.any(bad):
        lam = ridge * (s00 + s20 + s02) / 3.0
        idx = np.where(bad)
        for d in range(3):
            m[idx[0], idx[1], d, d] += lam[idx]
    sol = np.linalg.solve(m, rhs[..., None])[..., 0, 0]
    out = np.empty_like(sol)
    out[np.ix_(order1, order2)] = sol
    return out


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
    """
    if not b > 0:
        raise ValueError("bandwidths must be strictly positive")
    centers = np.asarray(centers, dtype=float)
    z = np.asarray(z, dtype=float)
    zz = np.atleast_1d(z)
    d = centers[None, :] - zz[:, None]
    bw = np.full((zz.size, 1), float(b))
    for _ in range(_WIDEN_ATTEMPTS + 1):
        kw = kernel_eval(kernel, d / bw)
        empty = ~np.any(kw > 0, axis=1)
        if not empty.any():
            break
        bw[empty] *= _WIDEN_FACTOR
    else:
        raise InsufficientCenters(
            f"no bin center carries weight at z={zz[np.argmax(empty)]:g} with b={b:g}")
    u = d / bw
    a = kw / kw.sum(axis=1, keepdims=True)
    ref = np.take_along_axis(u, np.argmax(kw, axis=1)[:, None], axis=1)
    m1 = (a * (u - ref)).sum(axis=1, keepdims=True)
    c = (u - ref) - m1
    var = (a * c * c).sum(axis=1, keepdims=True)
    # V = 0 when all weight sits at one location: a is then the local
    # constant fit, the indicator of a single weighted center
    flat = var[:, 0] == 0.0
    w = a * (var - (ref + m1) * c) / np.where(flat[:, None], 1.0, var)
    w[flat] = a[flat]
    return w[0] if z.ndim == 0 else w


def smoothing_matrix(centers: np.ndarray, b: float,
                     kernel: Kernel1D = Kernel1D()) -> tuple[np.ndarray, float]:
    """P x P refinement smoother matrix (row p: the local linear weights at
    center p) and tr(SᵀS), the bandwidth criterion's effective parameter
    count."""
    s = local_linear_weights(centers, centers, b, kernel)
    return s, float(np.sum(s * s))
