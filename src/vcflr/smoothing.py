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
# Fewest data points per run, on average, for which fpca.covariance_diagonal
# splits its grid into support-sized runs: below it a run's loop overhead
# outweighs what it saves, so small inputs are one run.
_CELL_POINTS = 1000
# Fewest data points per tile, on average, for which local_linear_2d_at
# splits its data into support-sized tiles (at most sqrt(N / 200) per axis).
# Measured on the calls of seed-1000 fits (one BLAS thread, 2-core Xeon),
# summed best-of-5 times at floors 1000 / 400 / 200 / 100 / 50 points:
# study-sparse (87 calls, 900-4,700 points) 0.47 / 0.35 / 0.35 / 0.31 /
# 0.33 s, study-regular (87 calls, 930-960 grouped points) 0.21 / 0.22 /
# 0.15 / 0.14 / 0.22 s, fit-serve (27 calls, 16,600-20,000 points) 0.66 /
# 0.57 / 0.54 / 0.57 / 0.64 s. 200 and 100 are within noise of each other;
# below that, per-tile overhead wins.
_TILE_POINTS_2D = 200


@dataclass(frozen=True)
class LocalFitConfig:
    """Bandwidth(s), kernel and ridge fallback for one local fit.

    ``bandwidth`` is a float for 1D smoothers and a (b1, b2) pair for 2D ones.
    ``ridge`` scales the diagonal loading applied when the local normal
    equations of a 1D or rotated diagonal fit are numerically singular; the
    2D surface smoother rejects such designs as degenerate instead.
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
                    closed: bool, present: np.ndarray | None = None) -> np.ndarray:
    """Number of distinct x values with positive kernel weight per center;
    with a (U, F) mask ``present`` of the values in each of F columns, the
    (n_centers, F) counts of the present ones."""
    side_lo, side_hi = ("left", "right") if closed else ("right", "left")
    lo = np.searchsorted(x_sorted_unique, centers - b, side=side_lo)
    hi = np.searchsorted(x_sorted_unique, centers + b, side=side_hi)
    if present is None:
        return hi - lo
    below = np.zeros((present.shape[0] + 1, present.shape[1]), dtype=int)
    np.cumsum(present, axis=0, out=below[1:])
    return below[hi] - below[lo]


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
    """Local linear intercept at arbitrary evaluation points, for one data
    column or a stack of columns sharing the locations x.

    ``y`` holds the value at each location and ``weights`` its multiplicity,
    each of shape (U,) or (U, F) for F columns; a location of multiplicity
    zero is absent from that column. The result is (n_eval,) when both are
    one-dimensional and (n_eval, F) otherwise. Each column is fitted on its
    own: raises InsufficientLocalData when, in some column, an evaluation
    point has fewer than two distinct present x values inside the kernel
    window, and loads the diagonal of a column's numerically singular local
    system with ``ridge``.

    Cost: per block of evaluation points, the kernel weights K, K dx and
    K dx² against all U locations are formed once and the moments of every
    column come from three matrix products with the (U, F) multiplicities
    and value sums, so F columns cost about what one does. ``max_block``
    bounds evaluation points times locations per block, and so the
    temporaries.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eval_points = np.asarray(eval_points, dtype=float)
    w_mult = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    stacked = y.ndim == 2 or w_mult.ndim == 2
    y_cols, w_cols = np.broadcast_arrays(y.reshape(x.size, -1), w_mult.reshape(x.size, -1))
    n_cols = w_cols.shape[1]
    b = float(bandwidth)

    xs, inv = np.unique(x, return_inverse=True)
    present = np.zeros((xs.size, n_cols), dtype=bool)
    np.logical_or.at(present, inv, w_cols > 0)
    counts = _support_counts(xs, eval_points, b, kernel.closed_support, present)
    if np.any(counts < 2):
        f = int(np.argmax(np.any(counts < 2, axis=0)))
        p = int(np.argmax(counts[:, f] < 2))
        raise InsufficientLocalData(
            f"only {counts[p, f]} distinct point(s) within bandwidth {b:g} "
            f"of evaluation point {eval_points[p]:g}"
            + (f" in column {f}" if stacked else "")
        )

    # [multiplicities | value sums]: K against it gives s0 | t0, K dx s1 | t1
    wy = np.concatenate([w_cols, w_cols * y_cols], axis=1)
    out = np.empty((eval_points.size, n_cols), dtype=float)
    block = max(1, max_block // max(x.size, 1))
    for start in range(0, eval_points.size, block):
        s = eval_points[start:start + block, None]
        dx = x[None, :] - s
        k = kernel_eval(kernel, dx / b)
        s0, t0 = np.split(k @ wy, 2, axis=1)
        k *= dx
        s1, t1 = np.split(k @ wy, 2, axis=1)
        k *= dx
        s2 = k @ w_cols
        det = s0 * s2 - s1 * s1
        bad = det <= _SINGULAR_RTOL * s0 * s2
        if np.any(bad):
            lam = ridge * (s0[bad] + s2[bad]) / 2.0
            s0[bad] += lam
            s2[bad] += lam
            det = s0 * s2 - s1 * s1
        out[start:start + block] = (s2 * t0 - s1 * t1) / det
    return out if stacked else out[:, 0]


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
    weights: np.ndarray | None = None,
    chunk: int = 40_000,
) -> np.ndarray:
    """Local linear intercept surface on eval1 x eval2.

    The product-kernel structure makes every entry of the local normal
    equations a sum of separable terms: with a_j = K1(d1/b1) w d1^j and
    b_j = K2(d2/b2) d2^j, the moment S_jk is a_j b_k^T and T_jk is
    (y a_j) b_k^T. The nine moment surfaces therefore come from three
    stacked matrix products over chunks of data points: [a0, a1, y a0, a2,
    y a1] against b0, [a0, a1, y a0] against b1 and a0 against b2.

    The intercept is solved in closed form: with weighted means μ = (s10,
    s01) / s00 and ȳ = t00 / s00, the slopes β solve the centred 2x2 system
    [v11 v12; v12 v22] β = c, and the intercept is ȳ - β·μ. A point whose
    centred determinant cdet = v11 v22 - v12² is at most 1e-13 b1² b2² is
    a degenerate design (all weight at one location, or on one line) and
    raises InsufficientLocalData. No ridge is needed past that check: the
    3x3 determinant is det M = s00³ cdet, and on the kernel's support
    s20 <= b1² s00 and s02 <= b2² s00, so a near-singular system with
    det M <= 1e-14 s00 s20 s02 has cdet <= 1e-14 b1² b2² and has already
    been rejected as degenerate.

    Cost: the data points are bucketed into tiles about one bandwidth wide
    per axis, at most sqrt(N / 200) per axis for N points, and each tile
    only touches the evaluation rows and columns within one bandwidth of its
    points, where its kernel weights can be nonzero. The work is then
    proportional to the kernel support rather than to the whole grid. An
    input under 800 points is one tile covering the whole grid. ``chunk``
    bounds the data points per matrix product, and so the temporaries.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y = np.asarray(y, dtype=float)
    w_mult = np.ones_like(x1) if weights is None else np.asarray(weights, dtype=float)
    b1, b2 = float(bandwidths[0]), float(bandwidths[1])
    # sorted evaluation points make the rows and columns a tile reaches contiguous
    eval1 = np.asarray(eval1, dtype=float)
    eval2 = np.asarray(eval2, dtype=float)
    order1, order2 = np.argsort(eval1, kind="stable"), np.argsort(eval2, kind="stable")
    eval1, eval2 = eval1[order1], eval2[order2]

    n1, n2 = eval1.size, eval2.size
    cap = math.isqrt(x1.size // _TILE_POINTS_2D)
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

    # s00, s10, t00, s20, t10 | s01, s11, t01 | s02
    moments = np.zeros((9, n1, n2))
    count = np.zeros((n1, n2))
    for lo, hi, rows, cols in tiles:
        m1, m2 = rows.stop - rows.start, cols.stop - cols.start
        if m1 == 0 or m2 == 0:
            continue
        e1, e2 = eval1[rows], eval2[cols]
        tile_moments = moments[:, rows, cols]
        for start in range(lo, hi, chunk):
            sl = slice(start, min(start + chunk, hi))
            d1 = x1[None, sl] - e1[:, None]   # d1[p, i] = x1_i - eval1_p
            d2 = x2[None, sl] - e2[:, None]
            a = np.empty((5, m1, d1.shape[1]))
            bk = np.empty((3, m2, d2.shape[1]))
            np.multiply(kernel_eval(kernel.kx, d1 / b1), w_mult[None, sl], out=a[0])
            np.multiply(a[0], d1, out=a[1])
            np.multiply(a[0], y[None, sl], out=a[2])
            np.multiply(a[1], d1, out=a[3])
            np.multiply(a[1], y[None, sl], out=a[4])
            bk[0] = kernel_eval(kernel.ky, d2 / b2)
            np.multiply(bk[0], d2, out=bk[1])
            np.multiply(bk[1], d2, out=bk[2])
            tile_moments[:5] += (a.reshape(5 * m1, -1) @ bk[0].T).reshape(5, m1, m2)
            tile_moments[5:8] += (a[:3].reshape(3 * m1, -1) @ bk[1].T).reshape(3, m1, m2)
            tile_moments[8] += a[0] @ bk[2].T
            count[rows, cols] += (a[0] > 0).astype(float) @ (bk[0] > 0).astype(float).T

    s00, s10, t00, s20, t10, s01, s11, t01, s02 = moments
    if np.any(count < 3):
        p1, p2 = np.unravel_index(int(np.argmax(count < 3)), count.shape)
        raise InsufficientLocalData(
            f"only {int(count[p1, p2])} point(s) within bandwidths ({b1:g}, {b2:g}) "
            f"of evaluation point ({eval1[p1]:g}, {eval2[p2]:g})"
        )

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
        p1, p2 = np.unravel_index(int(np.argmax(degenerate)), degenerate.shape)
        raise InsufficientLocalData(
            f"degenerate local design (no affinely independent points) at "
            f"evaluation point ({eval1[p1]:g}, {eval2[p2]:g})"
        )

    c1 = t10 / s00 - ybar * mu1
    c2 = t01 / s00 - ybar * mu2
    beta1 = (v22 * c1 - v12 * c2) / centered_det
    beta2 = (v11 * c2 - v12 * c1) / centered_det
    sol = ybar - beta1 * mu1 - beta2 * mu2
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
