"""Per-bin raw estimation.

Everything a single covariate bin contributes to the model is computed here:
conditional mean curves, covariance and cross-covariance surfaces (with the
measurement-error-biased diagonal excluded), error variances recovered from
the smoothed diagonal, eigenpairs of the discretized covariance operators,
the mixed-moment matrix linking predictor and response scores, and BLUP
score estimates for individual subjects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Subject
from .errors import (
    InsufficientLocalData,
    NotSymmetric,
    SingularCovariance,
    TruncationTooLarge,
)
from .grids import Grid, GridFunction, GridSurface, make_grid
from .kernels import Kernel1D, kernel_eval
from .smoothing import (
    _RIDGE,
    _SINGULAR_RTOL,
    _support_counts,
    LocalFitConfig,
    local_linear_1d_at,
    local_linear_2d_at,
    local_moments_1d,
    widen_until_fit,
)

# Lower bound on estimated error variances wherever they enter a logarithm
# or a covariance diagonal, relative to the leading eigenvalue of the same
# stream's covariance (``floored_variance``); the clamp-at-zero rule can
# otherwise produce exact zeros. Relative, so that a fit does not depend on
# the units of the data.
VARIANCE_FLOOR = 1e-8


@dataclass
class EigenSystem:
    """Positive eigenvalues (descending) and orthonormal eigenfunctions."""

    grid: Grid
    values: np.ndarray              # shape (n_comp,)
    functions: np.ndarray = field(repr=False)   # shape (grid.n, n_comp)

    @property
    def n_components(self) -> int:
        return self.values.size

    def at(self, times) -> np.ndarray:
        """Every eigenfunction interpolated at times: shape
        times.shape + (n_components,)."""
        times = np.asarray(times, dtype=float)
        out = np.empty(times.shape + (self.n_components,))
        for k in range(self.n_components):
            out[..., k] = np.interp(times, self.grid.points, self.functions[:, k])
        return out


def floored_variance(sigma2: float, eig: EigenSystem) -> float:
    """``sigma2``, at least ``VARIANCE_FLOOR`` times the leading eigenvalue
    of ``eig``, the stream's covariance that it is the noise of."""
    return max(sigma2, VARIANCE_FLOOR * float(eig.values[0]))


@dataclass
class BinEstimate:
    """Raw estimates attached to one covariate bin.

    ``mean_y`` is a float and ``cross``/``raw_beta`` are curves in
    scalar-response mode; ``eig_y``, ``cov_y`` and ``sigma2_y`` are then None.
    ``sigma_mk`` holds mixed moments up to the largest truncation requested at
    fit time; the final model slices it down to the selected (M, K).
    """

    center: float
    n_subjects: int
    mean_x: GridFunction
    mean_y: GridFunction | float
    cov_x: GridSurface
    cov_y: GridSurface | None
    cross: GridSurface | GridFunction
    eig_x: EigenSystem
    eig_y: EigenSystem | None
    sigma_mk: np.ndarray
    sigma2_x: float
    sigma2_y: float | None
    bandwidths: dict = field(default_factory=dict)
    raw_beta: GridSurface | GridFunction | None = None


def aggregate_1d(x, y):
    """Collapse duplicate x locations to (unique x, mean y, multiplicity).

    The weighted points produce exactly the same local least-squares normal
    equations as the raw ones, which makes regular designs cheap to smooth.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xu, inv, w = np.unique(x, return_inverse=True, return_counts=True)
    ybar = np.bincount(inv, weights=y) / w
    return xu, ybar, w.astype(float)


def pair_locations(times_a, times_b, ia, ib):
    """The distinct locations (x1, x2) of pairs (times_a[ia], times_b[ib]),
    sorted, with ``order``, the stable permutation that sorts the pairs by
    location, and ``group``, the location index of each pair in that order.

    Each stream's observation times are coded once with ``np.unique``, and a
    pair's key is its two codes as one integer, so the float sorting is done
    on the observations, which are far fewer than the pairs (30x on a
    regular design), and the pairs get one stable integer sort. Pairs built
    subject by subject from sorted times come in one sorted run per subject,
    which that sort merges. ``times_b`` may be ``times_a`` itself (a stream
    paired with itself), which is coded once.
    """
    ua, ca = np.unique(times_a, return_inverse=True)
    ub, cb = (ua, ca) if times_b is times_a else np.unique(times_b, return_inverse=True)
    nb = max(ub.size, 1)
    key = ca[ia] * nb + cb[ib]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    return ua[key // nb], ub[key % nb], order, np.cumsum(first) - 1


def group_pairs(times_a, times_b, ia, ib, values):
    """Group pairs (times_a[ia], times_b[ib], values) by location: rows
    (x1, x2, mean value, multiplicity), sorted by (x1, x2), at the
    ``pair_locations``. Every group sums its values in input order, so the
    rows equal those of sorting the pair coordinates themselves.

    Cost: one stable integer sort of the pairs, which ``pair_rows`` skips
    for a bin whose subjects all share one time vector.
    """
    x1, x2, order, group = pair_locations(times_a, times_b, ia, ib)
    w = np.bincount(group).astype(float)
    return x1, x2, np.bincount(group, weights=values[order]) / w, w


def estimate_mean(times, values, cfg: LocalFitConfig, grid: Grid) -> GridFunction:
    """Local linear mean curve from pooled bin observations.

    Widens the bandwidth (x1.5, up to 5 attempts) when some grid point lacks
    two distinct observation times in its kernel window.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise InsufficientLocalData("mean estimation needs at least two observations")
    xu, ybar, w = aggregate_1d(times, values)

    def attempt(c: LocalFitConfig) -> GridFunction:
        return GridFunction(grid, local_linear_1d_at(xu, ybar, grid.points, c.bandwidth,
                                                     kernel=c.kernel, weights=w))

    return widen_until_fit(attempt, cfg)


def _stacked(arrays) -> np.ndarray:
    """Concatenation of per-subject arrays; empty for no subjects."""
    return np.concatenate(arrays) if arrays else np.empty(0)


def _subject_pairs(n_a, n_b, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """Every within-subject pair (j, l) of a subject's j-th observation in
    one stream and l-th in another, subject by subject and row-major: the
    positions of both in the concatenations of all subjects' observations
    (``n_a``/``n_b`` the per-subject counts, in order). With ``half`` (a
    stream paired with itself, ``n_b`` equal to ``n_a``) only the pairs
    j < l: each stands for itself and its mirror (l, j)."""
    n_a = np.asarray(n_a, dtype=int)
    n_b = np.asarray(n_b, dtype=int)
    positions = np.arange(n_a.sum())
    if half:   # observation j of n pairs with its n - 1 - j successors
        reps = np.repeat(n_a - 1, n_a) - (positions - np.repeat(np.cumsum(n_a) - n_a, n_a))
        first = positions + 1
    else:      # and otherwise with all its subject's b-observations
        reps = np.repeat(n_b, n_a)
        first = np.repeat(np.cumsum(n_b) - n_b, n_a)
    ia = np.repeat(positions, reps)
    ib = np.arange(reps.sum()) + np.repeat(first - (np.cumsum(reps) - reps), reps)
    return ia, ib


def _observations(subjects: list[Subject], stream: str, timed: bool = True):
    """One stream of a bin, the layout every per-bin step reads: the
    observation times (None unless ``timed``; a scalar response has none)
    and values, all subjects concatenated in order, and the per-subject
    counts. ``regression.fit`` gathers each bin's two streams once."""
    values = _stacked([s.x_values if stream == "x" else s.y_values for s in subjects])
    sizes = np.array([s.n_x if stream == "x" else s.n_y for s in subjects], dtype=int)
    if not timed:
        return None, values, sizes
    return _stacked([s.x_times if stream == "x" else s.y_times for s in subjects]), values, sizes


def _minus(observations, mean: GridFunction | float):
    """An ``_observations`` stream centered by a mean curve at its times, or
    by a scalar mean: what the bin's smoothers, surface CV and truncation
    criterion read."""
    times, values, sizes = observations
    return times, values - (mean.at(times) if isinstance(mean, GridFunction) else mean), sizes


def _diagonal(stream_) -> np.ndarray:
    """The (s, squared centered value) rows of a ``_minus`` stream."""
    times, resid, _ = stream_
    return np.column_stack([times, resid * resid])


def _stream_pairs(a, b, half: bool):
    """Every within-subject pair of ``_minus`` streams ``a`` and ``b``
    (``b`` is ``a`` for a covariance, whose j < l pairs alone ``half``
    keeps), subject by subject and row-major, as ``group_pairs`` takes
    them: ``(times_a, times_b, ia, ib, products)``."""
    (times_a, ra, n_a), (times_b, rb, n_b) = a, b
    ia, ib = _subject_pairs(n_a, n_b, half)
    return times_a, times_b, ia, ib, ra[ia] * rb[ib]


def _shared_vector(times, sizes):
    """The time vector at which every subject of a stream is observed, when
    there are at least two subjects and its times strictly increase; None
    otherwise. Unequal counts, as on a sparse design, settle it at once."""
    c = sizes.size
    if c < 2 or np.any(sizes != sizes[0]):
        return None
    vector = times[:sizes[0]]
    if np.all(vector[1:] > vector[:-1]) and np.all(times.reshape(c, vector.size) == vector):
        return vector
    return None


def pair_rows(a, b, half: bool):
    """Grouped (x1, x2, ybar, w) rows of the pairs of ``_stream_pairs``:
    ``group_pairs`` of those pairs, unless all c subjects share one time
    vector per stream and it has at least two pairs. Then each location is
    one (j, l) of every subject, the rows are the vector's (j, l) in
    row-major order (strictly increasing times make that the sorted order),
    and each row's value is the members' products summed row by row in
    subject order, divided by c: the order and arithmetic in which
    ``group_pairs`` adds them, so the rows are the same bits. numpy sums a
    C-ordered (c, n_a, n_b) stack row by row only when a row holds two or
    more products (it sums a single column pairwise), so a vector of one
    pair is left to ``group_pairs``. With ``half`` (a covariance), the rows
    are the j < l entries of that sum, and each stands for itself and its
    mirror, which a smoother adds.

    Cost: a regular bin of 100 subjects sums 100 rows of 961 products per
    stream, keeps 465 covariance rows and sorts nothing; ``group_pairs``
    would sort 46,500 pairs.
    """
    (times_a, ra, n_a), (times_b, rb, n_b) = a, b
    va = _shared_vector(times_a, n_a)
    vb = va if b is a or va is None else _shared_vector(times_b, n_b)
    if vb is not None:
        ja, jb = _subject_pairs(n_a[:1], n_b[:1], half)
        if ja.size > 1:
            c = n_a.size
            products = ra.reshape(c, -1, 1) * rb.reshape(c, 1, -1)
            w = np.full(ja.size, float(c))
            return va[ja], vb[jb], products.sum(axis=0)[ja, jb] / w, w
    return group_pairs(*_stream_pairs(a, b, half))


def _smooth_2d(rows, cfg: LocalFitConfig, grid1: Grid, grid2: Grid,
               mirror: bool = False) -> np.ndarray:
    """Local linear surface of grouped (x1, x2, ybar, w) rows on grid1 x grid2,
    at ``cfg``'s (b1, b2) pair, widened until every grid point has enough
    local data; with ``mirror``, each row also stands for its mirror."""
    x1, x2, ybar, w = rows

    def attempt(c: LocalFitConfig) -> np.ndarray:
        return local_linear_2d_at(x1, x2, ybar, grid1.points, grid2.points, c.bandwidth,
                                  kernel=c.kernel, weights=w, mirror=mirror)

    return widen_until_fit(attempt, cfg)


def smooth_covariance(rows, cfg: LocalFitConfig, grid: Grid) -> GridSurface:
    """Smooth off-diagonal raw covariances onto grid x grid and symmetrize.

    ``rows`` are the grouped (x1, x2, ybar, w) rows of ``pair_rows`` of the
    j < l pairs, x1 <= x2: each row stands for itself and its mirror
    (x2, x1), which the smoother adds.
    Cost: the smoother sees one weighted row per distinct location of the
    half, grouped once, before any widening retry.
    """
    values = _smooth_2d(rows, cfg, grid, grid, mirror=True)
    return GridSurface(grid, grid, (values + values.T) / 2.0)


def smooth_cross_covariance(centered, cfg: LocalFitConfig,
                            grids: tuple[Grid, Grid | None]):
    """Smooth raw cross-covariances of the ``_minus`` predictor and
    response streams ``centered`` onto ``grids`` = (s_grid, t_grid).

    Functional responses use every (l, j) observation pair (measurement
    errors are independent across streams, so no diagonal is removed),
    grouped once by location (``pair_rows``), and a 2D smoother at
    ``cfg``'s (b1, b2) pair; a scalar response (t_grid None) reduces to a
    curve in s, smoothed like a mean curve at ``cfg``'s bandwidth b.
    """
    x, y = centered
    grid_s, grid_t = grids
    if grid_t is not None:
        rows = pair_rows(x, y, False)
        return GridSurface(grid_s, grid_t, _smooth_2d(rows, cfg, grid_s, grid_t))
    x_times, _, ia, _, products = _stream_pairs(x, y, False)
    return estimate_mean(x_times[ia], products, cfg, grid_s)


def covariance_diagonal(rows, bandwidth: float, grid: Grid,
                        kernel: Kernel1D = Kernel1D()) -> np.ndarray:
    """Estimate G(s, s) from off-diagonal raw covariances.

    A plain local linear surface flattens the covariance ridge at the
    diagonal, which biases the error-variance difference. Here each diagonal
    point gets a rotated fit: linear along the diagonal, quadratic across it,
    so the across-diagonal curvature is absorbed by its own regressor and the
    along-diagonal bias matches the 1D smoother applied to the diagonal raw
    values (and cancels in their difference). A numerically singular local
    system gets its diagonal loaded with ``_RIDGE``.

    ``rows`` are grouped (x1, x2, ybar, w) rows of the j < l pairs, as
    ``smooth_covariance`` takes them, so the raw pairs are grouped once per
    stream and not once per widening retry. Each row stands for itself and
    its mirror, which has the same v = (x1 + x2) / 2 and u², so the sums of
    all the pairs are the half's at weight 2w; a weight common to every row
    leaves the fit as it is, so the half is fitted at weight w.

    Cost: points with zero across-diagonal weight are dropped. The rest
    enter ``smoothing.local_moments_1d`` along the diagonal, so every grid
    point's 3x3 system comes from the support tiles and matrix products of a
    1D smoother, and the systems are solved once.
    """
    x1, x2, ybar, w_mult = rows
    v = (x1 + x2) / 2.0
    u = (x1 - x2) / np.sqrt(2.0)
    b = float(bandwidth)

    counts = _support_counts(np.unique(v), grid.points, b, kernel.closed_support)
    if np.any(counts < 3):
        p = int(np.argmax(counts < 3))
        raise InsufficientLocalData(
            f"only {counts[p]} off-diagonal location(s) within bandwidth {b:g} "
            f"of diagonal point {grid.points[p]:g}")

    ku = kernel_eval(kernel, u / b)
    keep = ku > 0
    kw, q, yw = (ku * w_mult)[keep], (u * u)[keep], ybar[keep]
    # powers of dv 0, 1, 2 against [kw, kw q, kw q², kw y, kw q y],
    # [kw, kw q, kw y] and [kw]: the sums s00 s02 s22 r0 r2 | s01 s12 r1 | s11
    sums = np.concatenate(local_moments_1d(
        v[keep], grid.points, b, kernel,
        [np.column_stack([kw, kw * q, kw * q * q, kw * yw, kw * q * yw]),
         np.column_stack([kw, kw * q, kw * yw]), kw[:, None]]), axis=1)
    m = sums[:, [[0, 5, 1], [5, 8, 6], [1, 6, 2]]]
    rhs = sums[:, [3, 7, 4], None]
    det = np.linalg.det(m)
    bad = det <= _SINGULAR_RTOL * (m[:, 0, 0] * m[:, 1, 1] * m[:, 2, 2])
    if np.any(bad):
        lam = _RIDGE * (m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]) / 3.0
        for d in range(3):
            m[bad, d, d] += lam[bad]
    return np.linalg.solve(m, rhs)[:, 0, 0]


def estimate_sigma2(diag_points: np.ndarray, off_rows, cfg: LocalFitConfig,
                    grid: Grid) -> float:
    """Measurement-error variance from diagonal versus off-diagonal smoothing.

    The diagonal raw covariances estimate G(s, s) + sigma^2 and the
    off-diagonal ones G(s, s) alone (via covariance_diagonal); the difference
    of the two smoothed curves, integrated over the middle half of the domain
    (the ends are dropped for stability) and scaled by 2 / |domain|, recovers
    sigma^2, clamped at zero. Both curves use the same bandwidth so their
    smoothing biases cancel. ``diag_points`` are raw (s, value) rows;
    ``off_rows`` the grouped off-diagonal rows of ``smooth_covariance``,
    each standing for itself and its mirror. Both are aggregated once,
    outside the widening retries.
    """
    diag_points = np.asarray(diag_points, dtype=float).reshape(-1, 2)
    xu, ybar, w = aggregate_1d(diag_points[:, 0], diag_points[:, 1])

    def attempt(c: LocalFitConfig) -> tuple[np.ndarray, np.ndarray]:
        v_curve = local_linear_1d_at(xu, ybar, grid.points, c.bandwidth,
                                     kernel=c.kernel, weights=w)
        return v_curve, covariance_diagonal(off_rows, c.bandwidth, grid, kernel=c.kernel)

    v_curve, g_diag = widen_until_fit(attempt, cfg)
    diff = v_curve - g_diag
    length = grid.length
    inner = make_grid(grid.lower + length / 4.0, grid.upper - length / 4.0,
                      max(2, grid.n // 2 + 1))
    diff_inner = np.interp(inner.points, grid.points, diff)
    sigma2 = (2.0 / length) * float(inner.weights @ diff_inner)
    return max(0.0, sigma2)


def eigendecompose(surface: GridSurface, grid: Grid, max_components: int,
                   rel_tol: float = 1e-10) -> EigenSystem:
    """Eigenpairs of the covariance operator discretized with quadrature.

    The integral operator with kernel G becomes the symmetric matrix
    W^(1/2) G W^(1/2) (W the diagonal of trapezoid weights); eigenvectors map
    back to functions via W^(-1/2) and are normalized to unit trapezoid norm.
    Eigenvalues that are nonpositive or below rel_tol times the largest are
    dropped. Each retained eigenfunction is oriented so its integral over the
    domain is nonnegative (first nonzero value positive on ties).
    """
    g = surface.values
    asym = np.max(np.abs(g - g.T)) if g.size else 0.0
    scale = np.max(np.abs(g)) if g.size else 0.0
    if asym > 1e-8 * max(scale, 1e-300):
        raise NotSymmetric(f"surface asymmetry {asym:g} exceeds tolerance")
    sqw = np.sqrt(grid.weights)
    b = sqw[:, None] * g * sqw[None, :]
    b = (b + b.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(b)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if eigvals.size == 0 or eigvals[0] <= 0:
        return EigenSystem(grid, np.empty(0), np.empty((grid.n, 0)))
    keep = eigvals > rel_tol * eigvals[0]
    eigvals = eigvals[keep][:max_components]
    eigvecs = eigvecs[:, keep][:, :max_components]
    funcs = eigvecs / sqw[:, None]
    for k in range(funcs.shape[1]):
        norm = np.sqrt(grid.weights @ funcs[:, k] ** 2)
        funcs[:, k] /= norm
        total = grid.weights @ funcs[:, k]
        if total < -1e-12:
            funcs[:, k] = -funcs[:, k]
        elif abs(total) <= 1e-12:
            nz = np.flatnonzero(np.abs(funcs[:, k]) > 1e-12)
            if nz.size and funcs[nz[0], k] < 0:
                funcs[:, k] = -funcs[:, k]
    return EigenSystem(grid, eigvals, funcs)


def sigma_mk(eig_x: EigenSystem, eig_y: EigenSystem | None,
             cross: GridSurface | GridFunction, m: int, k: int | None = None) -> np.ndarray:
    """Mixed moments E(zeta_m xi_k) projected out of the cross-covariance.

    Functional responses give an (m, k) matrix of double integrals; scalar
    responses give a length-m vector of single integrals.
    """
    if m > eig_x.n_components:
        raise TruncationTooLarge(
            f"requested {m} predictor components, only {eig_x.n_components} available")
    if isinstance(cross, GridFunction):
        w = cross.grid.weights * cross.values
        return eig_x.functions[:, :m].T @ w
    if eig_y is None or k is None:
        raise ValueError("functional responses need eig_y and k")
    if k > eig_y.n_components:
        raise TruncationTooLarge(
            f"requested {k} response components, only {eig_y.n_components} available")
    lw = eig_x.functions[:, :m] * cross.row_grid.weights[:, None]
    rw = eig_y.functions[:, :k] * cross.col_grid.weights[:, None]
    return lw.T @ cross.values @ rw


def observation_covariance(times, eig: EigenSystem, sigma2: float) -> np.ndarray:
    """Dense covariance Psi Lambda Psi^T + sigma2 I of noisy observations at
    one time vector (n, n) or at each of a (g, n) stack of them (g, n, n),
    over every component of ``eig``, with sigma2 floored
    (``floored_variance``) as in ``_blup_operator``. The BLUP never builds it;
    it is the reference that operator is checked against."""
    psi = eig.at(times)
    sigma = (psi * eig.values) @ psi.swapaxes(-1, -2)
    diag = np.arange(psi.shape[-2])
    sigma[..., diag, diag] += floored_variance(sigma2, eig)
    return sigma


def _count_groups(sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per nonzero observation count n: the indices of the subjects with n
    observations and the (g, n) positions of those observations in the
    concatenation of all subjects' observations (``sizes`` in order)."""
    sizes = np.asarray(sizes, dtype=int)
    starts = np.cumsum(sizes) - sizes
    groups = []
    for n in np.unique(sizes[sizes > 0]):
        idx = np.flatnonzero(sizes == n)
        groups.append((idx, starts[idx, None] + np.arange(n)))
    return groups


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(a, axis=0, return_inverse=True)`` for a 2D float array:
    the distinct rows in lexicographic order and each row's index among
    them, from one lexsort over the columns and a comparison of adjacent
    sorted rows (equal values are equal rows, so -0.0 matches 0.0)."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    first = np.empty(a.shape[0], dtype=bool)
    first[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inverse = np.empty(a.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _blup_operator(times: np.ndarray, eig: EigenSystem,
                   sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenfunctions psi (g, n, K) and BLUP operators A (g, K, n) at a
    (g, n) stack of time vectors, over all K retained components; scores
    are A (values - mean), and their first k rows are the first k scores.

    Each subject is conditioned on the covariance refitted from the
    retained eigenpairs, Sigma = psi Lambda psi^T + sigma2 I (PACE), which
    is positive definite by construction, so by Woodbury
    A = Lambda psi^T Sigma^{-1} = (Lambda^{-1} + psi^T psi / sigma2)^{-1} psi^T / sigma2,
    solved as (sigma2 Lambda^{-1} + psi^T psi)^{-1} psi^T: one K x K system
    per distinct time vector, with sigma2 floored (``floored_variance``). The
    retained spectrum (after ``eigen_floor``) is the bin's covariance
    estimate, while a truncation order regularises the slope, so Sigma
    uses every retained component whatever order is scored: one operator
    per bin serves every candidate order.
    """
    rows = slice(None)
    if times.shape[0] > 1:
        times, rows = _unique_rows(times)
    psi = eig.at(times)
    psi_t = psi.swapaxes(1, 2)
    gram = psi_t @ psi
    # the diagonals, through a strided view of the contiguous product
    k = eig.n_components
    gram.reshape(-1, k * k)[:, ::k + 1] += floored_variance(sigma2, eig) / eig.values
    return psi[rows], np.linalg.solve(gram, psi_t)[rows]


def blup_scores(times, values, mean_values, eig: EigenSystem, sigma2: float,
                n_components: int) -> np.ndarray:
    """Best linear predictor of the first n_components FPC scores from
    sparse noisy observations: Lambda phi(times)^T Sigma^{-1} (values - mean),
    with Sigma the covariance of ``_blup_operator``, fitted from all of the
    eigensystem's components.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise SingularCovariance("cannot score a subject with no observations")
    if n_components < 1 or n_components > eig.n_components:
        raise TruncationTooLarge(
            f"requested {n_components} components, {eig.n_components} available")
    resid = np.asarray(values, dtype=float) - np.asarray(mean_values, dtype=float)
    _, ops = _blup_operator(times[None, :], eig, sigma2)
    return ops[0, :n_components] @ resid


def default_bandwidth(domain_length: float, n_points: int) -> float:
    """Deterministic bandwidth scale: (range) * n^(-1/5)."""
    return domain_length * max(int(n_points), 2) ** (-0.2)


@dataclass(frozen=True)
class BinBandwidths:
    """Resolved smoothing bandwidths for one bin, as its smoothers take them:
    a number for the 1D mean and diagonal smoothers and a scalar response's
    cross curve, a (b1, b2) pair for the covariance and functional cross
    surfaces. The ``_y`` entries are None for a scalar response."""

    mean_x: float
    mean_y: float | None
    cov_x: tuple[float, float]
    cov_y: tuple[float, float] | None
    diag_x: float
    diag_y: float | None
    cross: tuple[float, float] | float

    def as_dict(self) -> dict:
        """The model file's form: a pair is a list, but a covariance pair
        with equal axes is one number."""
        doc = {key: list(v) if isinstance(v, tuple) else v for key, v in vars(self).items()}
        for key in ("cov_x", "cov_y"):
            if doc[key] is not None and doc[key][0] == doc[key][1]:
                doc[key] = doc[key][0]
        return doc


def _covariance_estimates(stream_, cov_bw, diag_bw: float, kernel: Kernel1D,
                          grid: Grid, max_components: int, rel_tol: float):
    """One ``_minus`` stream's covariance surface, error variance and
    eigensystem, from its j < l pairs, grouped once by location
    (``pair_rows``)."""
    diag = _diagonal(stream_)
    rows = pair_rows(stream_, stream_, True)
    cov = smooth_covariance(rows, LocalFitConfig(cov_bw, kernel), grid)
    sigma2 = estimate_sigma2(diag, rows, LocalFitConfig(diag_bw, kernel), grid)
    return cov, sigma2, eigendecompose(cov, grid, max_components, rel_tol=rel_tol)


def fit_bin(means, centered, center: float, s_grid: Grid,
            t_grid: Grid | None, bandwidths: BinBandwidths, kernel: Kernel1D,
            max_m: int, max_k: int, eigen_floor: float = 1e-10) -> BinEstimate:
    """All raw estimates for one bin, from its mean curves ``means`` =
    (mean_x, mean_y), mean_y a number for a scalar response, and its
    predictor and response streams centered by them, ``centered`` = (x, y)
    (``_minus`` of ``_observations``), as ``regression.fit`` builds them.

    ``max_m``/``max_k`` bound how many eigencomponents are retained (the
    spectra may hold fewer, and ``eigen_floor`` drops eigenvalues below that
    fraction of the leading one); ``sigma_mk`` is built at those bounds so
    that truncation selection can slice it without refitting. Each stream's
    j < l pairs, and the functional cross pairs, are grouped by
    location once and shared by every smoother and retry that uses them.

    Cost: a bin whose subjects all share one time vector is grouped by
    summing each location's products across subjects, without a sort
    (``pair_rows``); any other bin sorts its pairs.
    """
    scalar = t_grid is None
    mean_x, mean_y = means
    x, y = centered

    rel_tol = max(1e-10, eigen_floor)
    cov_x, sigma2_x, eig_x = _covariance_estimates(
        x, bandwidths.cov_x, bandwidths.diag_x, kernel, s_grid, max_m, rel_tol)
    if scalar:
        cov_y = sigma2_y = eig_y = None
    else:
        cov_y, sigma2_y, eig_y = _covariance_estimates(
            y, bandwidths.cov_y, bandwidths.diag_y, kernel, t_grid, max_k, rel_tol)

    cross = smooth_cross_covariance((x, y), LocalFitConfig(bandwidths.cross, kernel),
                                    (s_grid, t_grid))

    m_avail = eig_x.n_components
    if m_avail == 0:
        raise InsufficientLocalData(
            f"bin at z={center:g}: predictor covariance has no positive eigenvalues")
    if scalar:
        moments = sigma_mk(eig_x, None, cross, m_avail)
    else:
        k_avail = eig_y.n_components
        if k_avail == 0:
            raise InsufficientLocalData(
                f"bin at z={center:g}: response covariance has no positive eigenvalues")
        moments = sigma_mk(eig_x, eig_y, cross, m_avail, k_avail)

    return BinEstimate(
        center=float(center), n_subjects=x[2].size,
        mean_x=mean_x, mean_y=mean_y, cov_x=cov_x, cov_y=cov_y, cross=cross,
        eig_x=eig_x, eig_y=eig_y, sigma_mk=moments,
        sigma2_x=sigma2_x, sigma2_y=sigma2_y,
        bandwidths=bandwidths.as_dict(),
    )
