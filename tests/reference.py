"""Reference forms the tests compare the library against.

No fit, predict or CLI path calls these. Most are the plain form of rows a
fit builds in a cheaper way; the stream helpers build a bin's streams from
its subjects with ``fpca._observations`` and ``fpca._minus``, as
``regression.fit`` does, for the per-bin steps that take them.
"""

import numpy as np

from vcflr import fpca
from vcflr.fpca import group_pairs
from vcflr.grids import GridFunction
from vcflr.smoothing import LocalFitConfig, local_linear_weights


def aggregate_2d(x1, x2, y):
    """Collapse duplicate (x1, x2) locations of raw rows to (x1, x2, mean y,
    multiplicity), sorted by (x1, x2): ``group_pairs`` with each row its own
    pair."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    rows = np.arange(x1.size)
    return group_pairs(x1, x2, rows, rows, np.asarray(y, dtype=float))


def gathered(subjects, scalar=False):
    """A bin's (x, y) streams as ``regression.fit`` gathers them, which
    mean-bandwidth CV reads."""
    return fpca._observations(subjects, "x"), fpca._observations(subjects, "y", not scalar)


def centered_stream(subjects, stream, mean):
    """One stream centered by a mean curve, or by a number for a scalar
    response, which has no times."""
    timed = isinstance(mean, GridFunction)
    return fpca._minus(fpca._observations(subjects, stream, timed), mean)


def centered(subjects, mean_x, mean_y):
    """A bin's (x, y) streams centered by its mean curves (``mean_y`` a
    number for a scalar response), as ``fit_bin``, surface CV and
    truncation selection take them."""
    return centered_stream(subjects, "x", mean_x), centered_stream(subjects, "y", mean_y)


def bin_inputs(subjects, mean_bandwidths, kernel, s_grid, t_grid):
    """The mean curves and centered streams that ``fit_bin`` takes, fitted
    at ``mean_bandwidths`` = (mean_x, mean_y) as ``regression.fit`` fits
    them: a scalar response (``t_grid`` None) is centered by its average."""
    x, y = gathered(subjects, t_grid is None)
    mean_x = fpca.estimate_mean(x[0], x[1], LocalFitConfig(mean_bandwidths[0], kernel), s_grid)
    mean_y = float(np.mean(y[1])) if t_grid is None else fpca.estimate_mean(
        y[0], y[1], LocalFitConfig(mean_bandwidths[1], kernel), t_grid)
    return (mean_x, mean_y), (fpca._minus(x, mean_x), fpca._minus(y, mean_y))


def covariance_pairs(subjects, mean, stream):
    """One stream's centered observations paired with themselves.

    Returns ``(pairs, diag)``: pairs is ``(times, times, ia, ib, products)``
    for every within-subject pair with j < l, subject by subject and
    row-major, as ``group_pairs`` takes it; diag is the (m, 2) array of
    (s, squared centered value) rows. The products are symmetric, so each
    pair stands for itself and its mirror (l, j), and sorted times give
    every pair times[ia] <= times[ib].
    """
    stream_ = centered_stream(subjects, stream, mean)
    return fpca._stream_pairs(stream_, stream_, True), fpca._diagonal(stream_)


def cross_pairs(subjects, mean_x, mean_y):
    """Every within-subject (predictor, response) pair of centered
    observations, subject by subject and row-major: ``(x_times, y_times,
    ia, ib, products)``, with y_times None for a scalar response."""
    return fpca._stream_pairs(*centered(subjects, mean_x, mean_y), False)


def raw_covariances(subjects, mean, stream="x"):
    """Per-subject products of centered observations.

    Returns ``(off_diag, diag)`` where off_diag is an (n, 3) array of
    (s1, s2, value) with the j = l products excluded, and diag is an (m, 2)
    array of (s, value). Subjects with a single observation contribute only
    diagonal entries. Rows come subject by subject and row-major, unfolded
    from the j < l pairs of ``covariance_pairs``: each pair (j, l) and its
    mirror (l, j), sorted by the observations' positions.
    """
    (times, _, ia, ib, products), diag = covariance_pairs(subjects, mean, stream)
    ia, ib = np.concatenate([ia, ib]), np.concatenate([ib, ia])
    order = np.lexsort((ib, ia))
    ia, ib, products = ia[order], ib[order], np.tile(products, 2)[order]
    return np.column_stack([times[ia], times[ib], products]), diag


def raw_cross_products(subjects, mean_x, mean_y):
    """Raw centered cross products; (s, t, value) rows, or (s, value) rows
    in scalar-response mode, subject by subject."""
    x_times, y_times, ia, ib, products = cross_pairs(subjects, mean_x, mean_y)
    if y_times is None:
        return np.column_stack([x_times[ia], products])
    return np.column_stack([x_times[ia], y_times[ib], products])


def predict(model, x_obs, z_star):
    """``regression.predict`` in plain form, with what it calls written
    out: the refinement weights as a one-row batch of
    ``local_linear_weights``, an unconditional stable sort, ``np.diff``
    gaps for the coverage test and the BLUP operator of one time vector
    with its diagonal loaded through fancy indexing. Returns
    ``(y_hat, mode)``; the z and observation checks are left out."""
    pts = np.asarray(x_obs, dtype=float).reshape(-1, 2)
    times, values = pts[np.argsort(pts[:, 0], kind="stable")].T
    w = local_linear_weights(model.partition.centers, [z_star], model.refine_bandwidth,
                             model.kernel)[0]
    stack = model.raw_beta_stack
    beta = (w @ stack.reshape(stack.shape[0], -1)).reshape(stack.shape[1:])
    mean_x = w @ model.mean_x_stack
    mean_y = w @ model.mean_y_stack
    m = model.truncation[0]
    grid = model.s_grid
    max_gap = 2.0 * (grid.points[1] - grid.points[0])
    if times[0] - grid.lower <= max_gap and grid.upper - times[-1] <= max_gap \
            and (times.size == 1 or np.diff(times).max() <= max_gap):
        centered = np.interp(grid.points, times, values) - mean_x
        mode = "dense"
    else:
        near = model.bins[model.partition.nearest_bin(z_star)]
        eig = near.eig_x
        resid = values - np.interp(times, grid.points, mean_x)
        psi = eig.at(times[None, :])
        psi_t = psi.swapaxes(1, 2)
        gram = psi_t @ psi
        diag = np.arange(eig.n_components)
        gram[:, diag, diag] += fpca.floored_variance(near.sigma2_x, eig) / eig.values
        scores = np.linalg.solve(gram, psi_t)[0, :m] @ resid
        centered = eig.functions[:, :m] @ scores
        mode = "sparse"
    integ = grid.weights * centered
    if model.scalar_response:
        return float(mean_y + integ @ beta), mode
    return mean_y + beta.T @ integ, mode
