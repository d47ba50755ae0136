"""Reference forms the tests compare the library against.

No fit, predict or CLI path calls these; each is the plain form of rows a
fit builds in a cheaper way.
"""

import numpy as np

from vcflr.fpca import covariance_pairs, cross_pairs, group_pairs


def aggregate_2d(x1, x2, y):
    """Collapse duplicate (x1, x2) locations of raw rows to (x1, x2, mean y,
    multiplicity), sorted by (x1, x2): ``group_pairs`` with each row its own
    pair."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    rows = np.arange(x1.size)
    return group_pairs(x1, x2, rows, rows, np.asarray(y, dtype=float))


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
