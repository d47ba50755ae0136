"""Pseudo-AIC/BIC selection of truncation orders, refinement bandwidth and
bin count, plus k-fold-by-subject cross-validation for smoother bandwidths.

The truncation criterion scores BLUP reconstructions of each subject's
observations inside its own bin; the bandwidth and bin-count criteria score
``regression.predict``'s predictions of the training subjects' response
observations, penalized by the effective parameter count of the refinement
smoother (trace form) or by the total parameter count 2MKP. Bin-count
selection only scores models that ``regression.fit`` has already fitted at
each candidate count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .data import LongitudinalDataset, Subject
from .errors import (
    InsufficientCenters,
    InsufficientLocalData,
    TruncationTooLarge,
)
from .fpca import (
    VARIANCE_FLOOR,
    BinEstimate,
    _blup_operator,
    _count_groups,
    covariance_pairs,
    cross_pairs,
    estimate_mean,
    floored_variance,
    pair_locations,
)
from .grids import Grid, GridSurface
from .kernels import Kernel1D
from .smoothing import (
    _CV_TIE_RTOL,
    LocalFitConfig,
    _check_bandwidths,
    _column_support,
    _local_linear_fit,
    local_linear_2d_at,
    local_linear_weights,
    smoothing_matrix,
)

if TYPE_CHECKING:  # pragma: no cover
    from .regression import FittedModel

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class SelectionReport:
    """Chosen hyperparameters plus the score tables behind them.

    ``refined_residual`` is the deviance part of the refined-fit criterion at
    the selected refinement bandwidth (None when b was fixed); bin-count
    selection adds the 2MKP penalty to it. It is not serialized.
    """

    criterion: str
    chosen: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    refined_residual: float | None = None

    def to_rows(self) -> list[tuple[str, str, float]]:
        """Flatten score tables to (candidate, criterion, score) rows."""
        rows = []
        for name, table in self.tables.items():
            for cand, score in table:
                rows.append((f"{name}={cand}", self.criterion, float(score)))
        return rows


def _penalty_scale(criterion: str, n: int) -> float:
    """Per-parameter penalty: 2 for AIC, log n for BIC."""
    if criterion == "AIC":
        return 2.0
    if criterion == "BIC":
        return math.log(n)
    raise ValueError(f"unknown criterion {criterion!r}; choose AIC or BIC")


def _truncation_table(bins: list[BinEstimate], subjects_by_bin: list[list[Subject]],
                      candidates, stream: str, criterion: str, n_total: int):
    """Penalized pseudo-deviance of BLUP reconstructions per candidate order.

    Each bin scores its subjects in groups of equal observation count, with
    one stacked BLUP operator per group.
    """
    pen_scale = _penalty_scale(criterion, n_total)
    cap = min(getattr(b, f"eig_{stream}").n_components for b in bins)
    feasible = [c for c in candidates if c <= cap]
    skipped = [c for c in candidates if c > cap]
    if skipped:
        warnings.warn(
            f"skipping truncation candidate(s) {skipped} on the {stream.upper()} side: "
            f"some bin has only {cap} component(s)")
    if not feasible:
        raise TruncationTooLarge(
            f"no feasible truncation candidate on the {stream.upper()} side "
            f"(bins provide at most {cap} component(s))")
    kmax = max(feasible)

    sse = dict.fromkeys(feasible, 0.0)
    base = 0.0
    for b, subjects in zip(bins, subjects_by_bin):
        if not subjects:
            continue
        sigma2 = floored_variance(getattr(b, f"sigma2_{stream}"), getattr(b, f"eig_{stream}"))
        times = [getattr(sub, f"{stream}_times") for sub in subjects]
        flat = np.concatenate(times)
        resid = np.concatenate([getattr(sub, f"{stream}_values") for sub in subjects]) \
            - getattr(b, f"mean_{stream}").at(flat)
        for _, pos in _count_groups([t.size for t in times]):
            phi, ops = _blup_operator(flat[pos], getattr(b, f"eig_{stream}"), sigma2)
            eps = resid[pos]
            scores = np.einsum("gkn,gn->gk", ops, eps)
            for k in range(1, kmax + 1):
                eps = eps - scores[:, k - 1, None] * phi[:, :, k - 1]
                if k in sse:
                    sse[k] += float(np.sum(eps * eps)) / sigma2
        base += flat.size * (_LOG_2PI + math.log(sigma2))
    return [(c, sse[c] + base + pen_scale * len(bins) * c) for c in feasible]


def _argmin_with_ties(table, prefer_last: bool = False):
    """Strict argmin over (candidate, score) rows; equal scores keep the
    earlier row, so candidate ordering encodes the tie rule."""
    best = None
    for cand, score in table:
        if best is None or score < best[1] or (prefer_last and score <= best[1]):
            best = (cand, score)
    return best[0]


def select_truncation(bins: list[BinEstimate], subjects_by_bin: list[list[Subject]],
                      candidates, criterion: str = "BIC", n_total: int | None = None):
    """Truncation orders (M, K) minimizing the penalized pseudo-deviance.

    M comes from the predictor-side criterion, K from the response side
    (None for scalar responses). Ties break toward smaller orders.
    """
    if n_total is None:
        n_total = sum(len(s) for s in subjects_by_bin)
    tables = {}
    m_table = _truncation_table(bins, subjects_by_bin, candidates, "x", criterion, n_total)
    tables["M"] = m_table
    m = _argmin_with_ties(m_table)
    if bins[0].eig_y is None:
        return m, None, tables
    k_table = _truncation_table(bins, subjects_by_bin, candidates, "y", criterion, n_total)
    tables["K"] = k_table
    k = _argmin_with_ties(k_table)
    return m, k, tables


class _RefinementResiduals:
    """The refined-fit residual criterion: the residuals of
    ``regression.predict`` at a candidate refinement bandwidth, taken at
    each training subject's response times.

    Predict's centred reconstruction of subject i's predictor on the s grid
    is affine in its refinement weights w_i: c_i = r_i - R_i w_i. Dense
    subjects (``Grid.covered_by``) interpolate x onto the grid, R_i the bins'
    mean_x curves; sparse ones take BLUP scores in their nearest bin's
    (``BinPartition.nearest_bin``) eigenbasis Psi, r_i = Psi A x_i and
    R_i = Psi A [mu_{x,q}(s_i)]_q, A from ``fpca._blup_operator`` (one stack
    per nearest bin and observation count). r, R and the response times'
    grid cells are built once; a candidate bandwidth costs a weight matrix,
    one GEMM of the c_i against the bins' raw slopes and one interpolation.
    """

    def __init__(self, model: "FittedModel", ds: LongitudinalDataset):
        self.model = model
        m = model.truncation[0]
        subjects = ds.subjects
        grid = model.s_grid
        self.z = np.array([sub.z for sub in subjects])
        self.r = np.zeros((ds.n, grid.n))
        self.r_mean = np.zeros((ds.n, model.n_bins, grid.n))   # R_i^T; no observations: 0
        dense = np.array([sub.n_x > 0 and grid.covered_by(sub.x_times) for sub in subjects],
                         dtype=bool)
        for i in np.flatnonzero(dense):
            self.r[i] = np.interp(grid.points, subjects[i].x_times, subjects[i].x_values)
        self.r_mean[dense] = model.mean_x_stack
        x_times = np.concatenate([sub.x_times for sub in subjects])
        x_values = np.concatenate([sub.x_values for sub in subjects])
        mean_x = np.column_stack([b.mean_x.at(x_times) for b in model.bins])   # (N_x, P)
        near = model.partition.nearest_bin(self.z)
        near[dense] = -1
        for idx, pos in _count_groups([sub.n_x for sub in subjects]):
            for p in set(near[idx].tolist()) - {-1}:
                rows, pos_p, eig = idx[near[idx] == p], pos[near[idx] == p], model.bins[p].eig_x
                ops = _blup_operator(x_times[pos_p], eig, model.bins[p].sigma2_x)[1][:, :m]
                psi_t = eig.functions[:, :m].T
                self.r[rows] = np.einsum("gmn,gn->gm", ops, x_values[pos_p]) @ psi_t
                self.r_mean[rows] = (ops @ mean_x[pos_p]).swapaxes(1, 2) @ psi_t

        stack = model.raw_beta_stack
        self.beta = stack.reshape((-1,) + stack.shape[2:])        # (P G, T) or (P G,)
        self.y = np.concatenate([sub.y_values for sub in subjects])
        if model.scalar_response:
            # the floor scales with the responses' second moment; responses
            # that are all zero are predicted exactly at every bandwidth, so
            # any positive variance ranks the candidates alike
            self.sigma2_y = max(float(np.var(self.y)),
                                VARIANCE_FLOOR * float(self.y @ self.y) / self.y.size) or 1.0
            self.lo = self.hi = np.arange(ds.n)
            self.frac = np.zeros(ds.n)
        else:
            # the bins' mean noise variance, floored at their mean leading
            # eigenvalue's scale
            lead = float(np.mean([b.eig_y.values[0] for b in model.bins]))
            self.sigma2_y = max(model.sigma2_y, VARIANCE_FLOOR * lead)
            t = model.t_grid.points
            y_times = np.concatenate([sub.y_times for sub in subjects])
            # the t cell of each response time, as grids.bilinear finds it
            cell = np.searchsorted(t[1:-1], y_times, side="right")
            self.frac = (y_times - t[cell]) / (t[cell + 1] - t[cell])
            self.lo = np.repeat(np.arange(ds.n) * t.size, [sub.n_y for sub in subjects]) + cell
            self.hi = self.lo + 1

    def residual_term(self, b: float) -> float:
        """Sum over subjects of eps'eps / sigma2 + N log(2 pi sigma2) at
        refinement bandwidth b, eps the residuals of predict's response at
        the observed times.

        The weights are the ones refine() deploys (``local_linear_weights``,
        widening included); InsufficientCenters escapes only when widening
        is exhausted at some subject's covariate.
        """
        model = self.model
        w = local_linear_weights(model.partition.centers, self.z, b, model.kernel)  # (n, P)
        integ = (self.r - (w[:, None] @ self.r_mean)[:, 0]) * model.s_grid.weights
        # sum_q w_q beta_q^T integ as one GEMM: rows w_i (x) integ_i, (n, P G)
        y_hat = w @ model.mean_y_stack + (w[:, :, None] * integ[:, None]).reshape(
            len(w), -1) @ self.beta
        y_hat = y_hat.ravel()                                             # (n T,) or (n,)
        eps = self.y - (y_hat[self.lo] + self.frac * (y_hat[self.hi] - y_hat[self.lo]))
        return float(eps @ eps) / self.sigma2_y \
            + self.y.size * (_LOG_2PI + math.log(self.sigma2_y))


def select_bandwidth(model: "FittedModel", ds: LongitudinalDataset, candidates,
                     criterion: str = "BIC"):
    """Refinement bandwidth minimizing the penalized refined-fit deviance:
    the deviance of the predictions that ``regression.predict`` makes of
    the training subjects' responses at each candidate bandwidth.

    The penalty is the effective parameter count tr(SᵀS) of the refinement
    smoother matrix, scaled by 2 (AIC) or log n (BIC). Inadmissible
    candidates are skipped; ties break toward larger bandwidths.

    Returns (chosen bandwidth, score table, residual term at the chosen b).
    """
    pen_scale = _penalty_scale(criterion, ds.n)
    prep = _RefinementResiduals(model, ds)
    table = []
    resid_by_b = {}
    for b in sorted(set(float(b) for b in candidates)):
        try:
            _, trace = smoothing_matrix(model.partition.centers, b, model.kernel)
            resid = prep.residual_term(b)
        except InsufficientCenters:
            continue
        resid_by_b[b] = resid
        table.append((b, resid + pen_scale * trace))
    if not table:
        raise InsufficientCenters("no admissible refinement bandwidth candidate")
    b_star = _argmin_with_ties(table, prefer_last=True)   # larger b wins ties
    return b_star, table, resid_by_b[b_star]


def select_binwidth(models: list["FittedModel"], criterion: str, n_total: int):
    """Bin count minimizing the refined-fit deviance plus the 2MKP penalty.

    ``models`` are fits at the candidate bin counts, each with its truncation
    and refinement bandwidth selected, so its ``selection.refined_residual``
    is the deviance of its predictions at its own bandwidth. The penalty is
    M K P scaled by 2 (AIC) or log n_total (BIC). Ties break toward fewer
    bins. Returns (winning model, score table).
    """
    pen_scale = _penalty_scale(criterion, n_total)
    ranked = sorted(models, key=lambda mdl: mdl.n_bins)
    table = []
    for mdl in ranked:
        m, k = mdl.truncation
        table.append((mdl.n_bins, mdl.selection.refined_residual
                      + pen_scale * m * (k or 1) * mdl.n_bins))
    p_star = _argmin_with_ties(table)
    return next(mdl for mdl in ranked if mdl.n_bins == p_star), table


def _cv_choice(results, scale: float):
    """The candidate of least held-out error among ``(candidate, error)``
    rows; errors within ``_CV_TIE_RTOL * scale`` of the least count as tied,
    and the largest bandwidth among the tied wins."""
    least = min(err for _, err in results)
    tied = [cand for cand, err in results if err <= least + _CV_TIE_RTOL * scale]
    return max(tied, key=lambda cand: np.atleast_1d(cand)[0])


def cv_smoother_bandwidth(subjects: list[Subject], kind: str, n_folds: int,
                          candidates, s_grid: Grid, t_grid: Grid | None = None,
                          kernel: Kernel1D = Kernel1D(),
                          mean_bandwidths: tuple | None = None):
    """K-fold-by-subject CV for one smoother's bandwidth.

    ``kind`` is one of mean_x, mean_y, cov_x, cov_y, cross; every kind but
    mean_x and cov_x needs the response grid ``t_grid``, so a scalar
    response has no cross kind. Candidates are numbers for the mean kinds
    and (b1, b2) pairs for the surface kinds. Covariance and cross kinds
    center observations with mean curves fitted once on all subjects
    (``mean_bandwidths`` gives their bandwidths). Held-out squared error is
    measured at the held-out raw points against the fitted curve or surface
    interpolated off the grid. Candidates that fail anywhere are skipped.
    Errors within ``_CV_TIE_RTOL`` times the held-out sum of squared values
    of the least error are ties, which go to the larger bandwidth: the
    errors of fits that reproduce the data exactly are rounding noise, and
    their order is arbitrary.

    Cost: every fold is one column of training multiplicities and mean
    values at shared locations, the distinct times or pair locations
    (``fpca.pair_locations``). A mean kind counts the support of every
    candidate, grid point and fold once, and skips a candidate that fails
    in some fold before forming its moments; a surviving candidate costs
    one ``smoothing.local_moments_1d`` call for all folds and, per fold, one
    interpolation at the distinct times and one dot product
    (``_mean_cv_errors``). A surface candidate costs one smoother call for
    all folds and one interpolation and one dot product per fold.
    """
    results, scale = cv_errors(subjects, kind, n_folds, candidates, s_grid, t_grid,
                               kernel=kernel, mean_bandwidths=mean_bandwidths)
    if not results:
        raise InsufficientLocalData(
            f"every candidate bandwidth failed {kind} cross-validation")
    return _cv_choice(results, scale)


def cv_errors(subjects: list[Subject], kind: str, n_folds: int, candidates,
              s_grid: Grid, t_grid: Grid | None = None, kernel: Kernel1D = Kernel1D(),
              mean_bandwidths: tuple | None = None):
    """(candidate, held-out squared error) rows of ``cv_smoother_bandwidth``,
    in candidate order, without the candidates that failed in some fold, and
    the sum of squared held-out values, which scales the tie tolerance.

    Cost: the fold columns are built once for all candidates. A mean
    candidate then costs one moment pass for all folds and one
    interpolation at the distinct times per fold, or nothing more when the
    shared support count fails it; a surface candidate costs one smoother
    call and one interpolation per fold.
    """
    if kind not in ("mean_x", "mean_y", "cov_x", "cov_y", "cross"):
        raise ValueError(f"unknown smoother kind {kind!r}")
    if t_grid is None and kind not in ("mean_x", "cov_x"):
        raise ValueError(f"{kind} CV needs a response grid; scalar responses have none")
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if n_folds > len(subjects):
        raise ValueError(
            f"fold count {n_folds} exceeds the {len(subjects)} subjects in the bin")
    folds = np.arange(len(subjects)) % n_folds
    # subject of each observation of the stream that the rows are indexed by
    owner = np.repeat(np.arange(len(subjects)),
                      [s.n_y if kind in ("mean_y", "cov_y") else s.n_x for s in subjects])

    mean_kind = kind in ("mean_x", "mean_y")
    if mean_kind:
        times = np.concatenate([s.x_times if kind == "mean_x" else s.y_times for s in subjects])
        values = np.concatenate([s.x_values if kind == "mean_x" else s.y_values
                                 for s in subjects])
        xu, group = np.unique(times, return_inverse=True)
        order, n_loc, mirror = slice(None), xu.size, False
    else:
        if mean_bandwidths is None:
            raise ValueError(f"{kind} CV needs mean_bandwidths to center observations")

        def mean(stream):
            i = "xy".index(stream)
            return estimate_mean(
                np.concatenate([getattr(s, f"{stream}_times") for s in subjects]),
                np.concatenate([getattr(s, f"{stream}_values") for s in subjects]),
                LocalFitConfig(mean_bandwidths[i], kernel), (s_grid, t_grid)[i])

        # a covariance's j < l pairs each stand for their mirror too
        mirror = kind != "cross"
        if mirror:
            grid = s_grid if kind == "cov_x" else t_grid
            grids, (pairs, _) = (grid, grid), covariance_pairs(subjects, mean(kind[-1]), kind[-1])
        else:
            grids, pairs = (s_grid, t_grid), cross_pairs(subjects, mean("x"), mean("y"))
        times_a, times_b, ia, ib, values = pairs
        owner = owner[ia]
        x1, x2, order, group = pair_locations(times_a, times_b, ia, ib)
        n_loc, where = x1.size, (times_a[ia], times_b[ib])

    # One column per fold of training multiplicity and mean value per
    # location. ``group`` codes the rows taken in ``order``, which keeps
    # each location's rows in input order, so every sum adds its values as
    # aggregate_1d and group_pairs add them.
    ordered = values[order]
    w = np.empty((n_loc, n_folds))
    ybar = np.zeros((n_loc, n_folds))
    fold_of = folds[owner]
    tests = []
    for f in range(n_folds):
        test = fold_of == f
        train = ~test[order]
        w[:, f] = np.bincount(group[train], minlength=n_loc)
        sums = np.bincount(group[train], weights=ordered[train], minlength=n_loc)
        np.divide(sums, w[:, f], out=ybar[:, f], where=w[:, f] > 0)
        tests.append(test)
    scale = float(values @ values) * (2.0 if mirror else 1.0)
    if mean_kind:
        grid = s_grid if kind == "mean_x" else t_grid
        return _mean_cv_errors(xu, group, values, w, ybar, tests, grid, candidates,
                               kernel), scale

    # A fold's held-out error is the squared norm of its residuals, one dot
    # product; a mirrored pair is held out at (s, t) and at (t, s).
    at, observed = [], []
    for test in tests:
        held = tuple(a[test] for a in where)
        if mirror:
            held = (np.concatenate(held), np.concatenate(held[::-1]))
        at.append(held)
        observed.append(np.tile(values[test], 2) if mirror else values[test])
    results = []
    for cand in candidates:
        try:
            fitted = local_linear_2d_at(x1, x2, ybar, grids[0].points, grids[1].points, cand,
                                        kernel=kernel, weights=w, mirror=mirror)
        except InsufficientLocalData:
            continue
        sse = 0.0
        for f, obs in enumerate(observed):
            err = obs - GridSurface(*grids, fitted[..., f]).at(*at[f])
            sse += float(err @ err)
        results.append((cand, sse))
    return results, scale


def _mean_cv_errors(xu, group, values, w, ybar, tests, grid: Grid, candidates,
                    kernel: Kernel1D):
    """``cv_errors`` rows of a mean kind from its fold columns: ``w`` and
    ``ybar`` (U, F) at the distinct times ``xu``, ``group`` each
    observation's index among them, and ``tests`` each fold's held-out
    observations.

    Each candidate's fit is ``local_linear_1d_at``'s on the fold columns,
    and each fold is scored at the distinct times and gathered to its
    held-out observations; ``np.interp`` gives equal values at equal times,
    so every error equals that of interpolating at every observation.

    Cost: the support of every candidate, grid point and fold comes from
    one count (``smoothing._column_support``), which skips a candidate that
    fails in some fold before its moments are formed; a surviving candidate
    costs one ``local_moments_1d`` call for all folds, and a fold one
    interpolation at the U distinct times.
    """
    _check_bandwidths(candidates)
    counts = _column_support(xu, w, grid.points, candidates, kernel.closed_support)
    held = [(values[test], group[test]) for test in tests]
    results = []
    for cand, support in zip(candidates, counts):
        if np.any(support < 2):
            continue
        fitted = _local_linear_fit(xu, ybar, w, grid.points, float(cand), kernel)
        sse = 0.0
        for f, (obs, codes) in enumerate(held):
            err = obs - np.interp(xu, grid.points, fitted[:, f])[codes]
            sse += float(err @ err)
        results.append((cand, sse))
    return results
