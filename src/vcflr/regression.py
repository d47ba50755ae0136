"""Model fitting, cross-bin refinement and prediction.

Fitting is a two-step scheme: subjects are binned by the scalar covariate and
each bin gets raw functional-principal-component estimates (means, covariance
surfaces, eigenpairs, mixed moments, a truncated slope surface); the final
estimators at any covariate level are local linear combinations of the
per-bin raw estimates. Without a fixed bin count, ``fit`` fits every
candidate count and hands the fitted models to ``selection.select_binwidth``
to pick one. A single-bin fit degenerates to the global functional linear
regression baseline.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import fpca, selection
from .data import BinPartition, LongitudinalDataset, partition as make_partition
from .errors import (
    CovariateOutOfDomain,
    DomainViolation,
    EmptyBin,
    InsufficientLocalData,
    ModelFormatError,
    TruncationTooLarge,
)
from .grids import Grid, GridFunction, GridSurface, make_grid
from .kernels import Kernel1D
from .fpca import (
    BinBandwidths,
    BinEstimate,
    blup_scores,
    default_bandwidth,
    fit_bin,
)
from .smoothing import LocalFitConfig, local_linear_weights


_BANDWIDTH_KEYS = tuple(f.name for f in fields(BinBandwidths))


def _positive(value) -> bool:
    """True for a finite real number above zero (booleans excluded)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and math.isfinite(value) and value > 0


def _count(value, least: int) -> bool:
    """True for an integer of at least ``least`` (booleans excluded)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) \
        and value >= least


@dataclass
class FitConfig:
    """Everything `fit` needs beyond the dataset.

    ``None`` for ``n_bins``, ``truncation`` or ``refine_bandwidth`` requests
    data-driven selection; the refinement across bins is always local linear.
    Bandwidth overrides (``bandwidths`` keys mean_x, mean_y, cov_x, cov_y,
    diag_x, diag_y, cross) apply to every bin; without an override each
    smoother gets the deterministic default scale, refined by k-fold
    cross-validation for the 1D mean smoothers (and for the covariance and
    functional cross-covariance surfaces too when ``cv_surfaces`` is set).
    """

    n_bins: int | None = 8
    bin_candidates: tuple[int, ...] = (4, 6, 8, 10)
    grid_size: int = 51
    truncation: tuple[int, int | None] | None = None
    truncation_candidates: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    # bins retain only eigencomponents above this fraction of their leading
    # eigenvalue; at a few dozen subjects per bin anything below a few percent
    # is sampling noise, and the raw slope divides by these eigenvalues
    eigen_floor: float = 0.03
    refine_bandwidth: float | None = None
    refine_candidates: tuple[float, ...] | None = None
    criterion: str = "BIC"                     # truncation and refine bandwidth
    binwidth_criterion: str = "AIC"
    kernel: str = "epanechnikov"
    bandwidths: dict = field(default_factory=dict)
    bandwidth_policy: str = "cv"               # "cv" | "default" for mean smoothers
    cv_surfaces: bool = False
    cv_folds: int = 5
    cv_factors: tuple[float, ...] = (0.5, 0.7071, 1.0, 1.4142, 2.0)
    min_bin_count: int = 5

    def __post_init__(self):
        for name in ("criterion", "binwidth_criterion"):
            value = getattr(self, name)
            if value not in ("AIC", "BIC"):
                raise ValueError(f"{name} must be 'AIC' or 'BIC', got {value!r}")
        if self.refine_candidates is not None and not self.refine_candidates:
            raise ValueError("refine_candidates must be None or hold at least one bandwidth")
        fixed = () if self.refine_bandwidth is None else (self.refine_bandwidth,)
        for b in fixed + tuple(self.refine_candidates or ()):
            if not _positive(b):
                raise ValueError(f"refine bandwidths must be finite and positive, got {b!r}")
        Kernel1D(self.kernel)   # raises ValueError for an unknown family
        if not isinstance(self.cv_surfaces, bool):
            raise ValueError(f"cv_surfaces must be true or false, got {self.cv_surfaces!r}")
        floor = self.eigen_floor
        if not (isinstance(floor, numbers.Real) and not isinstance(floor, bool)
                and math.isfinite(floor) and 0 <= floor < 1):
            raise ValueError(f"eigen_floor must be a finite number in [0, 1), got {floor!r}")
        if self.bandwidth_policy not in ("cv", "default"):
            raise ValueError(
                f"bandwidth_policy must be 'cv' or 'default', got {self.bandwidth_policy!r}")
        if not isinstance(self.bandwidths, dict):
            raise ValueError(f"bandwidths must be a mapping, got {self.bandwidths!r}")
        unknown = sorted(set(self.bandwidths) - set(_BANDWIDTH_KEYS))
        if unknown:
            raise ValueError(f"unknown bandwidth key(s) {unknown}; "
                             f"choose from {', '.join(_BANDWIDTH_KEYS)}")
        for key, bw in self.bandwidths.items():
            pair = key in ("cov_x", "cov_y", "cross") and isinstance(bw, (tuple, list)) \
                and len(bw) == 2
            if not all(_positive(b) for b in (bw if pair else (bw,))):
                raise ValueError(
                    f"bandwidth {key} must be a finite positive number"
                    f"{' or a pair of them' if key in ('cov_x', 'cov_y', 'cross') else ''}, "
                    f"got {bw!r}")
        if not self.cv_factors or not all(_positive(f) for f in self.cv_factors):
            raise ValueError(
                f"cv_factors must be finite positive numbers, got {self.cv_factors!r}")
        if not _count(self.cv_folds, 2):
            raise ValueError(f"cv_folds must be an integer of at least 2, got {self.cv_folds!r}")
        if not _count(self.grid_size, 2):
            raise ValueError(f"grid_size must be an integer of at least 2, got {self.grid_size!r}")
        if not _count(self.min_bin_count, 1):
            raise ValueError(
                f"min_bin_count must be a positive integer, got {self.min_bin_count!r}")
        if self.n_bins is not None and not _count(self.n_bins, 1):
            raise ValueError(f"n_bins must be a positive integer or None, got {self.n_bins!r}")
        trunc = self.truncation
        if trunc is not None and not (
                isinstance(trunc, (tuple, list)) and len(trunc) == 2 and _count(trunc[0], 1)
                and (trunc[1] is None or _count(trunc[1], 1))):
            raise ValueError(f"truncation must be a pair (M, K) of positive integers, "
                             f"K None for a scalar response; got {trunc!r}")
        for name in ("bin_candidates", "truncation_candidates"):
            value = getattr(self, name)
            if not value or not all(_count(v, 1) for v in value):
                raise ValueError(f"{name} must be positive integers, got {value!r}")

    def kernel1d(self) -> Kernel1D:
        return Kernel1D(self.kernel)


@dataclass
class FittedModel:
    """Fitted varying-coefficient (or, with one bin, global) model.

    The bins are read-only once the model is built: construction stacks every
    bin's ``mean_x``, ``mean_y`` and ``raw_beta`` values along a leading bin
    axis (``mean_x_stack`` (P, G); ``mean_y_stack`` (P, T), or (P,) for a
    scalar response; ``raw_beta_stack`` (P, G, T), or (P, G), and None when
    a bin has no slope), which is what ``refine`` contracts. The stacks are
    derived data: they are not serialized and take no part in ``repr`` or
    ``==``. To change a bin, build a new model, e.g. with
    ``dataclasses.replace(model, bins=...)``, which restacks them.
    """

    s_grid: Grid
    t_grid: Grid | None
    s_domain: tuple[float, float]
    t_domain: tuple[float, float] | None
    z_domain: tuple[float, float]
    partition: BinPartition
    bins: list[BinEstimate]
    truncation: tuple[int, int | None]
    refine_bandwidth: float
    kernel: Kernel1D
    sigma2_x: float
    sigma2_y: float | None
    scalar_response: bool = False
    selection: object | None = None
    mean_x_stack: np.ndarray = field(init=False, repr=False, compare=False)
    mean_y_stack: np.ndarray = field(init=False, repr=False, compare=False)
    raw_beta_stack: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mean_x_stack = np.stack([b.mean_x.values for b in self.bins])
        self.mean_y_stack = np.array([b.mean_y for b in self.bins], dtype=float) \
            if self.scalar_response else np.stack([b.mean_y.values for b in self.bins])
        self.raw_beta_stack = None if any(b.raw_beta is None for b in self.bins) \
            else np.stack([b.raw_beta.values for b in self.bins])

    @property
    def n_bins(self) -> int:
        return len(self.bins)


@dataclass
class Prediction:
    """Predicted conditional response for one subject."""

    y_hat: GridFunction | float
    z_star: float
    mode: str = "dense"


def raw_beta(bin_est: BinEstimate, m: int, k: int | None = None):
    """Truncated eigen-expansion of the raw slope at one bin center.

    Functional response: sum over (m', k') of sigma_{m'k'} / rho_{m'} times
    psi_{m'}(s) phi_{k'}(t). Scalar response: the analogous curve in s.
    """
    eig_x = bin_est.eig_x
    if m < 1 or m > eig_x.n_components or m > bin_est.sigma_mk.shape[0]:
        raise TruncationTooLarge(
            f"bin at z={bin_est.center:g} has {eig_x.n_components} predictor "
            f"component(s); cannot truncate at M={m}")
    scaled = bin_est.sigma_mk[:m] / eig_x.values[:m, None] \
        if bin_est.sigma_mk.ndim == 2 else bin_est.sigma_mk[:m] / eig_x.values[:m]
    if bin_est.sigma_mk.ndim == 1:
        values = eig_x.functions[:, :m] @ scaled
        return GridFunction(eig_x.grid, values)
    eig_y = bin_est.eig_y
    if k is None or k < 1 or k > eig_y.n_components or k > bin_est.sigma_mk.shape[1]:
        avail = eig_y.n_components if eig_y is not None else 0
        raise TruncationTooLarge(
            f"bin at z={bin_est.center:g} has {avail} response component(s); "
            f"cannot truncate at K={k}")
    values = eig_x.functions[:, :m] @ scaled[:, :k] @ eig_y.functions[:, :k].T
    return GridSurface(eig_x.grid, eig_y.grid, values)


def refine(model: FittedModel, z: float):
    """Final estimators at covariate level z.

    Returns (mean_x, mean_y, beta): pointwise weighted combinations of the
    per-bin raw estimates, sharing one weight vector across all grid points.

    The weights are local linear over the bin centers, widened where no
    center carries weight (``smoothing.local_linear_weights``, which
    bandwidth selection scores too).

    Cost: one local linear weight row over the P bin centers, then one
    matrix-vector product per estimator against the model's bin stacks
    (O(P G T) for the slope surface), with no per-bin Python work.
    """
    lo, hi = model.z_domain
    if not (lo <= z <= hi):
        raise CovariateOutOfDomain(f"z={z:g} outside covariate domain [{lo:g}, {hi:g}]")
    if model.raw_beta_stack is None:
        missing = next(b for b in model.bins if b.raw_beta is None)
        raise ModelFormatError(
            f"bin at z={missing.center:g} has no raw slope; the model cannot be refined")
    w = local_linear_weights(model.partition.centers, z, model.refine_bandwidth, model.kernel)
    stack = model.raw_beta_stack
    beta = (w @ stack.reshape(stack.shape[0], -1)).reshape(stack.shape[1:])
    mean_x = GridFunction(model.s_grid, w @ model.mean_x_stack)
    if model.scalar_response:
        return mean_x, float(w @ model.mean_y_stack), GridFunction(model.s_grid, beta)
    return (mean_x, GridFunction(model.t_grid, w @ model.mean_y_stack),
            GridSurface(model.s_grid, model.t_grid, beta))


def _usable_subjects(ds: LongitudinalDataset) -> LongitudinalDataset:
    """Drop subjects that cannot enter the fit (fewer than two predictor
    observations, or no response information); EmptyBin when none is left."""
    keep = []
    dropped = []
    for sub in ds.subjects:
        ok = sub.n_x >= 2 and sub.n_y >= 1
        (keep if ok else dropped).append(sub)
    if not dropped:
        return ds   # already validated; a copy would check every subject again
    if not keep:
        raise EmptyBin(
            f"all {len(dropped)} subject(s) lack 2 or more predictor observations "
            f"or a response (e.g. {dropped[0].id})")
    warnings.warn(
        f"excluding {len(dropped)} subject(s) with fewer than 2 predictor "
        f"observations or no response (e.g. {dropped[0].id})")
    return LongitudinalDataset(keep, ds.s_domain, ds.t_domain, ds.z_domain,
                               scalar_response=ds.scalar_response)


def _resolve_bandwidths(streams, cfg: FitConfig, s_grid: Grid, t_grid: Grid | None):
    """One bin's smoother bandwidths, its mean curves and its streams
    centered by them: ``(BinBandwidths, (mean_x, mean_y), (x, y))``, from
    its predictor and response ``streams`` as ``fpca._observations`` gathers
    them. A scalar response's mean is the average response.

    Bandwidths: overrides win, then CV, then defaults. Surfaces get
    (b1, b2) pairs, and an override of one number for one means that
    bandwidth on both axes. Only the mean smoothers (and, with
    ``cv_surfaces``, the 2D surfaces) are cross-validated; the diagonal
    smoothers and the scalar cross curve keep their default scale. A CV
    smoother falls back to its default when the bin has too few subjects for
    two folds or when every CV candidate lacks local data; any other CV
    error propagates. Mean CV reads the streams as gathered; the mean
    curves are then fitted once, and surface CV, ``fit_bin`` and truncation
    selection all read the streams they center.
    """
    scalar = t_grid is None
    kernel = cfg.kernel1d()
    s_len = s_grid.length
    t_len = t_grid.length if t_grid is not None else None
    (_, _, sizes_x), (_, _, sizes_y) = streams
    n_x, n_y = int(sizes_x.sum()), int(sizes_y.sum())
    pairs_x = int(sizes_x @ (sizes_x - 1))
    pairs_y = int(sizes_y @ (sizes_y - 1))
    n_cross = int(sizes_x @ sizes_y)
    folds = min(cfg.cv_folds, sizes_x.size)

    def fixed_1d(key: str, length: float, n: int) -> float:
        if key in cfg.bandwidths:
            return float(cfg.bandwidths[key])
        return default_bandwidth(length, n)

    def mean_1d(key: str, length: float, n: int) -> float:
        h0 = fixed_1d(key, length, n)
        if key in cfg.bandwidths or cfg.bandwidth_policy != "cv" or folds < 2:
            return h0
        cands = tuple(h0 * f for f in cfg.cv_factors)
        try:
            return selection.cv_smoother_bandwidth(
                streams, key, folds, cands, s_grid, t_grid, kernel=kernel)
        except InsufficientLocalData:
            return h0

    mean_x = mean_1d("mean_x", s_len, n_x)
    mean_y = None if scalar else mean_1d("mean_y", t_len, n_y)
    diag_x = fixed_1d("diag_x", s_len, n_x)
    diag_y = None if scalar else fixed_1d("diag_y", t_len, n_y)

    x, y = streams
    means = (fpca.estimate_mean(x[0], x[1], LocalFitConfig(mean_x, kernel), s_grid),
             float(np.mean(y[1])) if scalar
             else fpca.estimate_mean(y[0], y[1], LocalFitConfig(mean_y, kernel), t_grid))
    centered = (fpca._minus(x, means[0]), fpca._minus(y, means[1]))

    def surface_2d(key: str, length1: float, length2: float, n: int):
        if key in cfg.bandwidths:
            bw = cfg.bandwidths[key]
            return tuple(float(b) for b in bw) if isinstance(bw, (tuple, list)) \
                else (float(bw), float(bw))
        h1, h2 = default_bandwidth(length1, n), default_bandwidth(length2, n)
        if not cfg.cv_surfaces or folds < 2:
            return (h1, h2)
        cands = tuple((h1 * f, h2 * f) for f in cfg.cv_factors)
        try:
            return selection.cv_smoother_bandwidth(
                centered, key, folds, cands, s_grid, t_grid, kernel=kernel)
        except InsufficientLocalData:
            return (h1, h2)

    bandwidths = BinBandwidths(
        mean_x=mean_x, mean_y=mean_y,
        cov_x=surface_2d("cov_x", s_len, s_len, pairs_x),
        cov_y=None if scalar else surface_2d("cov_y", t_len, t_len, pairs_y),
        diag_x=diag_x, diag_y=diag_y,
        cross=fixed_1d("cross", s_len, n_cross) if scalar
        else surface_2d("cross", s_len, t_len, n_cross),
    )
    return bandwidths, means, centered


def fit(ds: LongitudinalDataset, config: FitConfig | None = None) -> FittedModel:
    """Fit the varying-coefficient functional linear regression.

    Bin the subjects by covariate, compute raw per-bin estimates, average the
    per-bin error variances, resolve the truncation orders and the refinement
    bandwidth (by pseudo-AIC/BIC when not fixed in the config), and attach
    the truncated raw slope to every bin. Without a fixed bin count, each
    candidate count is fitted once with its refinement bandwidth selected
    (counts that violate bin occupancy are skipped with a warning), and the
    fit that ``selection.select_binwidth`` scores best is returned as fitted.
    """
    cfg = config if config is not None else FitConfig()
    if ds.scalar_response and isinstance(cfg.bandwidths.get("cross"), (tuple, list)):
        raise ModelFormatError(
            f"bandwidth cross must be a single number for a scalar response, whose "
            f"cross-covariance is a curve; got {cfg.bandwidths['cross']!r}")
    if not ds.scalar_response and cfg.truncation is not None and cfg.truncation[1] is None:
        raise ModelFormatError(
            f"truncation {cfg.truncation!r} needs a number K of response components "
            f"for a functional response")
    ds = _usable_subjects(ds)
    kernel = cfg.kernel1d()

    if cfg.n_bins is None:
        models = []
        for p in sorted(set(int(p) for p in cfg.bin_candidates)):
            try:
                models.append(fit(ds, replace(cfg, n_bins=p, refine_bandwidth=None)))
            except EmptyBin:
                warnings.warn(f"skipping bin-count candidate P={p}: occupancy violated")
        if not models:
            raise EmptyBin("no bin-count candidate satisfies the occupancy minimum")
        model, p_table = selection.select_binwidth(models, cfg.binwidth_criterion, ds.n)
        model.selection.tables["P"] = p_table
        return model

    part = make_partition(ds, cfg.n_bins, min_count=cfg.min_bin_count)

    s_grid = make_grid(*ds.s_domain, cfg.grid_size)
    t_grid = None if ds.scalar_response else make_grid(*ds.t_domain, cfg.grid_size)

    if cfg.truncation is not None:
        max_m = cfg.truncation[0]
        max_k = cfg.truncation[1] or 1
    else:
        max_m = max_k = max(cfg.truncation_candidates)

    # each bin's streams are gathered once, and centered once by its means
    bins, centered = [], []
    for p in range(part.n_bins):
        subjects = [ds.subjects[i] for i in part.index_sets[p]]
        bw, means, streams = _resolve_bandwidths(
            (fpca._observations(subjects, "x"),
             fpca._observations(subjects, "y", not ds.scalar_response)), cfg, s_grid, t_grid)
        bins.append(fit_bin(means, streams, part.centers[p], s_grid, t_grid, bw, kernel,
                            max_m, max_k, eigen_floor=cfg.eigen_floor))
        centered.append(streams)

    sigma2_x = float(np.mean([b.sigma2_x for b in bins]))
    sigma2_y = None if ds.scalar_response else float(np.mean([b.sigma2_y for b in bins]))

    report = selection.SelectionReport(criterion=cfg.criterion, chosen={}, tables={})

    if cfg.truncation is not None:
        m, k = cfg.truncation
    else:
        m, k, tables = selection.select_truncation(
            bins, centered, cfg.truncation_candidates, cfg.criterion, n_total=ds.n)
        report.tables.update(tables)
    if ds.scalar_response:
        k = None
    report.chosen.update({"M": m, "K": k})

    for b in bins:
        b.raw_beta = raw_beta(b, m, k)

    model = FittedModel(
        s_grid=s_grid, t_grid=t_grid, s_domain=ds.s_domain, t_domain=ds.t_domain,
        z_domain=ds.z_domain, partition=part, bins=bins, truncation=(m, k),
        refine_bandwidth=float("nan"),
        kernel=kernel, sigma2_x=sigma2_x, sigma2_y=sigma2_y,
        scalar_response=ds.scalar_response, selection=report,
    )

    if cfg.refine_bandwidth is not None:
        model.refine_bandwidth = float(cfg.refine_bandwidth)
    else:
        cands = cfg.refine_candidates
        if cands is None:
            z_len = ds.z_domain[1] - ds.z_domain[0]
            lo = part.width / 2.0
            hi = z_len / 2.0
            cands = tuple(np.geomspace(lo, hi, 8)) if lo < hi else (hi,)
        b_star, b_table, resid = selection.select_bandwidth(model, ds, cands, cfg.criterion)
        model.refine_bandwidth = b_star
        report.tables["b"] = b_table
        report.refined_residual = resid
    report.chosen["b"] = model.refine_bandwidth
    report.chosen["P"] = part.n_bins
    return model


def fit_global(ds: LongitudinalDataset, config: FitConfig | None = None) -> FittedModel:
    """Global (non-varying) baseline: a single bin covering all of Z."""
    cfg = config if config is not None else FitConfig()
    return fit(ds, replace(cfg, n_bins=1))


def predict(model: FittedModel, x_obs, z_star: float) -> Prediction:
    """Predicted conditional response trajectory for a new subject.

    Dense predictor observations (``Grid.covered_by``: maximum gap, including
    to the domain ends, at most twice the grid spacing) are interpolated onto
    the grid; sparse ones are reconstructed from BLUP scores against the
    nearest bin's (``BinPartition.nearest_bin``) eigensystem around the
    refined mean. Bandwidth selection scores this same rule
    (``selection._RefinementResiduals``). The centered reconstruction is then
    pushed through the refined slope surface by quadrature. No predictor
    observations, observations with a non-finite time or value, or a time
    outside the model's s domain raise DomainViolation.

    Cost: one ``refine`` plus, on the sparse path, one K x K solve for
    the n observations (K the nearest bin's retained components);
    everything else is a handful of O(n + G T) array operations.
    """
    lo, hi = model.z_domain
    if not (lo <= z_star <= hi):
        raise CovariateOutOfDomain(f"z*={z_star:g} outside covariate domain [{lo:g}, {hi:g}]")
    pts = np.asarray(x_obs, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise DomainViolation("prediction needs at least one predictor observation")
    if not np.isfinite(pts).all():
        raise DomainViolation("predictor observations must have finite times and values")
    times, values = pts[np.argsort(pts[:, 0], kind="stable")].T
    s_lo, s_hi = model.s_domain
    if not (s_lo <= times[0] and times[-1] <= s_hi):
        raise DomainViolation(
            f"predictor times span [{times[0]:g}, {times[-1]:g}], outside the s domain "
            f"[{s_lo:g}, {s_hi:g}]")

    mean_x, mean_y, beta = refine(model, z_star)

    m = model.truncation[0]
    if model.s_grid.covered_by(times):
        centered = np.interp(model.s_grid.points, times, values) - mean_x.values
        mode = "dense"
    else:
        p_star = model.partition.nearest_bin(z_star)
        near = model.bins[p_star]
        scores = blup_scores(times, values, mean_x.at(times), near.eig_x, near.sigma2_x, m)
        centered = near.eig_x.functions[:, :m] @ scores
        mode = "sparse"

    integ = model.s_grid.weights * centered
    if model.scalar_response:
        y_hat = float(mean_y + integ @ beta.values)
        return Prediction(y_hat, float(z_star), mode)
    y_vals = mean_y.values + beta.values.T @ integ
    return Prediction(GridFunction(model.t_grid, y_vals), float(z_star), mode)
