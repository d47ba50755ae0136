"""Varying-coefficient functional linear regression for sparse longitudinal data."""

from .data import (
    BinPartition,
    LongitudinalDataset,
    Subject,
    load_csv,
    partition,
    save_csv,
)
from .errors import VcflrError
from .fpca import (
    BinEstimate,
    EigenSystem,
    blup_scores,
    eigendecompose,
    estimate_mean,
    estimate_sigma2,
    sigma_mk,
    smooth_covariance,
    smooth_cross_covariance,
)
from .grids import Grid, GridFunction, GridSurface, make_grid
from .kernels import Kernel1D, kernel_eval
from .regression import (
    FitConfig,
    FittedModel,
    Prediction,
    fit,
    fit_global,
    predict,
    raw_beta,
    refine,
)
from .selection import (
    SelectionReport,
    cv_smoother_bandwidth,
    select_bandwidth,
    select_binwidth,
    select_truncation,
)
from .serialize import load_model, save_model
from .simulation import REGULAR, SPARSE, SimDesign, SimTruth, generate, mispe
from .smoothing import LocalFitConfig, lp_weights, smoothing_matrix

__version__ = "0.1.0"

__all__ = [
    "BinEstimate", "BinPartition", "EigenSystem", "FitConfig", "FittedModel",
    "Grid", "GridFunction", "GridSurface", "Kernel1D", "LocalFitConfig",
    "LongitudinalDataset", "Prediction", "REGULAR", "SPARSE",
    "SelectionReport", "SimDesign", "SimTruth", "Subject", "VcflrError",
    "blup_scores", "cv_smoother_bandwidth", "eigendecompose",
    "estimate_mean", "estimate_sigma2",
    "fit", "fit_global", "generate", "kernel_eval", "load_csv", "load_model",
    "lp_weights", "make_grid", "mispe", "partition",
    "predict", "raw_beta", "refine", "save_csv",
    "save_model", "select_bandwidth", "select_binwidth", "select_truncation",
    "sigma_mk", "smooth_covariance", "smooth_cross_covariance",
    "smoothing_matrix",
]
