"""Fitted-model JSON serialization.

One document holds the grids, the partition, every bin's arrays (surfaces
row-major), the refinement configuration, truncation orders, averaged error
variances and the selection report. The refinement is always local linear;
the document still records its order (1), and any other order is rejected.
Floats survive a round trip exactly (json emits shortest-repr doubles),
comfortably inside the 1e-12 contract.
"""

from __future__ import annotations

import json

import numpy as np

from .data import BinPartition
from .errors import GridMismatch, InvalidInterval, ModelFormatError
from .fpca import BinEstimate, EigenSystem
from .grids import Grid, GridFunction, GridSurface, make_grid
from .kernels import Kernel1D
from .regression import FittedModel, _positive
from .selection import SelectionReport

FORMAT_VERSION = 1


def _grid_doc(grid: Grid | None):
    if grid is None:
        return None
    return {"lower": grid.lower, "upper": grid.upper, "n": grid.n}


def _grid_from(doc) -> Grid | None:
    if doc is None:
        return None
    return make_grid(doc["lower"], doc["upper"], doc["n"])


def _eig_doc(eig: EigenSystem | None):
    if eig is None:
        return None
    return {"values": eig.values.tolist(), "functions": eig.functions.tolist()}


def _eig_from(doc, grid: Grid) -> EigenSystem | None:
    if doc is None:
        return None
    return EigenSystem(grid, np.asarray(doc["values"], dtype=float),
                       np.asarray(doc["functions"], dtype=float))


def _bin_doc(b: BinEstimate, scalar: bool):
    return {
        "center": b.center,
        "n_subjects": b.n_subjects,
        "mean_x": b.mean_x.values.tolist(),
        "mean_y": b.mean_y if scalar else b.mean_y.values.tolist(),
        "cov_x": b.cov_x.values.tolist(),
        "cov_y": None if scalar else b.cov_y.values.tolist(),
        "cross": b.cross.values.tolist(),
        "eig_x": _eig_doc(b.eig_x),
        "eig_y": _eig_doc(b.eig_y),
        "sigma_mk": b.sigma_mk.tolist(),
        "sigma2_x": b.sigma2_x,
        "sigma2_y": b.sigma2_y,
        "bandwidths": b.bandwidths,
        "raw_beta": None if b.raw_beta is None else b.raw_beta.values.tolist(),
    }


def _bin_from(doc, s_grid: Grid, t_grid: Grid | None) -> BinEstimate:
    scalar = t_grid is None
    if scalar:
        mean_y = float(doc["mean_y"])
        cov_y = None
        cross = GridFunction(s_grid, np.asarray(doc["cross"], dtype=float))
        raw = doc["raw_beta"]
        raw_beta = None if raw is None else GridFunction(s_grid, np.asarray(raw, dtype=float))
    else:
        mean_y = GridFunction(t_grid, np.asarray(doc["mean_y"], dtype=float))
        cov_y = GridSurface(t_grid, t_grid, np.asarray(doc["cov_y"], dtype=float))
        cross = GridSurface(s_grid, t_grid, np.asarray(doc["cross"], dtype=float))
        raw = doc["raw_beta"]
        raw_beta = None if raw is None else GridSurface(
            s_grid, t_grid, np.asarray(raw, dtype=float))
    return BinEstimate(
        center=float(doc["center"]),
        n_subjects=int(doc["n_subjects"]),
        mean_x=GridFunction(s_grid, np.asarray(doc["mean_x"], dtype=float)),
        mean_y=mean_y,
        cov_x=GridSurface(s_grid, s_grid, np.asarray(doc["cov_x"], dtype=float)),
        cov_y=cov_y,
        cross=cross,
        eig_x=_eig_from(doc["eig_x"], s_grid),
        eig_y=_eig_from(doc["eig_y"], t_grid) if t_grid is not None else None,
        sigma_mk=np.asarray(doc["sigma_mk"], dtype=float),
        sigma2_x=float(doc["sigma2_x"]),
        sigma2_y=None if doc["sigma2_y"] is None else float(doc["sigma2_y"]),
        bandwidths=doc.get("bandwidths", {}),
        raw_beta=raw_beta,
    )


def save_model(model: FittedModel, path) -> None:
    report = model.selection
    doc = {
        "format_version": FORMAT_VERSION,
        "scalar_response": model.scalar_response,
        "domains": {
            "s": list(model.s_domain),
            "t": None if model.t_domain is None else list(model.t_domain),
            "z": list(model.z_domain),
        },
        "s_grid": _grid_doc(model.s_grid),
        "t_grid": _grid_doc(model.t_grid),
        "partition": {
            "centers": model.partition.centers.tolist(),
            "width": model.partition.width,
            "counts": model.partition.counts.tolist(),
        },
        "truncation": list(model.truncation),
        "refine": {
            "order": 1,
            "bandwidth": model.refine_bandwidth,
            "kernel": model.kernel.family,
        },
        "sigma2_x": model.sigma2_x,
        "sigma2_y": model.sigma2_y,
        "bins": [_bin_doc(b, model.scalar_response) for b in model.bins],
        "selection": None if report is None else {
            "criterion": report.criterion,
            "chosen": report.chosen,
            "tables": {k: [[c, s] for c, s in v] for k, v in report.tables.items()},
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> FittedModel:
    """The model saved at ``path``; ModelFormatError for any document that
    does not describe one: not JSON, another format version, a missing or
    ill-typed field, arrays that do not fit their grids, partition and bins
    of unequal lengths, or a refinement bandwidth that is not a finite
    positive number."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ModelFormatError(f"{path}: not valid JSON ({err})") from None
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format-version {version!r} unsupported (expected {FORMAT_VERSION})")
    try:
        s_grid = _grid_from(doc["s_grid"])
        t_grid = _grid_from(doc["t_grid"])
        part_doc = doc["partition"]
        counts = part_doc["counts"]
        partition = BinPartition(
            np.asarray(part_doc["centers"], dtype=float), float(part_doc["width"]),
            [np.empty(c, dtype=int) for c in counts])
        bins = [_bin_from(b, s_grid, t_grid) for b in doc["bins"]]
        lengths = (partition.n_bins, len(counts), len(bins))
        if not bins or len(set(lengths)) > 1:
            raise ModelFormatError(
                f"{path}: {lengths[2]} bin(s) with {lengths[0]} partition center(s) and "
                f"{lengths[1]} count(s); a model needs at least one bin, and one center "
                f"and one count per bin")
        bandwidth = doc["refine"]["bandwidth"]
        if not _positive(bandwidth):
            raise ModelFormatError(
                f"{path}: refinement bandwidth must be a finite positive number, "
                f"got {bandwidth!r}")
        sel = doc.get("selection")
        report = None
        if sel is not None:
            report = SelectionReport(
                criterion=sel["criterion"], chosen=sel["chosen"],
                tables={k: [(c, s) for c, s in v] for k, v in sel["tables"].items()})
        trunc = doc["truncation"]
        order = doc["refine"]["order"]
        if order != 1:
            raise ModelFormatError(
                f"{path}: refinement order {order!r} unsupported (only local linear, 1)")
        return FittedModel(
            s_grid=s_grid, t_grid=t_grid,
            s_domain=tuple(doc["domains"]["s"]),
            t_domain=None if doc["domains"]["t"] is None else tuple(doc["domains"]["t"]),
            z_domain=tuple(doc["domains"]["z"]),
            partition=partition, bins=bins,
            truncation=(int(trunc[0]), None if trunc[1] is None else int(trunc[1])),
            refine_bandwidth=float(bandwidth),
            kernel=Kernel1D(doc["refine"]["kernel"]),
            sigma2_x=float(doc["sigma2_x"]),
            sigma2_y=None if doc["sigma2_y"] is None else float(doc["sigma2_y"]),
            scalar_response=bool(doc["scalar_response"]),
            selection=report,
        )
    except (KeyError, TypeError, ValueError, GridMismatch, InvalidInterval) as err:
        raise ModelFormatError(f"{path}: malformed model document ({err})") from None
