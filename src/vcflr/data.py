"""Longitudinal dataset representation, CSV ingestion and covariate binning.

The on-disk format is a flat CSV with header ``subject_id,z,stream,time,value``
where ``stream`` is X or Y. Scalar-response datasets leave the time field of Y
rows empty. Domains are not stored in the file; callers supply them (the CLI
reads them from its config document).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainViolation, EmptyBin, ParseError


@dataclass
class Subject:
    """One subject: scalar covariate plus irregular observations per stream.

    ``y_times``/``y_values`` hold the response stream; in scalar-response mode
    ``y_times`` is None and ``y_values`` has exactly one entry.
    """

    id: str
    z: float
    x_times: np.ndarray
    x_values: np.ndarray
    y_times: np.ndarray | None
    y_values: np.ndarray

    def __post_init__(self):
        self.x_times = np.asarray(self.x_times, dtype=float)
        self.x_values = np.asarray(self.x_values, dtype=float)
        self.y_values = np.asarray(self.y_values, dtype=float)
        if self.y_times is not None:
            self.y_times = np.asarray(self.y_times, dtype=float)
        order = np.argsort(self.x_times, kind="stable")
        self.x_times = self.x_times[order]
        self.x_values = self.x_values[order]
        if self.y_times is not None:
            order = np.argsort(self.y_times, kind="stable")
            self.y_times = self.y_times[order]
            self.y_values = self.y_values[order]

    @property
    def n_x(self) -> int:
        return self.x_times.size

    @property
    def n_y(self) -> int:
        return self.y_values.size

    @property
    def y_scalar(self) -> float:
        if self.y_times is not None:
            raise ValueError(f"subject {self.id} carries a functional response")
        return float(self.y_values[0])


@dataclass
class LongitudinalDataset:
    """Immutable collection of subjects with declared domains."""

    subjects: list[Subject]
    s_domain: tuple[float, float]
    t_domain: tuple[float, float] | None
    z_domain: tuple[float, float]
    scalar_response: bool = False

    def __post_init__(self):
        if self.scalar_response != (self.t_domain is None):
            raise ValueError("scalar_response must match t_domain is None")
        if self.z_domain[1] <= self.z_domain[0]:
            raise DomainViolation("z domain must have positive length")
        for sub in self.subjects:
            self._check_subject(sub)

    def _check_subject(self, sub: Subject) -> None:
        lo, hi = self.z_domain
        if not (lo <= sub.z <= hi):
            raise DomainViolation(f"subject {sub.id}: z={sub.z} outside [{lo}, {hi}]")
        slo, shi = self.s_domain
        if sub.n_x and (sub.x_times.min() < slo or sub.x_times.max() > shi):
            raise DomainViolation(f"subject {sub.id}: X time outside [{slo}, {shi}]")
        if self.scalar_response:
            if sub.y_times is not None or sub.y_values.size != 1:
                raise DomainViolation(f"subject {sub.id}: expected a single scalar response")
        else:
            if sub.y_times is None:
                raise DomainViolation(f"subject {sub.id}: expected a functional response")
            tlo, thi = self.t_domain
            if sub.n_y and (sub.y_times.min() < tlo or sub.y_times.max() > thi):
                raise DomainViolation(f"subject {sub.id}: Y time outside [{tlo}, {thi}]")

    @property
    def n(self) -> int:
        return len(self.subjects)

    def z_values(self) -> np.ndarray:
        return np.array([s.z for s in self.subjects])


@dataclass
class BinPartition:
    """Equal-width (or caller-supplied) bins over the covariate domain."""

    centers: np.ndarray
    width: float
    index_sets: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)

    @property
    def n_bins(self) -> int:
        return self.centers.size

    @property
    def counts(self) -> np.ndarray:
        return np.array([idx.size for idx in self.index_sets])

    def nearest_bin(self, z):
        """Index of the center nearest z (the lower one on a tie); an array
        of them for an array of z."""
        return np.abs(self.centers - np.asarray(z)[..., None]).argmin(axis=-1)


def load_csv(path, s_domain: tuple[float, float], z_domain: tuple[float, float],
             t_domain: tuple[float, float] | None = None,
             scalar_response: bool = False) -> LongitudinalDataset:
    """Read a dataset from CSV, grouping rows by subject id.

    Raises ParseError with the offending 1-based line number on malformed
    rows and DomainViolation when observations escape the declared domains.
    """
    per_subject: dict[str, dict] = {}
    order: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if [c.strip() for c in header] != ["subject_id", "z", "stream", "time", "value"]:
            raise ParseError(f"{path}: line 1: expected header subject_id,z,stream,time,value")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise ParseError(f"{path}: line {lineno}: expected 5 fields, got {len(row)}")
            sid, z_str, stream, time_str, value_str = (c.strip() for c in row)
            if stream not in ("X", "Y"):
                raise ParseError(f"{path}: line {lineno}: unknown stream {stream!r}")
            try:
                z = float(z_str)
                value = float(value_str)
                time = None if time_str == "" else float(time_str)
            except ValueError as err:
                raise ParseError(f"{path}: line {lineno}: {err}") from None
            if stream == "X" and time is None:
                raise ParseError(f"{path}: line {lineno}: X rows need a time")
            if stream == "Y" and time is None and not scalar_response:
                raise ParseError(
                    f"{path}: line {lineno}: empty Y time only allowed for scalar responses"
                )
            if stream == "Y" and time is not None and scalar_response:
                raise ParseError(
                    f"{path}: line {lineno}: scalar-response Y rows must leave time empty"
                )
            rec = per_subject.get(sid)
            if rec is None:
                rec = {"z": z, "x": [], "y": []}
                per_subject[sid] = rec
                order.append(sid)
            elif rec["z"] != z:
                raise ParseError(f"{path}: line {lineno}: subject {sid} has conflicting z values")
            rec["x" if stream == "X" else "y"].append((time, value))

    subjects = []
    for sid in order:
        rec = per_subject[sid]
        x = np.array(rec["x"], dtype=float).reshape(-1, 2)
        if scalar_response:
            if len(rec["y"]) != 1:
                raise ParseError(f"{path}: subject {sid}: expected exactly one scalar Y row")
            subjects.append(Subject(sid, rec["z"], x[:, 0], x[:, 1], None,
                                    np.array([rec["y"][0][1]])))
        else:
            y = np.array(rec["y"], dtype=float).reshape(-1, 2)
            subjects.append(Subject(sid, rec["z"], x[:, 0], x[:, 1], y[:, 0], y[:, 1]))
    return LongitudinalDataset(subjects, s_domain, t_domain, z_domain,
                               scalar_response=scalar_response)


def save_csv(ds: LongitudinalDataset, path) -> None:
    """Write a dataset in the flat CSV schema (inverse of load_csv)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "z", "stream", "time", "value"])
        for sub in ds.subjects:
            for t, u in zip(sub.x_times, sub.x_values):
                writer.writerow([sub.id, repr(sub.z), "X", repr(float(t)), repr(float(u))])
            if ds.scalar_response:
                writer.writerow([sub.id, repr(sub.z), "Y", "", repr(float(sub.y_values[0]))])
            else:
                for t, v in zip(sub.y_times, sub.y_values):
                    writer.writerow([sub.id, repr(sub.z), "Y", repr(float(t)), repr(float(v))])


def partition(ds: LongitudinalDataset, n_bins: int, min_count: int = 5) -> BinPartition:
    """Partition subjects into equal-width covariate bins.

    Bin p covers [z_lo + (p-1)h, z_lo + ph) with h = |Z| / n_bins; the last
    bin is closed on the right so z = sup Z lands in bin n_bins.
    """
    if n_bins < 1:
        raise ValueError("need at least one bin")
    lo, hi = ds.z_domain
    h = (hi - lo) / n_bins
    centers = lo + (np.arange(n_bins) + 0.5) * h
    z = ds.z_values()
    idx = np.floor((z - lo) / h).astype(int)
    idx = np.clip(idx, 0, n_bins - 1)
    index_sets = [np.flatnonzero(idx == p) for p in range(n_bins)]
    part = BinPartition(centers, h, index_sets)
    _check_occupancy(part, min_count)
    return part


def _check_occupancy(part: BinPartition, min_count: int) -> None:
    counts = part.counts
    if np.any(counts < min_count):
        p = int(np.argmax(counts < min_count))
        raise EmptyBin(
            f"bin {p} (center {part.centers[p]:g}) holds {counts[p]} subject(s), "
            f"fewer than the required {min_count}; reduce the bin count",
            bin_index=p,
        )
