"""Equidistribution, coset and unsmoothing experiments over (x, y, q) grids.

Every run produces deterministic, sorted records; the CSV/JSON writers are
byte-stable so repeated runs of one config compare equal.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from math import gcd
from os import PathLike
from pathlib import Path

import numpy as np

from .dirichlet import MAX_MODULUS
from .errors import ExportError
from .saddle import saddle_alpha
from .smooth_core import SmoothCountQuery, smooth_values

# Coset mode's subgroup H is the squares in (Z/qZ)*.
COSET_POWER = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Grids and constants for one experiment run."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    qs: tuple[int, ...]
    epsilons: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.5, 1.0)
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self) -> None:
        if not self.xs or not self.ys or not self.qs:
            raise ValueError("xs, ys, qs must be nonempty")
        if not all(isinstance(v, numbers.Real) for v in (*self.xs, *self.ys, *self.epsilons)):
            raise ValueError("xs, ys and epsilons must hold numbers")
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in self.qs):
            raise ValueError("qs must be integers")
        if min(self.qs) < 2:
            raise ValueError("every modulus must be >= 2")
        if max(self.qs) > MAX_MODULUS:
            raise ValueError(f"modulus {max(self.qs)} exceeds the table bound {MAX_MODULUS}")
        if not all(math.isfinite(x) for x in self.xs):
            raise ValueError("every threshold x must be finite")
        if not all(2 <= y < math.inf for y in self.ys):
            raise ValueError("every smoothness bound y must be finite and >= 2")
        if max(self.ys) > min(self.xs):
            raise ValueError("every grid point must satisfy y <= x")
        if any(not 0 <= e <= 1 for e in self.epsilons):
            raise ValueError("epsilons must lie in [0, 1]")
        if self.output_path is not None and not isinstance(self.output_path, (str, PathLike)):
            raise ValueError("output_path must be a path")
        if self.output_format not in ("csv", "json"):
            raise ValueError("output_format must be 'csv' or 'json'")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config {path}: {exc.strerror or exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("a config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key in ("xs", "ys", "qs", "epsilons"):
            if key in raw:
                if not isinstance(raw[key], list):
                    raise ValueError(f"config field {key} must be a list")
                raw[key] = tuple(raw[key])
        return cls(**raw)


@dataclass(frozen=True)
class ResultRecord:
    x: float
    y: float
    q: int
    a: int | str
    count: float
    expected: float
    discrepancy: float
    u: float
    v: float
    w: float
    alpha: float


CSV_COLUMNS = tuple(f.name for f in fields(ResultRecord))


@dataclass(frozen=True)
class UnsmoothingRecord:
    x: float
    y: float
    q: int
    epsilon: float
    ratio: float


def _class_grid(config: ExperimentConfig):
    """Per grid point: q, the class counts indexed by residue, the total (>= 1,
    since n = 1 is always counted), the units mod q, and a ResultRecord builder
    carrying the point, the equidistributed share and the saddle frame."""
    for x, y, q in itertools.product(config.xs, config.ys, config.qs):
        values = smooth_values(x, y, q)
        units = [a for a in range(q) if gcd(a, q) == 1]
        sp = saddle_alpha(x, y)
        v = math.log(x) / math.log(q)
        record = partial(
            ResultRecord, x=x, y=y, q=q, expected=values.size / len(units),
            u=sp.u, v=v, w=min(v, y), alpha=sp.alpha,
        )
        yield q, np.bincount(values % q, minlength=q).tolist(), values.size, units, record


def run_equidistribution(config: ExperimentConfig) -> list[ResultRecord]:
    """One record per (x, y, q, a) with a coprime to q.

    count is the exact class count, expected the equidistributed share, and
    discrepancy the relative deviation |count * phi(q) / total - 1|.
    """
    records = []
    for _, counts, total, units, record in _class_grid(config):
        phi = len(units)
        for a in units:
            c = counts[a]
            records.append(record(a=a, count=c, discrepancy=abs(c * phi / total - 1.0)))
    return records


def max_discrepancy(records: list[ResultRecord]) -> dict[tuple[float, float, int], float]:
    """Largest class discrepancy per grid point."""
    out: dict[tuple[float, float, int], float] = {}
    for rec in records:
        key = (rec.x, rec.y, rec.q)
        out[key] = max(out.get(key, 0.0), rec.discrepancy)
    return out


def power_subgroup(q: int, exponent: int) -> list[int]:
    """The subgroup of exponent-th powers in (Z/qZ)*, a surrogate coset structure."""
    if q < 1:
        raise ValueError("modulus q must be >= 1")
    units = [a for a in range(q) if gcd(a, q) == 1]
    return sorted({pow(a, exponent, q) for a in units})


def run_coset(config: ExperimentConfig) -> list[ResultRecord]:
    """Pairwise class-count differences within cosets of H, the subgroup of
    COSET_POWER-th powers, normalized by the equidistributed share.

    count holds the signed difference and the a-field a "repH:a/b" pair label.
    """
    subgroups = {q: power_subgroup(q, COSET_POWER) for q in config.qs}
    records = []
    for q, counts, total, units, record in _class_grid(config):
        phi = len(units)
        seen: set[int] = set()
        for a in units:
            if a in seen:
                continue
            coset = sorted(a * h % q for h in subgroups[q])
            seen.update(coset)
            for a1, a2 in itertools.combinations(coset, 2):
                diff = counts[a1] - counts[a2]
                label = f"{coset[0]}H:{a1}/{a2}"
                records.append(record(a=label, count=diff, discrepancy=abs(diff) * phi / total))
    return records


def _unsmoothing_ratios(x: float, y: float, q: int, epsilons: tuple[float, ...]) -> list[float]:
    """unsmoothing_ratio at every epsilon in [0, 1], from one enumeration up to x."""
    values = np.sort(smooth_values(x, y, q))
    total = values.size
    thresholds = [math.floor((1 - eps) * x) for eps in epsilons]
    kept = np.searchsorted(values, thresholds, side="right").tolist()
    return [(total - k) / total for k in kept]


def unsmoothing_ratio(x: float, y: float, q: int, epsilon: float) -> float:
    """Relative count lost when the threshold shrinks from x to (1 - eps) x.

    Exactly 0 at eps = 0 and exactly 1 once (1 - eps) x < 1.
    """
    if not 0 <= epsilon <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    SmoothCountQuery(x=x, y=y, q=q)  # refuses x < 1, y < 2 and q < 1
    return _unsmoothing_ratios(x, y, q, (epsilon,))[0]


def run_unsmoothing(config: ExperimentConfig) -> list[UnsmoothingRecord]:
    """unsmoothing_ratio over the config grid and epsilon list."""
    return [
        UnsmoothingRecord(x=x, y=y, q=q, epsilon=eps, ratio=ratio)
        for x, y, q in itertools.product(config.xs, config.ys, config.qs)
        for eps, ratio in zip(config.epsilons, _unsmoothing_ratios(x, y, q, config.epsilons))
    ]


def unsmoothing_slopes(
    records: list[UnsmoothingRecord],
) -> dict[tuple[float, float, int], float]:
    """Least-squares slope through the origin of ratio against epsilon."""
    acc: dict[tuple[float, float, int], tuple[float, float]] = {}
    for rec in records:
        key = (rec.x, rec.y, rec.q)
        num, den = acc.get(key, (0.0, 0.0))
        acc[key] = (num + rec.ratio * rec.epsilon, den + rec.epsilon**2)
    return {key: (num / den if den else 0.0) for key, (num, den) in acc.items()}


# -- persistence -----------------------------------------------------------------


def _sort_key(rec: ResultRecord) -> tuple:
    if isinstance(rec.a, str):
        return (rec.x, rec.y, rec.q, 1, 0, rec.a)
    return (rec.x, rec.y, rec.q, 0, rec.a, "")


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.12g}"


@contextmanager
def _export_file(path: str | Path, newline: str | None):
    """The file at path, opened for writing; I/O failures become ExportError."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ExportError(f"cannot write results to {path}: {exc}") from exc


def _write_csv(path: str | Path, header: tuple[str, ...], rows) -> None:
    """Write one header row and the given rows, each cell through _format_cell."""
    with _export_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_format_cell(v) for v in row] for row in rows)


def export_results(records: list[ResultRecord], fmt: str, path: str | Path) -> None:
    """Write records sorted by (x, y, q, a); CSV carries exactly the fixed
    column set at 12 significant digits, JSON mirrors the field names."""
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    ordered = sorted(records, key=_sort_key)
    if fmt == "csv":
        _write_csv(path, CSV_COLUMNS, map(astuple, ordered))
        return
    with _export_file(path, newline=None) as fh:
        json.dump([asdict(rec) for rec in ordered], fh, indent=2, sort_keys=True)
        fh.write("\n")


# How load_results reads each column: a is an int or a label, and every
# column not named here is a float.
_PARSERS = {"q": int, "a": lambda cell: int(cell) if cell.isdigit() else cell}


def load_results(path: str | Path) -> list[ResultRecord]:
    """Parse back a CSV written by export_results."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            ResultRecord(**{col: _PARSERS.get(col, float)(row[col]) for col in CSV_COLUMNS})
            for row in csv.DictReader(fh)
        ]


def export_unsmoothing(records: list[UnsmoothingRecord], path: str | Path) -> None:
    ordered = sorted(records, key=lambda r: (r.x, r.y, r.q, r.epsilon))
    header = tuple(f.name for f in fields(UnsmoothingRecord))
    _write_csv(path, header, map(astuple, ordered))


def export_plot_data(records: list[ResultRecord], path: str | Path) -> None:
    """(v, max discrepancy) pairs per grid point, for external plotting."""
    by_point = max_discrepancy(records)
    frame = {(r.x, r.y, r.q): r.v for r in records}
    rows = sorted((frame[key], dmax) for key, dmax in by_point.items())
    _write_csv(path, ("v", "max_discrepancy"), rows)
