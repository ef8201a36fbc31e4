"""Turn cumulative case-report series into daily new-case snapshots and
day-by-day source rankings.

Real-world cumulative counts are messy: days can be missing (carried
forward) and counts are occasionally revised downward (clamped to zero new
cases, with a warning). The bundled SARS-era inputs are documented
reconstructions, not measured flight data; see data/README.md.
"""
from __future__ import annotations

import datetime as dt
import logging
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .network import Network, _number, _read_csv, _ReadOnlyArrays, _write_csv
from .profiler import Dataset, DecaySpec, LikelinessResult, ObservableKind, score_batch

log = logging.getLogger(__name__)

SARS_ADJACENCY_FILE = "sars_aviation_adjacency.csv"
SARS_CASES_FILE = "sars_who_cumulative.csv"


def bundled_data_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(str(resources.files("epiprofiler.data").joinpath(name)))


@dataclass(frozen=True, eq=False)
class CaseReportSeries(_ReadOnlyArrays):
    """Cumulative reported cases per (date, region); missing entries are NaN."""

    regions: tuple[str, ...]
    dates: tuple[dt.date, ...]
    cumulative: np.ndarray  # shape (dates, regions), float with NaN for missing

    def __post_init__(self):
        dates = tuple(self.dates)
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValueError("dates must be strictly increasing")
        cum = np.asarray(self.cumulative, dtype=float)
        if cum.shape != (len(dates), len(self.regions)):
            raise ValueError(
                f"cumulative matrix shape {cum.shape} does not match "
                f"{len(dates)} dates x {len(self.regions)} regions"
            )
        if np.any(cum[~np.isnan(cum)] < 0):
            raise ValueError("cumulative counts must be non-negative")
        self._keep("cumulative", cum, self.cumulative)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "regions", tuple(self.regions))


def load_case_series(path) -> CaseReportSeries:
    """Parse a case-report CSV with columns date, region, cumulative_cases.

    Rows may arrive in any order; duplicates of the same (date, region) pair,
    malformed dates, and negative counts or counts beyond float range are
    load errors naming the line.
    """
    entries: dict[tuple[dt.date, str], tuple[int, int]] = {}  # (count, line)
    for line, (date_text, region, count_text) in _read_csv(path, ("date", "region", "cumulative_cases")):
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: bad date {date_text!r}") from exc
        if not region:
            raise ValueError(f"{path}: line {line}: empty region")
        try:
            count = int(count_text)
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: bad count {count_text!r}") from exc
        if count < 0:
            raise ValueError(f"{path}: line {line}: negative count {count}")
        if count > sys.float_info.max:
            raise ValueError(f"{path}: line {line}: count {count} is beyond float range")
        key = (date, region)
        if key in entries:
            raise ValueError(
                f"{path}: line {line}: duplicate entry for ({date_text}, {region}), "
                f"first seen at line {entries[key][1]}"
            )
        entries[key] = count, line
    if not entries:
        raise ValueError(f"{path}: no data rows")
    dates = tuple(sorted({d for d, _ in entries}))
    regions = tuple(sorted({r for _, r in entries}))
    cum = np.full((len(dates), len(regions)), np.nan)
    date_idx = {d: i for i, d in enumerate(dates)}
    region_idx = {r: j for j, r in enumerate(regions)}
    for (date, region), (count, _) in entries.items():
        cum[date_idx[date], region_idx[region]] = count
    return CaseReportSeries(regions, dates, cum)


def filter_regions(
    series: CaseReportSeries, min_cases: int = 5, window_days: int = 31
) -> CaseReportSeries:
    """Keep regions whose reported cumulative count reaches min_cases within
    window_days of the first observation."""
    window_days = _number(window_days, "window_days", 0, integer=True)
    min_cases = _number(min_cases, "min_cases", 0, integer=True)
    first = series.dates[0]
    span = (series.dates[-1] - first).days
    if window_days > span:
        raise ValueError(
            f"window_days {window_days} reaches beyond the last observation {series.dates[-1]}, "
            f"{span} days after the first"
        )
    in_window = np.array([(d - first).days <= window_days for d in series.dates])
    keep = []
    for j, region in enumerate(series.regions):
        column = series.cumulative[in_window, j]
        present = column[~np.isnan(column)]
        if present.size and present.max() >= min_cases:
            keep.append(j)
    return CaseReportSeries(
        tuple(series.regions[j] for j in keep),
        series.dates,
        series.cumulative[:, keep],
    )


def _filled_cumulative(series: CaseReportSeries) -> np.ndarray:
    """Carry the last known cumulative forward over missing entries; counts
    before a region's first report are treated as zero."""
    filled = series.cumulative.copy()
    for j in range(filled.shape[1]):
        last = 0.0
        for i in range(filled.shape[0]):
            if np.isnan(filled[i, j]):
                filled[i, j] = last
            else:
                last = filled[i, j]
    return filled


def daily_deltas(series: CaseReportSeries, labels: Sequence[str] | None = None) -> list[Dataset]:
    """New-case vectors for each consecutive pair of report dates.

    Downward revisions clamp to zero new cases with a logged warning. When
    ``labels`` is given the vectors are aligned to that node order: regions
    of the series that are not among the labels are dropped, with one
    logged warning naming them, and a label missing from the series is an
    error naming it. Each dataset's t_obs is the day offset of the interval
    start from the first observation.
    """
    labels = series.regions if labels is None else list(labels)
    missing = [lab for lab in labels if lab not in series.regions]
    if missing:
        raise ValueError(
            "region set does not match network labels "
            f"(network nodes missing from series: {missing})"
        )
    extra = [region for region in series.regions if region not in labels]
    if extra:
        log.warning("dropping case-series regions the network lacks: %s", ", ".join(extra))
    order = [series.regions.index(lab) for lab in labels]
    filled = _filled_cumulative(series)[:, order]
    datasets = []
    first = series.dates[0]
    for i in range(len(series.dates) - 1):
        diff = filled[i + 1] - filled[i]
        drops = np.flatnonzero(diff < 0)
        for j in drops:
            log.warning(
                "cumulative count for %s fell from %g to %g between %s and %s; "
                "clamping new cases to 0",
                labels[j], filled[i, j], filled[i + 1, j],
                series.dates[i], series.dates[i + 1],
            )
        values = np.maximum(diff, 0.0)
        datasets.append(
            Dataset(values, ObservableKind.NEW_CASES, t_obs=float((series.dates[i] - first).days))
        )
    return datasets


@dataclass(frozen=True)
class TimelineEntry:
    day_index: int
    date: dt.date | None
    result: LikelinessResult


@dataclass(frozen=True)
class RankingTimeline:
    """One likeliness ranking per observation day."""

    labels: tuple[str, ...]
    entries: tuple[TimelineEntry, ...]


def rank_timeline(
    net: Network,
    datasets: Sequence[Dataset],
    spec: DecaySpec,
    dates: Sequence[dt.date] | None = None,
) -> RankingTimeline:
    """Score every day's snapshot against the network, all days in one
    :func:`~epiprofiler.profiler.score_batch` call. Degenerate (all-zero)
    days are kept, flagged, and carry the identity ranking."""
    if dates is not None and len(dates) != len(datasets):
        raise ValueError(f"got {len(dates)} dates for {len(datasets)} datasets")
    for idx, data in enumerate(datasets):
        if data.n != net.n:
            raise ValueError(
                f"dataset {idx} has {data.n} regions but the network has {net.n} nodes"
            )
    values = np.stack([data.values for data in datasets]) if datasets else np.empty((0, net.n))
    scores, degenerate = score_batch(net, spec, values)
    entries = []
    for idx, data in enumerate(datasets):
        result = LikelinessResult(scores[idx], degenerate[idx])
        day_index = int(data.t_obs) if data.t_obs is not None else idx
        entries.append(TimelineEntry(day_index, dates[idx] if dates is not None else None, result))
    return RankingTimeline(net.labels, tuple(entries))


def write_timeline_csv(timeline: RankingTimeline, path) -> None:
    def rows():
        labels = timeline.labels
        for entry in timeline.entries:
            # Per-entry fields, computed once for all the entry's rows.
            date_text = entry.date.isoformat() if entry.date is not None else ""
            flag = "true" if entry.result.degenerate else "false"
            scores = entry.result.scores
            for pos, node in enumerate(entry.result.ranking, start=1):
                yield [entry.day_index, date_text, pos, labels[node], repr(float(scores[node])), flag]

    _write_csv(path, ["day_index", "date", "rank", "region", "score", "degenerate_flag"], rows())
