"""Turn cumulative case-report series into daily new-case snapshots and
day-by-day source rankings.

Real-world cumulative counts are messy: days can be missing (carried
forward) and counts are occasionally revised downward (clamped to zero new
cases, with a warning). The bundled SARS-era inputs are documented
reconstructions, not measured flight data; see data/README.md.
"""
from __future__ import annotations

import csv
import datetime as dt
import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .network import Network, hop_distances
from .profiler import DecayProfile, DecaySpec, LikelinessResult
from .simulator import Dataset, ObservableKind

log = logging.getLogger(__name__)

SARS_ADJACENCY_FILE = "sars_aviation_adjacency.csv"
SARS_CASES_FILE = "sars_who_cumulative.csv"


def bundled_data_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(str(resources.files("epiprofiler.data").joinpath(name)))


@dataclass(frozen=True, eq=False)
class CaseReportSeries:
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
        cum = cum.copy()
        cum.setflags(write=False)
        object.__setattr__(self, "cumulative", cum)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "regions", tuple(self.regions))


def load_case_series(path) -> CaseReportSeries:
    """Parse a case-report CSV with columns date, region, cumulative_cases.

    Rows may arrive in any order; duplicates of the same (date, region) pair,
    malformed dates, and negative counts are load errors naming the line.
    """
    path = Path(path)
    entries: dict[tuple[dt.date, str], int] = {}
    first_seen: dict[tuple[dt.date, str], int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["date", "region", "cumulative_cases"]:
            raise ValueError(
                f"{path}: expected header 'date,region,cumulative_cases', got {header!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: line {line_no}: expected 3 columns, got {len(row)}")
            date_text, region, count_text = (c.strip() for c in row)
            try:
                date = dt.date.fromisoformat(date_text)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: bad date {date_text!r}") from exc
            if not region:
                raise ValueError(f"{path}: line {line_no}: empty region")
            try:
                count = int(count_text)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: bad count {count_text!r}") from exc
            if count < 0:
                raise ValueError(f"{path}: line {line_no}: negative count {count}")
            key = (date, region)
            if key in entries:
                raise ValueError(
                    f"{path}: line {line_no}: duplicate entry for ({date_text}, {region}), "
                    f"first seen at line {first_seen[key]}"
                )
            entries[key] = count
            first_seen[key] = line_no
    if not entries:
        raise ValueError(f"{path}: no data rows")
    dates = tuple(sorted({d for d, _ in entries}))
    regions = tuple(sorted({r for _, r in entries}))
    cum = np.full((len(dates), len(regions)), np.nan)
    date_idx = {d: i for i, d in enumerate(dates)}
    region_idx = {r: j for j, r in enumerate(regions)}
    for (date, region), count in entries.items():
        cum[date_idx[date], region_idx[region]] = count
    return CaseReportSeries(regions, dates, cum)


def filter_regions(
    series: CaseReportSeries, min_cases: int = 5, window_days: int = 31
) -> CaseReportSeries:
    """Keep regions whose reported cumulative count reaches min_cases within
    window_days of the first observation."""
    if window_days < 0:
        raise ValueError(f"window_days must be >= 0, got {window_days!r}")
    first = series.dates[0]
    window_end = first + dt.timedelta(days=window_days)
    if window_end > series.dates[-1]:
        raise ValueError(
            f"window ends {window_end}, beyond the last observation {series.dates[-1]}"
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
    ``labels`` is given the vectors are aligned to that node order; the region
    set must then match exactly. Each dataset's t_obs is the day offset of the
    interval start from the first observation.
    """
    if labels is not None:
        labels = list(labels)
        if sorted(labels) != sorted(series.regions):
            missing = sorted(set(labels) - set(series.regions))
            extra = sorted(set(series.regions) - set(labels))
            raise ValueError(
                f"region set does not match network labels "
                f"(missing from series: {missing}, not in network: {extra})"
            )
        order = [series.regions.index(lab) for lab in labels]
    else:
        order = list(range(len(series.regions)))
    filled = _filled_cumulative(series)
    datasets = []
    first = series.dates[0]
    for i in range(len(series.dates) - 1):
        diff = filled[i + 1] - filled[i]
        drops = np.flatnonzero(diff < 0)
        for j in drops:
            log.warning(
                "cumulative count for %s fell from %g to %g between %s and %s; "
                "clamping new cases to 0",
                series.regions[j], filled[i, j], filled[i + 1, j],
                series.dates[i], series.dates[i + 1],
            )
        values = np.maximum(diff, 0.0)[order]
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
    """Score every day's snapshot against the network, all days in one batch
    against one decay profile. Degenerate (all-zero) days are kept, flagged, and
    carry the identity ranking."""
    if dates is not None and len(dates) != len(datasets):
        raise ValueError(f"got {len(dates)} dates for {len(datasets)} datasets")
    for idx, data in enumerate(datasets):
        if data.n != net.n:
            raise ValueError(
                f"dataset {idx} has {data.n} regions but the network has {net.n} nodes"
            )
    values = np.stack([data.values for data in datasets]) if datasets else np.empty((0, net.n))
    scores, degenerate = DecayProfile.build(hop_distances(net), spec).score_batch(values)
    entries = []
    for idx, data in enumerate(datasets):
        result = LikelinessResult.from_scores(scores[idx], degenerate[idx])
        day_index = int(data.t_obs) if data.t_obs is not None else idx
        entries.append(TimelineEntry(day_index, dates[idx] if dates is not None else None, result))
    return RankingTimeline(net.labels, tuple(entries))


def write_timeline_csv(timeline: RankingTimeline, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day_index", "date", "rank", "region", "score", "degenerate_flag"])
        for entry in timeline.entries:
            flag = "true" if entry.result.degenerate else "false"
            date_text = entry.date.isoformat() if entry.date is not None else ""
            for pos, node in enumerate(entry.result.ranking, start=1):
                writer.writerow(
                    [
                        entry.day_index,
                        date_text,
                        pos,
                        timeline.labels[node],
                        repr(float(entry.result.scores[node])),
                        flag,
                    ]
                )
