"""Full-day sweep of along-track magnification coefficients at a track site.

For every epoch the visible satellites are projected onto the track
tangent; every pair with opposite-sign along-track cosines yields an
admissible along-track bound, and the best (smallest) magnification is
recorded. Epochs with no admissible pair are kept as explicit gaps.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .constants import SECONDS_PER_WEEK
from .orbits import (GpsTime, PositionSource, SiteLocation, ecef_to_enu, prepare_grid,
                     vector_norm)
from .track import directional_cosines, frenet_frame

# Largest scan: one day at a 1 s step. A scan's columns take 32 B per epoch
# plus one byte per satellite: 64 B with 32 satellites, 5.5 MB at this limit.
MAX_SCAN_EPOCHS = 86_400

SERIES_HEADER = ["week", "sow", "n_visible", "best_m_s", "sat_a", "sat_b"]

# Largest histogram (the default has 20 bins); each bin is one output row.
MAX_HIST_BINS = 100_000


@dataclass(frozen=True)
class ScanConfig:
    site: SiteLocation
    track_azimuth: float  # degrees, clockwise from north
    mask: float
    step: float
    start: GpsTime
    end: GpsTime

    def __post_init__(self):
        if not (math.isfinite(self.track_azimuth) and math.isfinite(self.step)):
            raise ValueError("track azimuth and step must be finite")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not self.start < self.end:
            raise ValueError("start must precede end")
        if (self.end - self.start) / self.step > MAX_SCAN_EPOCHS:
            raise ValueError(f"span / step exceeds {MAX_SCAN_EPOCHS} epochs")
        if not 0 <= self.mask < 90:
            raise ValueError("mask must be in [0, 90) degrees")


class EmptySeriesError(ValueError):
    """Nothing to bound: an input with no usable position, or a series with
    no admissible epoch."""


@dataclass(frozen=True, eq=False)
class ScanSeries:
    """A scan's result as columns, one row per epoch."""

    sat_ids: tuple[str, ...]
    seconds: np.ndarray   # GPS seconds of each epoch
    visible: np.ndarray   # bool [epoch, sat]
    best_m_s: np.ndarray  # NaN on a gap
    pair: np.ndarray      # int [epoch, 2], indices into sat_ids; -1 on a gap

    def __len__(self) -> int:
        return len(self.seconds)

    @property
    def n_visible(self) -> np.ndarray:
        return self.visible.sum(axis=1)


@dataclass(frozen=True)
class Histogram:
    bin_edges: list[float]
    relative_frequency: list[float]
    overflow: float = 0.0


# Epochs scored per array pass: bounds the (epoch, sat, 3) arrays for any
# span and step.
EPOCH_BLOCK = 256


def scan_ms(config: ScanConfig, source: PositionSource) -> ScanSeries:
    """Sweep the epochs start + k * step (before end) over ephemerides or a
    position table.

    A pair (a, b) with opposite-sign cosines f scores
    M_s = 1 / min(|f_a|, |f_b|) = max(r_a, r_b) with r = 1 / |f|, so the best
    value is max(min r over f > 0, min r over f < 0). Of the pairs reaching
    it, the first in sorted-id order is reported.
    """
    start, end = config.start.total_seconds(), config.end.total_seconds()
    with np.errstate(over="ignore"):  # an epoch past the float range is inf, past end
        seconds = start + np.arange(int((end - start) / config.step) + 2) * config.step
    seconds = seconds[seconds < end]  # a prefix, as the epochs increase with k
    best_m_s, pair = np.empty_like(seconds), np.empty((len(seconds), 2), dtype=int)
    sat_ids, grid_of = prepare_grid(source, config.site, config.mask)
    visible = np.empty((len(seconds), len(sat_ids)), dtype=bool)
    frame = frenet_frame(math.radians(config.track_azimuth))
    covered = False
    for first in range(0, len(seconds), EPOCH_BLOCK):
        rows = slice(first, first + EPOCH_BLOCK)
        ecef = grid_of(seconds[rows])
        covered |= not np.isnan(ecef).all()
        enu, elevation = ecef_to_enu(config.site, ecef)
        vis = visible[rows] = elevation >= config.mask
        enu /= vector_norm(enu)[..., None]
        f, _ = directional_cosines(enu, frame)
        pos, neg = vis & (f > 0), vis & (f < 0)
        with np.errstate(divide="ignore"):
            r = 1.0 / np.abs(f)
        best = np.maximum(np.where(pos, r, np.inf).min(axis=1),
                          np.where(neg, r, np.inf).min(axis=1))
        reach = (pos | neg) & (r <= best[:, None])
        sat_a = reach.argmax(axis=1)
        a_pos = pos[np.arange(len(f)), sat_a]
        sat_b = (reach & (pos != a_pos[:, None])).argmax(axis=1)
        gap = np.isinf(best)
        best_m_s[rows] = np.where(gap, np.nan, best)
        pair[rows] = np.where(gap[:, None], -1, np.stack([sat_a, sat_b], axis=1))
    if not covered:
        raise EmptySeriesError("no satellite position in the scan span")
    return ScanSeries(sat_ids, seconds, visible, best_m_s, pair)


def histogram(best_m_s: np.ndarray, bin_width: float = 0.1,
              value_range: tuple[float, float] = (1.0, 3.0)) -> Histogram:
    """Relative-frequency histogram of a best_m_s column (NaN on a gap).

    Frequencies are normalized by the epochs with a value. Bin k holds
    edges[k] <= v < edges[k + 1]; below the range counts in bin 0, at or
    above the top edge in the overflow bin. The bin width must split the
    range into whole bins, up to rounding. Raises EmptySeriesError when
    no epoch has a value.
    """
    lo, hi = value_range
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin width must be finite and positive, got {bin_width}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"range must be finite with low < high, got {lo} {hi}")
    bins = (hi - lo) / bin_width
    if not bins <= MAX_HIST_BINS:
        raise ValueError(f"range / bin width exceeds {MAX_HIST_BINS} bins")
    n_bins = int(round(bins))
    if n_bins < 1:
        raise ValueError("range is narrower than half a bin")
    # allow for rounding: (3 - 1) / 0.1 is 19.999999999999996
    if not math.isclose(bins, n_bins, rel_tol=1e-9):
        raise ValueError(f"bin width {bin_width} does not split the range "
                         "into whole bins")
    values = best_m_s[~np.isnan(best_m_s)]
    if not len(values):
        raise EmptySeriesError("no epochs with an admissible pair")
    edges = [lo + i * bin_width for i in range(n_bins + 1)]
    inside = values[values < edges[-1]]
    idx = np.maximum(np.searchsorted(edges, inside, side="right") - 1, 0)
    total = len(values)
    return Histogram(edges, (np.bincount(idx, minlength=n_bins) / total).tolist(),
                     (total - len(inside)) / total)


# --- serialization ----------------------------------------------------------

def _rows(series: ScanSeries, names: tuple[str, ...]):
    """Series rows, satellites written as `names[index]`, and best_m_s,
    sat_a and sat_b None on a gap."""
    week, sow = np.divmod(series.seconds, SECONDS_PER_WEEK)
    names = (*names, None)  # pair index -1 reads None
    columns = (week.astype(int), sow, series.n_visible, series.best_m_s, series.pair)
    for w, s, n, m, (a, b) in zip(*(column.tolist() for column in columns)):
        yield w, s, n, (None if a < 0 else m), names[a], names[b]


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it among other fields of a series row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, None])
    return buf.getvalue()[:-2]  # the row's end: an empty last field and "\n"


def series_csv(series: ScanSeries) -> str:
    """The series as csv.writer writes its rows, each row one f-string:
    only a satellite id can need quoting, and each is quoted once."""
    names = tuple(map(_csv_field, series.sat_ids))
    lines = [",".join(SERIES_HEADER)]
    lines += [f"{w},{s:.3f},{n},,," if m is None
              else f"{w},{s:.3f},{n},{m:.9f},{a},{b}"
              for w, s, n, m, a, b in _rows(series, names)]
    return "\n".join(lines) + "\n"


def series_json(series: ScanSeries) -> str:
    return json.dumps([dict(zip(SERIES_HEADER, row))
                       for row in _rows(series, series.sat_ids)], indent=2)


def parse_series_csv(text: str) -> np.ndarray:
    """The best_m_s column of a scan series CSV, NaN on a gap; a malformed
    row raises ValueError with its line number."""
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != SERIES_HEADER:
        raise ValueError("not a scan series: the header row does not match")
    values = []
    for row in filter(None, reader):  # blank lines are skipped
        try:
            week, sow, n_visible, best, _, _ = row
            int(week), int(n_visible)  # checked, though only best_m_s is kept
            value = float(best) if best else math.nan
            if not (0 <= float(sow) < SECONDS_PER_WEEK
                    and (math.isfinite(value) or not best)):
                raise ValueError
        except ValueError:
            raise ValueError(f"scan series line {reader.line_num}: malformed row") from None
        values.append(value)
    return np.array(values)


def hist_csv(hist: Histogram) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bin_low", "bin_high", "rel_freq"])
    for lo, hi, f in zip(hist.bin_edges[:-1], hist.bin_edges[1:],
                         hist.relative_frequency):
        writer.writerow([f"{lo:.6f}", f"{hi:.6f}", f"{f:.9f}"])
    writer.writerow([f"{hist.bin_edges[-1]:.6f}", "inf", f"{hist.overflow:.9f}"])
    return buf.getvalue()


def hist_json(hist: Histogram) -> str:
    return json.dumps(asdict(hist), indent=2)
