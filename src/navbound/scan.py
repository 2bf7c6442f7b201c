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
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .orbits import (GpsTime, PositionSource, SiteLocation, ecef_to_enu,
                     position_grid)
from .track import frenet_frame

# Largest scan: one day at a 1 s step. A scan holds every epoch's result
# (about 0.5-0.7 kB each) in memory.
MAX_SCAN_EPOCHS = 86_400

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
    """A scan series with no epoch that has an admissible pair."""


@dataclass(frozen=True)
class EpochResult:
    t: GpsTime
    n_visible: int
    visible_ids: tuple[str, ...]
    best_m_s: Optional[float] = None
    best_pair: Optional[tuple[str, str]] = None


@dataclass(frozen=True)
class Histogram:
    bin_edges: list[float]
    relative_frequency: list[float]
    overflow: float = 0.0


# Epochs scored per array pass: bounds the (epoch, sat, 3) arrays for any
# span and step.
EPOCH_BLOCK = 256


def scan_ms(config: ScanConfig, source: PositionSource) -> list[EpochResult]:
    """Sweep the epochs start + k * step (before end) over ephemerides or a
    position table.

    A pair (a, b) with opposite-sign cosines f scores
    M_s = 1 / min(|f_a|, |f_b|) = max(r_a, r_b) with r = 1 / |f|, so the best
    value is max(min r over f > 0, min r over f < 0). Of the pairs reaching
    it, the first in sorted-id order is reported.
    """
    epochs = []
    while (t := config.start.add_seconds(len(epochs) * config.step)) < config.end:
        epochs.append(t)
    tangent = frenet_frame(math.radians(config.track_azimuth), "straight").u
    results, covered = [], False
    for first in range(0, len(epochs), EPOCH_BLOCK):
        block = epochs[first:first + EPOCH_BLOCK]
        sat_ids, ecef = position_grid(source, block)
        covered |= not np.isnan(ecef).all()
        enu, elevation, _ = ecef_to_enu(config.site, ecef)
        visible = elevation >= config.mask
        enu /= np.linalg.norm(enu, axis=-1, keepdims=True)
        f = -(enu @ tangent)
        pos, neg = visible & (f > 0), visible & (f < 0)
        with np.errstate(divide="ignore"):
            r = 1.0 / np.abs(f)
        best = np.maximum(np.where(pos, r, np.inf).min(axis=1),
                          np.where(neg, r, np.inf).min(axis=1))
        reach = (pos | neg) & (r <= best[:, None])
        sat_a = reach.argmax(axis=1)
        a_pos = pos[np.arange(len(block)), sat_a]
        sat_b = (reach & (pos != a_pos[:, None])).argmax(axis=1)
        for k, t in enumerate(block):
            ok = math.isfinite(best[k])
            results.append(EpochResult(
                t=t,
                n_visible=int(visible[k].sum()),
                visible_ids=tuple(compress(sat_ids, visible[k])),
                best_m_s=float(best[k]) if ok else None,
                best_pair=(sat_ids[sat_a[k]], sat_ids[sat_b[k]]) if ok else None,
            ))
    if not covered:
        raise ValueError("no satellite position in the scan span")
    return results


def histogram(results: Sequence[EpochResult], bin_width: float = 0.1,
              value_range: tuple[float, float] = (1.0, 3.0)) -> Histogram:
    """Relative-frequency histogram of present best_m_s values.

    Frequencies are normalized by the number of epochs with a value;
    values above the range fall in the overflow bin. Raises EmptySeriesError
    when no epoch has a value.
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
    values = [r.best_m_s for r in results if r.best_m_s is not None]
    if not values:
        raise EmptySeriesError("no epochs with an admissible pair")
    edges = [lo + i * bin_width for i in range(n_bins + 1)]
    counts = [0] * n_bins
    overflow = 0
    for v in values:
        if v >= edges[-1]:
            overflow += 1
            continue
        idx = int((v - lo) / bin_width)
        counts[max(0, min(idx, n_bins - 1))] += 1
    total = len(values)
    return Histogram(
        bin_edges=edges,
        relative_frequency=[c / total for c in counts],
        overflow=overflow / total,
    )


# --- serialization ----------------------------------------------------------

def series_csv(results: Sequence[EpochResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["week", "sow", "n_visible", "best_m_s", "sat_a", "sat_b"])
    for r in results:
        value = (["", "", ""] if r.best_m_s is None
                 else [f"{r.best_m_s:.9f}", *r.best_pair])
        writer.writerow([r.t.week, f"{r.t.seconds_of_week:.3f}", r.n_visible, *value])
    return buf.getvalue()


def series_json(results: Sequence[EpochResult]) -> str:
    return json.dumps([
        {
            "week": r.t.week,
            "sow": r.t.seconds_of_week,
            "n_visible": r.n_visible,
            "best_m_s": r.best_m_s,
            "sat_a": r.best_pair[0] if r.best_pair else None,
            "sat_b": r.best_pair[1] if r.best_pair else None,
        }
        for r in results
    ], indent=2)


def parse_series_csv(text: str) -> list[EpochResult]:
    reader = csv.DictReader(io.StringIO(text))
    out = []
    for row in reader:
        has_value = row["best_m_s"] not in ("", None)
        out.append(EpochResult(
            t=GpsTime(int(row["week"]), float(row["sow"])),
            n_visible=int(row["n_visible"]),
            visible_ids=(),
            best_m_s=float(row["best_m_s"]) if has_value else None,
            best_pair=(row["sat_a"], row["sat_b"]) if has_value else None,
        ))
    return out


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
    return json.dumps({
        "bin_edges": hist.bin_edges,
        "relative_frequency": hist.relative_frequency,
        "overflow": hist.overflow,
    }, indent=2)
