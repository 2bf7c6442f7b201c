"""GPS broadcast ephemeris ingestion, orbit propagation and local geometry.

Handles RINEX 2.x navigation files (or a plain CSV of precomputed ECEF
positions), propagates Kepler broadcast elements to ECEF, and converts
to local East-North-Up directions with elevation masking.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from array import array
from dataclasses import dataclass
from functools import total_ordering
from itertools import zip_longest
from typing import Callable, Sequence, Union

import numpy as np

from .constants import GM_EARTH, OMEGA_EARTH, SECONDS_PER_WEEK, WGS84_A, WGS84_E2

log = logging.getLogger(__name__)

GPS_EPOCH = dt.datetime(1980, 1, 6)

# GPS - UTC leap-second offset; 16 s was current through 2013-2015.
DEFAULT_GPS_UTC_OFFSET = 16.0


class RinexParseError(ValueError):
    """Fatal navigation-file format problem (bad header / version)."""


class EphemerisError(RuntimeError):
    """Propagation failure: stale record or non-converging Kepler iteration."""


@total_ordering
@dataclass(frozen=True)
class GpsTime:
    """GPS time as (week, seconds-of-week)."""

    week: int
    seconds_of_week: float

    def __post_init__(self):
        if not 0 <= self.seconds_of_week < SECONDS_PER_WEEK:
            raise ValueError("seconds_of_week out of [0, 604800)")

    def total_seconds(self) -> float:
        return self.week * SECONDS_PER_WEEK + self.seconds_of_week

    def __sub__(self, other: "GpsTime") -> float:
        return self.total_seconds() - other.total_seconds()

    def add_seconds(self, seconds: float) -> "GpsTime":
        return GpsTime.from_seconds(self.total_seconds() + seconds)

    def __lt__(self, other: "GpsTime") -> bool:
        return self.total_seconds() < other.total_seconds()

    @classmethod
    def from_seconds(cls, total: float) -> "GpsTime":
        """GPS time `total` seconds after the GPS epoch."""
        if not math.isfinite(total):
            raise ValueError(f"GPS time must be finite, got {total} s")
        week = int(total // SECONDS_PER_WEEK)
        return cls(week, float(total - week * SECONDS_PER_WEEK))

    @classmethod
    def from_utc(cls, utc: dt.datetime,
                 gps_utc_offset: float = DEFAULT_GPS_UTC_OFFSET) -> "GpsTime":
        return cls.from_seconds((utc - GPS_EPOCH).total_seconds() + gps_utc_offset)

    def to_utc(self, gps_utc_offset: float = DEFAULT_GPS_UTC_OFFSET) -> dt.datetime:
        return GPS_EPOCH + dt.timedelta(seconds=self.total_seconds() - gps_utc_offset)


@dataclass(frozen=True)
class EphemerisRecord:
    """Kepler broadcast elements of one satellite for one issue epoch."""

    sat_id: str
    toe: GpsTime
    sqrt_a: float
    e: float
    m0: float
    delta_n: float
    i0: float
    idot: float
    omega0: float
    omega_dot: float
    w_arg: float
    cuc: float = 0.0
    cus: float = 0.0
    crc: float = 0.0
    crs: float = 0.0
    cic: float = 0.0
    cis: float = 0.0
    validity_window: float = 4 * 3600.0
    health: int = 0  # SV health word; nonzero excludes the record from grids

    def __post_init__(self):
        if not 0 <= self.e < 1:
            raise ValueError(f"eccentricity {self.e} out of [0, 1)")
        if self.sqrt_a <= 0:
            raise ValueError("sqrt_a must be positive")
        a = self.sqrt_a ** 2
        if not 2.0e7 <= a <= 3.5e7:
            raise ValueError(f"semi-major axis {a} m implausible for GPS")


@dataclass(frozen=True)
class SiteLocation:
    """WGS-84 geodetic site coordinates (degrees, degrees, meters)."""

    latitude: float
    longitude: float
    height: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.latitude, self.longitude, self.height))):
            raise ValueError("site coordinates must be finite")
        if abs(self.latitude) > 90:
            raise ValueError("latitude out of range")
        if not -180 < self.longitude <= 180:
            raise ValueError("longitude out of (-180, 180]")


@dataclass(frozen=True)
class VisibleSat:
    sat_id: str
    enu_unit_dir: np.ndarray
    elevation: float
    azimuth: float


def _rinex_floats(line: str, start: int, count: int) -> list[float]:
    """Parse `count` D19.12 fields from a (possibly trimmed) RINEX line."""
    line = line.rstrip("\r\n").ljust(start + 19 * count)
    out = []
    for i in range(count):
        chunk = line[start + 19 * i: start + 19 * (i + 1)]
        chunk = chunk.replace("D", "E").replace("d", "e").strip()
        out.append(float(chunk) if chunk else 0.0)
    return out


def parse_rinex_nav(text: str) -> list[EphemerisRecord]:
    """Parse a RINEX 2.x GPS navigation file into ephemeris records.

    Malformed records are skipped with a logged diagnostic; a bad header
    or unsupported version is fatal.
    """
    lines = text.splitlines()
    if not lines:
        raise RinexParseError("empty input")

    first = lines[0]
    if "RINEX VERSION / TYPE" not in first:
        raise RinexParseError("line 1: missing RINEX VERSION / TYPE header")
    try:
        version = float(first[:9])
    except ValueError as exc:
        raise RinexParseError(f"line 1: unreadable version field: {exc}") from exc
    if not 2.0 <= version < 3.0:
        raise RinexParseError(f"line 1: unsupported RINEX version {version}")
    ftype = first[20:21].upper()
    if ftype != "N":
        raise RinexParseError(f"line 1: not a navigation file (type {ftype!r})")

    body_start = None
    for i, line in enumerate(lines):
        if "END OF HEADER" in line:
            body_start = i + 1
            break
    if body_start is None:
        raise RinexParseError("missing END OF HEADER")

    records: list[EphemerisRecord] = []
    i = body_start
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        block = lines[i:i + 8]
        if len(block) < 8:
            log.warning("line %d: truncated record block, skipped", i + 1)
            break
        try:
            records.append(_parse_record_block(block))
        except (ValueError, IndexError, OverflowError) as exc:
            log.warning("line %d: skipping malformed record: %s", i + 1, exc)
        i += 8
    return records


def _parse_record_block(block: list[str]) -> EphemerisRecord:
    head = block[0]
    prn = int(head[0:2])
    # Epoch (toc) is parsed only to sanity-check the two-digit year mapping;
    # propagation keys on toe + GPS week from the orbit lines.
    yy = int(head[3:5])
    year = 2000 + yy if yy < 80 else 1900 + yy
    month, day, hour, minute = (int(head[k:k + 3]) for k in (5, 8, 11, 14))
    second = float(head[17:22])
    dt.datetime(year, month, day, hour, minute) + dt.timedelta(seconds=second)

    orbit = []
    for line in block[1:]:
        orbit.extend(_rinex_floats(line, 3, 4))
    # orbit[0..]: IODE, Crs, Delta_n, M0 | Cuc, e, Cus, sqrtA
    #             Toe, Cic, OMEGA0, Cis | i0, Crc, omega, OMEGAdot
    #             IDOT, codesL2, week, L2Pflag | accuracy, health, TGD, IODC
    bad = [k for k, value in enumerate(orbit) if not math.isfinite(value)]
    if bad:
        raise ValueError(f"non-finite orbit field(s) {bad}")
    week = int(orbit[18])
    toe_sow = orbit[8]
    return EphemerisRecord(
        sat_id=f"G{prn:02d}",
        toe=GpsTime(week, toe_sow),
        sqrt_a=orbit[7], e=orbit[5],
        m0=orbit[3], delta_n=orbit[2],
        i0=orbit[12], idot=orbit[16],
        omega0=orbit[10], omega_dot=orbit[15],
        w_arg=orbit[14],
        cuc=orbit[4], cus=orbit[6],
        crc=orbit[13], crs=orbit[1],
        cic=orbit[9], cis=orbit[11],
        health=int(orbit[21]),
    )


# Newton stop rule of both Kepler solvers.
_KEPLER_TOL, _KEPLER_MAX_ITER = 1e-12, 30


def solve_kepler(mean_anomaly: float, e: float) -> float:
    """Eccentric anomaly from M = E - e sin E by Newton iteration."""
    m = math.remainder(mean_anomaly, 2 * math.pi)
    ecc = m if e < 0.8 else math.pi
    for _ in range(_KEPLER_MAX_ITER):
        delta = (ecc - e * math.sin(ecc) - m) / (1 - e * math.cos(ecc))
        ecc -= delta
        if abs(delta) <= _KEPLER_TOL:
            return ecc
    raise EphemerisError(f"Kepler iteration did not converge (e={e}, M={m})")


def _kepler_array(mean_anomaly: np.ndarray, e: np.ndarray) -> np.ndarray:
    """`solve_kepler` over 1-D arrays, step for step: the same reduction,
    starting guess and Newton update, each element stopping at its own
    |delta| <= _KEPLER_TOL. Raises EphemerisError if any element has not
    converged after _KEPLER_MAX_ITER steps.
    """
    two_pi = 2 * math.pi
    # math.remainder: fmod is exact and one fold into [-pi, pi] is exact by
    # Sterbenz. Only on an exact tie |m| = pi can the sign differ from
    # math.remainder's; both name the same angle.
    m = np.fmod(mean_anomaly, two_pi)
    m = np.where(m > math.pi, m - two_pi, np.where(m < -math.pi, m + two_pi, m))
    ecc = np.where(e < 0.8, m, math.pi)
    todo = np.arange(m.size)
    for _ in range(_KEPLER_MAX_ITER):
        ea, ee = ecc[todo], e[todo]
        delta = (ea - ee * np.sin(ea) - m[todo]) / (1 - ee * np.cos(ea))
        ecc[todo] = ea - delta
        todo = todo[~(np.abs(delta) <= _KEPLER_TOL)]
        if not todo.size:
            return ecc
    k = todo[0]
    raise EphemerisError(f"Kepler iteration did not converge (e={e[k]}, M={m[k]})")


def sat_position_ecef(eph: EphemerisRecord, t: GpsTime) -> np.ndarray:
    """ECEF satellite position from broadcast elements at GPS time t."""
    tk = t - eph.toe
    if abs(tk) > eph.validity_window:
        raise EphemerisError(
            f"{eph.sat_id}: ephemeris stale by {abs(tk):.0f} s at requested epoch"
        )
    a = eph.sqrt_a ** 2
    n = math.sqrt(GM_EARTH / a ** 3) + eph.delta_n
    m = eph.m0 + n * tk
    ecc_anom = solve_kepler(m, eph.e)

    nu = math.atan2(math.sqrt(1 - eph.e ** 2) * math.sin(ecc_anom),
                    math.cos(ecc_anom) - eph.e)
    phi = nu + eph.w_arg
    s2p, c2p = math.sin(2 * phi), math.cos(2 * phi)
    u = phi + eph.cus * s2p + eph.cuc * c2p
    r = a * (1 - eph.e * math.cos(ecc_anom)) + eph.crs * s2p + eph.crc * c2p
    inc = eph.i0 + eph.idot * tk + eph.cis * s2p + eph.cic * c2p

    x_orb = r * math.cos(u)
    y_orb = r * math.sin(u)
    node = (eph.omega0 + (eph.omega_dot - OMEGA_EARTH) * tk
            - OMEGA_EARTH * eph.toe.seconds_of_week)
    sn, cn = math.sin(node), math.cos(node)
    si, ci = math.sin(inc), math.cos(inc)
    return np.array([
        x_orb * cn - y_orb * ci * sn,
        x_orb * sn + y_orb * ci * cn,
        y_orb * si,
    ])


def geodetic_to_ecef(site: SiteLocation) -> np.ndarray:
    """WGS-84 geodetic coordinates to ECEF."""
    lat = math.radians(site.latitude)
    lon = math.radians(site.longitude)
    sl, cl = math.sin(lat), math.cos(lat)
    n = WGS84_A / math.sqrt(1 - WGS84_E2 * sl * sl)
    return np.array([
        (n + site.height) * cl * math.cos(lon),
        (n + site.height) * cl * math.sin(lon),
        (n * (1 - WGS84_E2) + site.height) * sl,
    ])


def enu_rotation(site: SiteLocation) -> np.ndarray:
    """Rows are the local East, North and Up unit vectors in ECEF."""
    lat = math.radians(site.latitude)
    lon = math.radians(site.longitude)
    sl, cl = math.sin(lat), math.cos(lat)
    so, co = math.sin(lon), math.cos(lon)
    return np.array([
        [-so, co, 0.0],
        [-sl * co, -sl * so, cl],
        [cl * co, cl * so, sl],
    ])


def ecef_to_enu(site: SiteLocation, point) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ENU vectors of ECEF points (shape (..., 3)) about the site, plus
    elevation and azimuth in degrees (shape (...)).

    A NaN point (no satellite position) gives NaN elevation and azimuth.
    """
    diff = np.asarray(point, dtype=float) - geodetic_to_ecef(site)
    rng = np.linalg.norm(diff, axis=-1)
    if np.any(rng == 0):
        raise ValueError("point coincides with the site")
    enu = diff @ enu_rotation(site).T
    # rounding can put a zenith point's ratio just above 1
    elevation = np.degrees(np.arcsin(np.clip(enu[..., 2] / rng, -1.0, 1.0)))
    azimuth = np.degrees(np.arctan2(enu[..., 0], enu[..., 1])) % 360.0
    return enu, elevation, azimuth


# --- alternative CSV ingestion (sat_id,week,sow,x_m,y_m,z_m) ---------------

# A table row belongs to a requested epoch when their GPS times are this close.
EPOCH_TOLERANCE = 1e-6


@dataclass(frozen=True)
class PositionTable:
    """Precomputed ECEF satellite positions on a dense epoch axis.

    `epochs` holds the distinct row times (seconds since the GPS epoch),
    sorted; `ecef[epoch, sat, 3]` is NaN where a satellite has no row.
    """

    sat_ids: tuple[str, ...]
    epochs: np.ndarray
    ecef: np.ndarray


def parse_position_csv(text: str) -> PositionTable:
    """Parse the alternative `sat_id,week,sow,x_m,y_m,z_m` position format.

    A row with the wrong field count, an unreadable or non-finite field, or
    a time outside the calendar is skipped with its line number logged. Of
    repeated (satellite, epoch) rows the first is kept.
    """
    rows = ((n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip())
    if not next(rows, (0, ""))[1].lower().startswith("sat_id"):
        raise ValueError("position CSV must start with a sat_id,... header row")
    sat_of, values = [], array("d")  # values: seconds, x, y, z per kept row
    for n, line in rows:
        try:
            sat_id, week, sow, x, y, z = line.split(",")
            sow, x, y, z = float(sow), float(x), float(y), float(z)
            if not 0 <= sow < SECONDS_PER_WEEK:
                raise ValueError("seconds_of_week out of [0, 604800)")
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise ValueError("non-finite coordinate")
            values.extend((int(week) * SECONDS_PER_WEEK + sow, x, y, z))
        except (ValueError, OverflowError) as exc:
            log.warning("line %d: skipping malformed row: %s", n, exc)
            continue
        sat_of.append(sat_id.strip())
    values = np.frombuffer(values).reshape(-1, 4)
    sat_ids, sat_index = np.unique(np.array(sat_of, dtype=str), return_inverse=True)
    epochs, epoch_index = np.unique(values[:, 0], return_inverse=True)
    ecef = np.full((len(epochs), len(sat_ids), 3), np.nan)
    cell = epoch_index * len(sat_ids) + sat_index
    _, first = np.unique(cell, return_index=True)
    ecef.reshape(-1, 3)[cell[first]] = values[first, 1:]
    return PositionTable(tuple(sat_ids.tolist()), epochs, ecef)


PositionSource = Union[PositionTable, Sequence[EphemerisRecord]]


def _elements(eph: EphemerisRecord) -> tuple[float, ...]:
    """One record's table row: validity window, health, then toe and the
    per-record terms of `sat_position_ecef`, evaluated as it evaluates them."""
    a = eph.sqrt_a ** 2
    return (eph.validity_window, eph.health, eph.toe.total_seconds(),
            a, math.sqrt(GM_EARTH / a ** 3) + eph.delta_n, eph.m0, eph.e,
            math.sqrt(1 - eph.e ** 2), eph.w_arg, eph.cus, eph.cuc, eph.crs,
            eph.crc, eph.i0, eph.idot, eph.cis, eph.cic, eph.omega0,
            eph.omega_dot - OMEGA_EARTH, OMEGA_EARTH * eph.toe.seconds_of_week)


def position_grid(source: PositionSource, seconds: Sequence[float],
                  ) -> tuple[tuple[str, ...], np.ndarray]:
    """ECEF position of every satellite of `source` at each GPS-seconds epoch.

    This is the one place that tells the two inputs apart. From a
    PositionTable, the row within EPOCH_TOLERANCE of an epoch is used.
    From broadcast ephemerides, each satellite uses its nearest-toe healthy
    record inside the validity window (the first in file order on ties),
    and every such cell is propagated in one array pass that repeats the
    arithmetic of `sat_position_ecef`. Returns the sorted satellite ids and
    `ecef[epoch, sat, 3]`, NaN where a satellite has no position.
    """
    sat_ids, grid_of = prepare_grid(source)
    return sat_ids, grid_of(np.asarray(seconds, dtype=float))


def prepare_grid(source: PositionSource,
                 ) -> tuple[tuple[str, ...], Callable[[np.ndarray], np.ndarray]]:
    """`position_grid` in two steps: the sorted satellite ids, and a function
    from GPS seconds to the grid. What the epochs do not change is built here."""
    if isinstance(source, PositionTable):
        if not source.sat_ids:
            raise ValueError("empty position table")

        def table_grid(seconds: np.ndarray) -> np.ndarray:
            k = np.minimum(np.searchsorted(source.epochs, seconds - EPOCH_TOLERANCE),
                           len(source.epochs) - 1)
            hit = np.abs(source.epochs[k] - seconds) <= EPOCH_TOLERANCE
            grid = np.full((len(seconds), len(source.sat_ids), 3), np.nan)
            grid[hit] = source.ecef[k[hit]]
            return grid
        return source.sat_ids, table_grid
    if not source:
        raise ValueError("empty ephemeris set")
    by_sat: dict[str, list[int]] = {}
    for k, eph in enumerate(source):
        by_sat.setdefault(eph.sat_id, []).append(k)
    sat_ids = tuple(sorted(by_sat))
    table = np.array([_elements(eph) for eph in source]).T
    # records[slot, sat]: each satellite's records in file order, -1 padded
    records = np.array(list(zip_longest(*map(by_sat.get, sat_ids), fillvalue=-1)))
    window, health, toe = table[:3, records]
    toe[(records < 0) | (health != 0)] = np.nan  # a NaN distance is never chosen

    def ephemeris_grid(seconds: np.ndarray) -> np.ndarray:
        chosen = _nearest(seconds, records, toe, window)
        return _propagate(table[2:], chosen, seconds, sat_ids)
    return sat_ids, ephemeris_grid


def _nearest(seconds: np.ndarray, records: np.ndarray, toe: np.ndarray,
             window: np.ndarray) -> np.ndarray:
    """chosen[epoch, sat]: the `records[slot, sat]` entry with the nearest
    `toe` within its `window` of each epoch, -1 where there is none."""
    best = np.full((len(seconds), records.shape[1]), np.inf)
    chosen = np.full(best.shape, -1)
    for slot_records, slot_toe, slot_window in zip(records, toe, window):
        dist = np.abs(seconds[:, None] - slot_toe)
        # strict: on a tie the earlier slot, first in file order, stays
        closer = ~(dist > slot_window) & (dist < best)
        np.copyto(best, dist, where=closer)
        np.copyto(chosen, slot_records, where=closer)
    return chosen


@np.errstate(over="ignore", invalid="ignore")  # the finite check below reports
def _propagate(table: np.ndarray, chosen: np.ndarray, seconds: np.ndarray,
               sat_ids: tuple[str, ...]) -> np.ndarray:
    """The grid of `chosen[epoch, sat]` (a `table` column, -1 for none)."""
    at_epoch, at_sat = np.nonzero(chosen >= 0)
    (toe, a, n, m0, e, root_1me2, w_arg, cus, cuc, crs, crc, i0, idot,
     cis, cic, omega0, node_rate, node_toe) = table[:, chosen[at_epoch, at_sat]]
    tk = seconds[at_epoch] - toe
    ecc_anom = _kepler_array(m0 + n * tk, e)
    sin_e, cos_e = np.sin(ecc_anom), np.cos(ecc_anom)
    phi = np.arctan2(root_1me2 * sin_e, cos_e - e) + w_arg
    s2p, c2p = np.sin(2 * phi), np.cos(2 * phi)
    u = phi + cus * s2p + cuc * c2p
    r = a * (1 - e * cos_e) + crs * s2p + crc * c2p
    inc = i0 + idot * tk + cis * s2p + cic * c2p
    x_orb, y_orb = r * np.cos(u), r * np.sin(u)
    node = omega0 + node_rate * tk - node_toe
    sn, cn, ci = np.sin(node), np.cos(node), np.cos(inc)
    ecef = np.stack([x_orb * cn - y_orb * ci * sn, x_orb * sn + y_orb * ci * cn,
                     y_orb * np.sin(inc)], axis=-1)
    # where math.sin/cos would raise on an overflowed term, fail as loudly
    bad = ~np.isfinite(ecef).all(axis=-1)
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise EphemerisError(f"{sat_ids[at_sat[k]]}: non-finite position "
                             f"propagated from its broadcast elements")
    grid = np.full((len(seconds), len(sat_ids), 3), np.nan)
    grid[at_epoch, at_sat] = ecef
    return grid


def visible_satellites(source: PositionSource, site: SiteLocation, t: GpsTime,
                       mask: float = 15.0) -> list[VisibleSat]:
    """Satellites above the elevation mask at GPS time t, sorted by id.

    Positions come from `position_grid` at the single epoch t; satellites
    with no position there are dropped.
    """
    if not 0 <= mask < 90:
        raise ValueError("mask must be in [0, 90) degrees")
    sat_ids, ecef = position_grid(source, [t.total_seconds()])
    enu, elevation, azimuth = ecef_to_enu(site, ecef[0])
    return [VisibleSat(sat_id=sat_id, enu_unit_dir=e / np.linalg.norm(e),
                       elevation=float(el), azimuth=float(az))
            for sat_id, e, el, az in zip(sat_ids, enu, elevation, azimuth)
            if el >= mask]
