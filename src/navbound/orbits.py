"""GPS broadcast ephemeris ingestion, orbit propagation and local geometry.

Handles RINEX 2.x navigation files (or a plain CSV of precomputed ECEF
positions), propagates Kepler broadcast elements to ECEF, and converts
to local East-North-Up vectors and elevations.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass
from itertools import compress, repeat, zip_longest
from operator import itemgetter
from typing import Callable, ClassVar, NamedTuple, Sequence, Union

import numpy as np

from .constants import GM_EARTH, OMEGA_EARTH, SECONDS_PER_WEEK, WGS84_A, WGS84_E2

log = logging.getLogger(__name__)

GPS_EPOCH = dt.datetime(1980, 1, 6)

# GPS - UTC leap-second offset; 16 s was current through 2013-2015.
DEFAULT_GPS_UTC_OFFSET = 16.0

# Largest |site height| (m): 10 000 km, well below the GPS orbits (~20 200 km).
MAX_SITE_HEIGHT = 1e7

# A broadcast record serves the epochs within this many seconds of its toe.
VALIDITY_WINDOW = 4 * 3600.0


class RinexParseError(ValueError):
    """Fatal navigation-file format problem (bad header / version)."""


class EphemerisError(RuntimeError):
    """Propagation failure: stale record or non-converging Kepler iteration."""


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


class _Checked:
    """Base of a NamedTuple record whose ``__new__`` checks its fields.

    A NamedTuple's ``_make``, which ``_replace`` calls, builds the tuple
    without ``__new__``; routing it through the constructor keeps the check
    on every construction path.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _EphemerisRecord(NamedTuple):
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
    cuc: float
    cus: float
    crc: float
    crs: float
    cic: float
    cis: float
    health: int  # SV health word; nonzero excludes the record from grids


class EphemerisRecord(_Checked, _EphemerisRecord):
    """Kepler broadcast elements of one satellite for one issue epoch."""

    __slots__ = ()
    validity_window: ClassVar[float] = VALIDITY_WINDOW  # the same for every record

    def __new__(cls, sat_id: str, toe: GpsTime, sqrt_a: float, e: float,
                m0: float, delta_n: float, i0: float, idot: float, omega0: float,
                omega_dot: float, w_arg: float, cuc: float = 0.0, cus: float = 0.0,
                crc: float = 0.0, crs: float = 0.0, cic: float = 0.0,
                cis: float = 0.0, health: int = 0):
        if not 0 <= e < 1:
            raise ValueError(f"eccentricity {e} out of [0, 1)")
        if sqrt_a <= 0:
            raise ValueError("sqrt_a must be positive")
        a = sqrt_a ** 2
        if not 2.0e7 <= a <= 3.5e7:
            raise ValueError(f"semi-major axis {a} m implausible for GPS")
        return tuple.__new__(cls, (sat_id, toe, sqrt_a, e, m0, delta_n, i0, idot,
                                   omega0, omega_dot, w_arg, cuc, cus, crc, crs,
                                   cic, cis, health))


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
        if abs(self.height) > MAX_SITE_HEIGHT:
            raise ValueError(f"height must be within ±{MAX_SITE_HEIGHT:g} m, "
                             f"got {self.height!r}")


# A record's seven orbit lines, each cut or padded to 79 columns, as one
# string, and its 28 D19.12 fields in that string: four per line from column 3.
_ORBIT_TEXT = "{:<79.79}" * 7
_ORBIT_FIELDS = itemgetter(*(slice(79 * row + 3 + 19 * k, 79 * row + 22 + 19 * k)
                             for row in range(7) for k in range(4)))

# The fields in their order, orbit[0..]:
#   IODE, Crs, Delta_n, M0 | Cuc, e, Cus, sqrtA
#   Toe, Cic, OMEGA0, Cis | i0, Crc, omega, OMEGAdot
#   IDOT, codesL2, week, L2Pflag | accuracy, health, TGD, IODC
# and those that give EphemerisRecord's sqrt_a ... cis, in its field order.
_RECORD_ORBIT = itemgetter(7, 5, 3, 2, 12, 16, 10, 15, 14, 4, 6, 13, 1, 9, 11)


def _is_orbit_line(line: str) -> bool:
    """A record's continuation line: columns 1-3 blank, text after them."""
    return line[:3].isspace() and not line.isspace()


def _is_epoch_line(line: str) -> bool:
    """A line that can start a record: text in columns 1-3."""
    return not line[:3].isspace() and bool(line.strip())


def parse_rinex_nav(text: str) -> list[EphemerisRecord]:
    """Parse a RINEX 2.x GPS navigation file into ephemeris records.

    A record is an epoch line followed by exactly seven orbit lines and
    then by an epoch line, a blank line or the end of the file. Of fourteen
    orbit lines (the next record lost its epoch line) the first seven are
    read and the rest skipped with a diagnostic. Any other record, or one
    that cannot be read, is skipped with a diagnostic naming its first
    line, and parsing resumes at the next epoch line, so a missing or extra
    line costs one record. A bad header or unsupported version is fatal.
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
    n = len(lines)
    i = body_start
    while i < n:
        if not lines[i].strip():
            i += 1
            continue
        end = i + 1  # past the orbit lines, at a blank or epoch line
        while end < n and _is_orbit_line(lines[end]):
            end += 1
        try:
            if not _is_epoch_line(lines[i]):
                raise ValueError("orbit line outside a record")
            if end - i not in (8, 15):
                raise ValueError(f"{end - i - 1} orbit lines, expected 7")
            records.append(_parse_record_block(lines[i:i + 8]))
            if end - i == 15:  # the next record lost its epoch line
                log.warning("line %d: skipping 7 orbit lines with no epoch line", i + 9)
        except (ValueError, IndexError, OverflowError) as exc:
            log.warning("line %d: skipping malformed record: %s", i + 1, exc)
            end = next((k for k in range(i + 1, n) if _is_epoch_line(lines[k])), n)
        i = end
    return records


def _parse_record_block(block: list[str]) -> EphemerisRecord:
    head = block[0]
    prn = int(head[0:2])
    if prn < 1:
        raise ValueError(f"PRN {prn} below 1")
    # Epoch (toc) is parsed only to sanity-check the two-digit year mapping;
    # propagation keys on toe + GPS week from the orbit lines.
    yy = int(head[3:5])
    year = 2000 + yy if yy < 80 else 1900 + yy
    month, day, hour, minute = map(int, (head[5:8], head[8:11], head[11:14],
                                         head[14:17]))
    second = float(head[17:22])
    dt.datetime(year, month, day, hour, minute) + dt.timedelta(seconds=second)

    fields = _ORBIT_FIELDS(_ORBIT_TEXT.format(*block[1:])
                           .replace("D", "E").replace("d", "e"))
    try:
        orbit = list(map(float, fields))
    except ValueError:  # a blank field, which reads as 0.0, or a bad one
        orbit = [float(field.strip() or 0) for field in fields]
    if not all(map(math.isfinite, orbit)):
        bad = [k for k, value in enumerate(orbit) if not math.isfinite(value)]
        raise ValueError(f"non-finite orbit field(s) {bad}")
    return EphemerisRecord(f"G{prn:02d}", GpsTime(int(orbit[18]), orbit[8]),
                           *_RECORD_ORBIT(orbit), int(orbit[21]))


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
    """`solve_kepler` over arrays of any shape, step for step: the same
    reduction, starting guess and Newton update, each element stopping at
    its own |delta| <= _KEPLER_TOL (a pass runs on whole arrays and leaves
    stopped elements as they are). A NaN `e` marks a grid cell with no
    record: NaN in, never stepped, NaN out. Raises EphemerisError if any
    other element has not converged after _KEPLER_MAX_ITER steps.
    """
    two_pi = 2 * math.pi
    # math.remainder: fmod is exact and one fold into [-pi, pi] is exact by
    # Sterbenz. Only on an exact tie |m| = pi can the sign differ from
    # math.remainder's; both name the same angle.
    m = np.fmod(mean_anomaly, two_pi)
    m = np.where(m > math.pi, m - two_pi, np.where(m < -math.pi, m + two_pi, m))
    ecc = np.where(e >= 0.8, math.pi, m)
    todo = ~np.isnan(e)
    for _ in range(_KEPLER_MAX_ITER):
        delta = (ecc - e * np.sin(ecc) - m) / (1 - e * np.cos(ecc))
        np.subtract(ecc, delta, out=ecc, where=todo)
        todo &= ~(np.abs(delta) <= _KEPLER_TOL)
        if not todo.any():
            return ecc
    k = np.flatnonzero(todo)[0]
    raise EphemerisError(f"Kepler iteration did not converge "
                         f"(e={e.flat[k]}, M={m.flat[k]})")


def sat_position_ecef(eph: EphemerisRecord, t: GpsTime) -> np.ndarray:
    """ECEF satellite position from broadcast elements at GPS time t."""
    tk = t - eph.toe
    if abs(tk) > VALIDITY_WINDOW:
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


def vector_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, of length 3, of `x`. The sum
    `(x0² + x1²) + x2²` is the one `np.linalg.norm(x, axis=-1)` forms, so
    the bits are its bits, at a fraction of its cost on short rows."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.sqrt((x0 * x0 + x1 * x1) + x2 * x2)


def ecef_to_enu(site: SiteLocation, point) -> tuple[np.ndarray, np.ndarray]:
    """ENU vectors of ECEF points (shape (..., 3)) about the site, and their
    elevations in degrees; a NaN point (no satellite position) gives NaN."""
    diff = np.asarray(point, dtype=float) - geodetic_to_ecef(site)
    rng = vector_norm(diff)
    if np.any(rng == 0):
        raise ValueError("point coincides with the site")
    enu = (diff.reshape(-1, 3) @ enu_rotation(site).T).reshape(diff.shape)
    # rounding can put a zenith point's ratio just above 1
    elevation = np.degrees(np.arcsin(np.clip(enu[..., 2] / rng, -1.0, 1.0)))
    return enu, elevation


# --- alternative CSV ingestion (sat_id,week,sow,x_m,y_m,z_m) ---------------

# A table row belongs to a requested epoch when their GPS times are this close.
EPOCH_TOLERANCE = 1e-6


@dataclass(frozen=True)
class PositionTable:
    """Precomputed ECEF satellite positions on a dense epoch axis.

    `epochs` holds the distinct row times (seconds since the GPS epoch),
    finite, strictly increasing and more than 2 * EPOCH_TOLERANCE apart, so
    a time is within EPOCH_TOLERANCE of one epoch at most; `sat_ids` is
    sorted with no repeats; `ecef[epoch, sat, 3]` is NaN where a satellite
    has no row. The grid lookup and the scan's tie rule rely on these, so a
    table that breaks one is rejected with ValueError. `ecef` is not copied.
    """

    sat_ids: tuple[str, ...]
    epochs: np.ndarray
    ecef: np.ndarray

    def __post_init__(self):
        epochs = np.asarray(self.epochs, dtype=np.float64)
        if not (epochs.ndim == 1 and np.isfinite(epochs).all()
                and (np.diff(epochs) > 2 * EPOCH_TOLERANCE).all()):
            raise ValueError("position table epochs must be 1-D, finite and strictly "
                             f"increasing, more than {2 * EPOCH_TOLERANCE:g} s apart")
        ids = self.sat_ids
        if not all(a < b for a, b in zip(ids, ids[1:])):
            raise ValueError("position table satellite ids must be sorted "
                             "with no repeats")
        if np.shape(self.ecef) != (len(epochs), len(ids), 3):
            raise ValueError(f"position table ecef has shape {np.shape(self.ecef)}, "
                             f"expected {(len(epochs), len(ids), 3)}")
        object.__setattr__(self, "epochs", epochs)


def parse_position_csv(text: str) -> PositionTable:
    """Parse the alternative `sat_id,week,sow,x_m,y_m,z_m` position format.

    A row with the wrong field count, an unreadable or non-finite field, a
    position whose x^2 + y^2 + z^2 overflows, a time outside the calendar,
    or a satellite id that is blank or holds an unprintable character once
    stripped is skipped with its line number logged. Of repeated
    (satellite, epoch) rows the first is kept.

    The rows are read column by column: one split of the whole body, one
    numpy conversion per column (each string through `float`) and array
    checks. Row by row work runs only to name the rows that fail.
    """
    lines = text.splitlines()
    top = next((k for k, line in enumerate(lines) if line.strip()), len(lines))
    if top == len(lines) or not lines[top].lstrip().lower().startswith("sat_id"):
        raise ValueError("position CSV must start with a sat_id,... header row")
    # lines[k] is line first + k of the text; rows[k] is lines[row_line[k]]
    first, lines = top + 2, lines[top + 1:]
    commas = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines))
    whole = commas == 5
    row_line = np.flatnonzero(whole)
    rows = list(compress(lines, whole.tolist()))
    fields = ",".join(rows).split(",") if rows else []
    sat, week, sow, x, y, z = (fields[k::6] for k in range(6))
    # reasons[row]: why a row of `rows` is skipped, the first failed check
    # in the order sow, x, y, z, calendar, finiteness, range, week, id
    reasons: dict[int, str] = {}
    sow, x, y, z = (_column(c, _floats, reasons) for c in (sow, x, y, z))
    _flag(reasons, ~((0 <= sow) & (sow < SECONDS_PER_WEEK)),
          "seconds_of_week out of [0, 604800)")
    _flag(reasons, ~(np.isfinite(x) & np.isfinite(y) & np.isfinite(z)),
          "non-finite coordinate")
    with np.errstate(over="ignore"):
        _flag(reasons, ~np.isfinite(x * x + y * y + z * z),
              "x^2 + y^2 + z^2 overflows")
    seconds = _column(week, _week_seconds, reasons) + sow
    sat = list(map(str.strip, sat))
    if not (all(sat) and "".join(sat).isprintable()):
        _flag(reasons, [not (s and s.isprintable()) for s in sat],
              "satellite id blank or unprintable")

    # a blank line has no comma and is dropped without a warning
    skipped = {first + k: f"expected 6 fields, got {commas[k] + 1}"
               for k in np.flatnonzero(~whole).tolist() if lines[k].strip()}
    skipped.update((first + int(row_line[k]), reason) for k, reason in reasons.items())
    for n in sorted(skipped):
        log.warning("line %d: skipping malformed row: %s", n, skipped[n])

    kept = np.ones(len(rows), dtype=bool)
    kept[list(reasons)] = False
    sat = list(compress(sat, kept.tolist()))
    sat_ids = sorted(set(sat))
    column_of = {sat_id: k for k, sat_id in enumerate(sat_ids)}
    sat_index = np.fromiter(map(column_of.__getitem__, sat), np.intp, len(sat))
    epochs, epoch_index = np.unique(seconds[kept], return_inverse=True)
    ecef = np.full((len(epochs), len(sat_ids), 3), np.nan)
    cell = epoch_index * len(sat_ids) + sat_index
    _, first = np.unique(cell, return_index=True)
    ecef.reshape(-1, 3)[cell[first]] = np.stack([x, y, z], axis=-1)[kept][first]
    return PositionTable(tuple(sat_ids), epochs, ecef)


def _floats(strings: list[str]) -> np.ndarray:
    """The strings as float64: numpy converts each one with `float`, so the
    values and the error text are `float`'s."""
    return np.array(strings, dtype=np.float64)


def _week_seconds(strings: list[str]) -> np.ndarray:
    """GPS seconds at the start of each week, `int(week) * 604800` rounded
    to a float once, as `int(week) * SECONDS_PER_WEEK + sow` rounds it.
    Each distinct string is converted once."""
    seconds = {week: float(int(week) * SECONDS_PER_WEEK) for week in set(strings)}
    return np.fromiter(map(seconds.__getitem__, strings), np.float64, len(strings))


def _column(strings: list[str], convert: Callable[[list[str]], np.ndarray],
            reasons: dict[int, str], offset: int = 0) -> np.ndarray:
    """`convert(strings)` in one pass. Where it raises, the column is halved
    until each failing entry stands alone: NaN takes its place, and its
    message goes to reasons[offset + index] unless that row already has one."""
    try:
        return convert(strings)
    except (ValueError, OverflowError) as exc:
        if len(strings) == 1:
            reasons.setdefault(offset, str(exc))
            return np.full(1, math.nan)
    half = len(strings) // 2
    return np.concatenate((_column(strings[:half], convert, reasons, offset),
                           _column(strings[half:], convert, reasons, offset + half)))


def _flag(reasons: dict[int, str], bad: np.ndarray, reason: str) -> None:
    """Give each row where `bad` holds `reason`, unless it already has one."""
    for k in np.flatnonzero(bad).tolist():
        reasons.setdefault(k, reason)


PositionSource = Union[PositionTable, Sequence[EphemerisRecord]]


def _elements(eph: EphemerisRecord) -> tuple[float, ...]:
    """One record's table row: toe, then the per-record terms of
    `sat_position_ecef`, evaluated as it evaluates them. The fields are
    unpacked by position, which costs less than reading them by name."""
    (_, toe, sqrt_a, e, m0, delta_n, i0, idot, omega0, omega_dot, w_arg,
     cuc, cus, crc, crs, cic, cis, _) = eph
    a = sqrt_a ** 2
    return (toe.total_seconds(), a, math.sqrt(GM_EARTH / a ** 3) + delta_n,
            m0, e, math.sqrt(1 - e ** 2), w_arg, cus, cuc, crs, crc, i0, idot,
            cis, cic, omega0, omega_dot - OMEGA_EARTH,
            OMEGA_EARTH * toe.seconds_of_week)


# An ephemeris grid function propagates every satellite at every
# _ANCHOR_SPACING-th epoch of a block and at its last one; see prepare_grid.
_ANCHOR_SPACING = 8


def prepare_grid(source: PositionSource, site: SiteLocation | None = None,
                 mask: float = 0.0,
                 ) -> tuple[tuple[str, ...], Callable[[np.ndarray], np.ndarray]]:
    """The sorted satellite ids of `source`, and a function from GPS seconds
    to `ecef[epoch, sat, 3]`, NaN where a satellite has no position. A
    PositionTable gives the row within EPOCH_TOLERANCE of an epoch. From
    broadcast ephemerides each satellite uses its nearest-toe healthy record
    within VALIDITY_WINDOW (the first in file order on ties), propagated in
    array passes that repeat the arithmetic of `sat_position_ecef`. With a
    `site`, a cell between two anchor epochs that share its record is left
    NaN, unpropagated, when that record's elevation-rate bound `rate` (deg/s)
    shows it below `mask` degrees there: the elevation is at most
    `(el0 + el1 + rate * (t1 - t0)) / 2`. A table is never pruned. What the
    epochs do not change is built here: the one place below the CLI that
    tells the two inputs apart."""
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
    for k, eph in enumerate(source):  # an unhealthy record is -1, as padding is
        by_sat.setdefault(eph.sat_id, []).append(-1 if eph.health else k)
    sat_ids = tuple(sorted(by_sat))
    rows = list(map(_elements, source))
    # one column per record, and a last all-NaN one that index -1 reads
    table = np.array(rows + [[math.nan] * len(rows[0])]).T
    # records[slot, sat]: each satellite's records in file order, -1 padded
    records = np.array(list(zip_longest(*map(by_sat.get, sat_ids), fillvalue=-1)))
    toe = table[0, records]  # NaN at -1: never chosen
    if site is None:
        spacing = 1  # every epoch an anchor: nothing is pruned
    else:  # the slack is far above the elevation error of a position
        spacing, floor = _ANCHOR_SPACING, mask - 1e-6
        rate = _rate_bound(table, float(vector_norm(geodetic_to_ecef(site))))

    def ephemeris_grid(seconds: np.ndarray) -> np.ndarray:
        chosen = _nearest(seconds, records, toe)
        times = np.broadcast_to(seconds[:, None], chosen.shape)
        grid = np.full((*chosen.shape, 3), np.nan)
        row = np.arange(len(seconds))
        anchor = (row % spacing == 0) | (row == len(seconds) - 1)
        rest = (chosen >= 0) & ~anchor[:, None]
        try:
            grid[anchor] = _propagate(table, chosen[anchor], times[anchor], source)
            if rest.any():  # low[interval, sat]: below the mask between anchors
                ends = np.flatnonzero(anchor)
                first = chosen[ends[:-1]]
                with np.errstate(all="ignore"):
                    el = ecef_to_enu(site, grid[ends])[1]
                    low = (first == chosen[ends[1:]]) & (
                        (el[:-1] + el[1:] + rate[first]
                         * np.diff(seconds[ends])[:, None]) / 2 < floor)
                k = np.minimum(row // spacing, len(ends) - 2)
                rest &= ~(low[k] & (chosen == first[k]))
                grid[rest] = _propagate(table, chosen[rest], times[rest], source)
        except EphemerisError:  # report the block's first failing cell
            _propagate(table, chosen, times, source)
            raise
        return grid
    return sat_ids, ephemeris_grid


@np.errstate(all="ignore")  # an inf or NaN bound never prunes
def _rate_bound(table: np.ndarray, site_radius: float) -> np.ndarray:
    """Per `table` column, a bound (deg/s) on the rate of the line of sight
    from a site `site_radius` from the geocentre to the position the record
    gives, so on its elevation: `v / (r_min - site_radius)`, with `v` the
    IS-GPS-200 orbit's ECEF speed bounded term by term. `Ė <= |n|/(1-e)`,
    the true anomaly's rate is at most `|n|·sqrt(1+e)/(1-e)^1.5`, and each
    harmonic term moves at most twice that times its amplitude. Inf where
    `e >= 0.8` (Kepler's other start guess) or the site reaches `r_min`."""
    (_, a, n, _, e, _, _, cus, cuc, crs, crc, _, idot, cis, cic, _,
     node_rate, _) = np.abs(table)
    e_rate = n / (1 - e)
    phi_rate = e_rate * np.sqrt((1 + e) / (1 - e))
    r_max, r_min = a * (1 + e) + crs + crc, a * (1 - e) - crs - crc
    speed = (a * e * e_rate + 2 * phi_rate * (crs + crc)
             + r_max * (phi_rate * (1 + 2 * (cus + cuc)) + idot
                        + 2 * phi_rate * (cis + cic) + node_rate))
    rate = np.degrees(speed / (r_min - site_radius))
    return np.where((e < 0.8) & (r_min > site_radius), rate, math.inf)


def _nearest(seconds: np.ndarray, records: np.ndarray, toe: np.ndarray) -> np.ndarray:
    """chosen[epoch, sat]: the `records[slot, sat]` entry with the nearest
    `toe` within VALIDITY_WINDOW of each epoch, -1 where there is none."""
    best = np.full((len(seconds), records.shape[1]), np.inf)
    chosen = np.full(best.shape, -1)
    for slot_records, slot_toe in zip(records, toe):
        dist = np.abs(seconds[:, None] - slot_toe)
        # strict: on a tie the earlier slot, first in file order, stays
        closer = (dist <= VALIDITY_WINDOW) & (dist < best)
        np.copyto(best, dist, where=closer)
        np.copyto(chosen, slot_records, where=closer)
    return chosen


@np.errstate(over="ignore", invalid="ignore")  # the finite check below reports
def _propagate(table: np.ndarray, chosen: np.ndarray, seconds: np.ndarray,
               source: Sequence[EphemerisRecord]) -> np.ndarray:
    """Positions `[..., 3]` of the records `chosen[...]`, each a `table`
    column of a record of `source`, at the GPS seconds `seconds[...]`. A
    cell with no record reads the all-NaN column -1 and comes out NaN."""
    (toe, a, n, m0, e, root_1me2, w_arg, cus, cuc, crs, crc, i0, idot,
     cis, cic, omega0, node_rate, node_toe) = table[:, chosen]
    tk = seconds - toe
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
    grid = np.empty((*chosen.shape, 3))
    grid[..., 0] = x_orb * cn - y_orb * ci * sn
    grid[..., 1] = x_orb * sn + y_orb * ci * cn
    grid[..., 2] = y_orb * np.sin(inc)
    # where math.sin/cos would raise on an overflowed term, fail as loudly
    finite = np.isfinite(grid)
    bad = ~(finite[..., 0] & finite[..., 1] & finite[..., 2]) & (chosen >= 0)
    if bad.any():
        raise EphemerisError(f"{source[chosen[bad][0]].sat_id}: non-finite position "
                             f"propagated from its broadcast elements")
    return grid
