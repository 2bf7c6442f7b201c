"""The three benchmark workloads: seeded inputs, one timed operation, output checks.

Each workload draws every input from the run's seeded generator, so the
same seed gives the same sequence of operations. ``op`` is the only
timed call; ``collect`` (reading the output file) and ``check`` (the
independent oracles) run untimed and untraced.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

# Timed operations call through the module attributes (`cli.run`,
# `track.magnification_uv`, ...) so the traced run's wrappers see them;
# the oracles hold the functions bound here, which tracing never replaces.
from navbound import cli, track
from navbound.orbits import GpsTime, parse_rinex_nav, sat_position_ecef
from navbound.signal_model import default_spec, sample_waveform
from navbound.track import PseudorangeDelta

NAV_FILE = Path("tests") / "data" / "brdc2060.13n"

# WGS-84 and GPS values of the benchmark's own oracles.
_A = 6378137.0
_F = 1.0 / 298.257223563
_E2 = _F * (2.0 - _F)
_GM = 3.986005e14
_OMEGA_E = 7.2921151467e-5
_WEEK_S = 604800.0

CSV_HEADER = ["week", "sow", "n_visible", "best_m_s", "sat_a", "sat_b"]
SCAN_CHECK_EPOCHS = 16
REL_TOL = 1e-9


def _num(x: float) -> str:
    return repr(float(x))


def draw_scan_site(rng) -> dict:
    """Site (area-uniform in |lat| <= 70 deg), track azimuth and mask in 10-20 deg."""
    return {
        "lat": math.degrees(math.asin(rng.uniform(-1.0, 1.0) * math.sin(math.radians(70.0)))),
        "lon": rng.uniform(-180.0, 180.0),
        "height": rng.uniform(0.0, 500.0),
        "azimuth": rng.uniform(0.0, 360.0),
        "mask": rng.uniform(10.0, 20.0),
    }


def _enu(site: dict, ecef: np.ndarray) -> np.ndarray:
    """ENU components (rows of the result) of ECEF points about a geodetic site."""
    lat, lon = math.radians(site["lat"]), math.radians(site["lon"])
    sl, cl, so, co = math.sin(lat), math.cos(lat), math.sin(lon), math.cos(lon)
    n = _A / math.sqrt(1.0 - _E2 * sl * sl)
    h = site["height"]
    origin = np.array([(n + h) * cl * co, (n + h) * cl * so, (n * (1.0 - _E2) + h) * sl])
    rot = np.array([[-so, co, 0.0], [-sl * co, -sl * so, cl], [cl * co, cl * so, sl]])
    return (np.asarray(ecef) - origin) @ rot.T


def best_pair_oracle(ids, ecef, site) -> tuple[int, float | None, tuple | None]:
    """(n_visible, best M_s, pair) at one epoch from satellite ECEF positions.

    Best M_s = 1 / min(max f+, max |f-|); of the pairs reaching it the
    lexicographically smallest (sat_a < sat_b) is the reported pair.
    """
    enu = _enu(site, ecef)
    rng_m = np.linalg.norm(enu, axis=1)
    vis = np.degrees(np.arcsin(enu[:, 2] / rng_m)) >= site["mask"]
    order = sorted(np.flatnonzero(vis), key=lambda k: ids[k])
    az = math.radians(site["azimuth"])
    f = -(enu[order, 0] * math.sin(az) + enu[order, 1] * math.cos(az)) / rng_m[order]
    if not (f > 0).any() or not (f < 0).any():
        return len(order), None, None
    best = float(min(f[f > 0].max(), (-f[f < 0]).max()))
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if f[i] * f[j] < 0 and min(abs(f[i]), abs(f[j])) == best:
                return len(order), 1.0 / best, (ids[order[i]], ids[order[j]])
    raise AssertionError("unreachable: a best pair exists")


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


class Workload:
    """One workload: ``draw`` a batch of inputs, time ``op`` on each, then check.

    ``collect`` turns an operation's return value into its checked output,
    ``items`` counts the work units in an output (for throughput),
    ``output_counts`` gives per-operation output counters, ``record`` what
    the run keeps per operation, and ``notes`` run-level facts about those
    records.
    """

    unit = "operations"

    def draw(self) -> list:
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inputs, outputs) -> list[str | None]:
        raise NotImplementedError

    def collect(self, inp, result):
        return result

    def items(self, out) -> int:
        return 1

    def output_counts(self, out) -> dict:
        return {}

    def record(self, inp, out):
        return None

    def notes(self, records) -> dict:
        return {}


class _ScanInput:
    """One input file of `navbound scan`, its epoch step and its oracle.

    ``positions`` gives the satellite positions the oracle re-derives a
    checked epoch from.
    """

    def __init__(self, name: str, path: Path, step: float, expected_epochs: int,
                 out_path: Path):
        self.name, self.path, self.step = name, path, step
        self.expected_epochs = expected_epochs
        self.out_path = out_path

    def argv(self, site: dict) -> list[str]:
        return ["scan", "--nav", str(self.path), "--lat", _num(site["lat"]),
                "--lon", _num(site["lon"]), "--height", _num(site["height"]),
                "--azimuth", _num(site["azimuth"]), "--mask", _num(site["mask"]),
                "--step", _num(self.step), "--output", str(self.out_path)]

    def read(self, code: int) -> dict:
        if code != 0:
            return {"code": code, "csv": ""}
        data = self.out_path.read_bytes()
        self.out_path.unlink()
        return {"code": code, "csv": data.decode()}

    def positions(self, t: GpsTime):
        """(sat ids, ECEF array) of every satellite the scan may use at t."""
        raise NotImplementedError

    def check(self, site: dict, out: dict, rng) -> str | None:
        if out["code"] != 0:
            return f"exit code {out['code']}"
        rows = list(csv.reader(io.StringIO(out["csv"])))
        if not rows or rows[0] != CSV_HEADER:
            return "missing or wrong CSV header"
        rows = rows[1:]
        if len(rows) != self.expected_epochs:
            return f"{len(rows)} epochs, expected {self.expected_epochs}"
        secs = np.array([int(r[0]) * _WEEK_S + float(r[1]) for r in rows])
        if np.abs(np.diff(secs) - self.step).max() > 1e-3:
            return "epoch grid is not evenly spaced at the step"
        for k in sorted(rng.choice(len(rows), SCAN_CHECK_EPOCHS, replace=False)):
            week, sow, n_vis, m_s, sat_a, sat_b = rows[k]
            ids, ecef = self.positions(GpsTime(int(week), float(sow)))
            want_n, want_m, want_pair = best_pair_oracle(ids, ecef, site)
            if int(n_vis) != want_n:
                return f"epoch {k}: {n_vis} visible, oracle {want_n}"
            if want_m is None:
                if m_s != "":
                    return f"epoch {k}: value {m_s} where the oracle has a gap"
                continue
            if m_s == "" or (sat_a, sat_b) != want_pair:
                return f"epoch {k}: pair {(sat_a, sat_b)}, oracle {want_pair}"
            if abs(float(m_s) - want_m) > REL_TOL * want_m:
                return f"epoch {k}: M_s {m_s}, oracle {want_m!r}"
        return None


class RinexDay(_ScanInput):
    """The broadcast ephemeris test file, scanned over its full day at 60 s."""

    def __init__(self, root: Path, tmp: Path):
        nav = root / NAV_FILE
        super().__init__("rinex", nav, step=60.0, expected_epochs=1440,
                         out_path=tmp / "scan-rinex.csv")
        records = parse_rinex_nav(nav.read_text())
        self.records = records
        self.toe_s = np.array([r.toe.total_seconds() for r in records])
        self.window = np.array([r.validity_window for r in records])
        self.sat_of = np.array([r.sat_id for r in records])
        self.sat_ids = sorted(set(self.sat_of))

    def positions(self, t):
        """Nearest-toe record per satellite (first in file order on ties)."""
        dist = np.abs(t.total_seconds() - self.toe_s)
        ids, ecef = [], []
        for sat in self.sat_ids:
            cand = np.flatnonzero((self.sat_of == sat) & (dist <= self.window))
            if len(cand):
                ids.append(sat)
                ecef.append(sat_position_ecef(self.records[cand[np.argmin(dist[cand])]], t))
        return ids, np.array(ecef)


def position_table(rng, n_sats: int = 31, n_epochs: int = 288, step: float = 300.0):
    """Seeded GPS-like constellation sampled at the 5-minute SP3 cadence.

    Six planes at 55 deg inclination, near-circular orbits of about
    26 560 km with seeded node offset, slot phases and radii. Returns
    (sat ids, week, sow array, ECEF positions[n_epochs, n_sats, 3]).
    """
    day = dt.date(2013, 7, 25)
    days = (day - dt.date(1980, 1, 6)).days
    week, sow0 = days // 7, (days % 7) * 86400.0 + 16.0
    sow = sow0 + step * np.arange(n_epochs)
    plane = np.arange(n_sats) % 6
    raan = np.radians(60.0 * plane + rng.uniform(0.0, 60.0))
    phase = (2 * np.pi * (np.arange(n_sats) // 6) / 6
             + rng.uniform(-0.3, 0.3, n_sats) + np.radians(15.0 * plane))
    radius = 26_559_700.0 + rng.uniform(-50_000.0, 50_000.0, n_sats)
    inc = np.radians(55.0 + rng.uniform(-1.0, 1.0, n_sats))
    t = (sow - sow0)[:, None]
    u = phase + np.sqrt(_GM / radius ** 3) * t
    node = raan - _OMEGA_E * (sow[:, None])
    x_orb, y_orb = radius * np.cos(u), radius * np.sin(u)
    pos = np.stack([x_orb * np.cos(node) - y_orb * np.cos(inc) * np.sin(node),
                    x_orb * np.sin(node) + y_orb * np.cos(inc) * np.cos(node),
                    y_orb * np.sin(inc)], axis=-1)
    ids = [f"G{k + 1:02d}" for k in range(n_sats)]
    return ids, week, sow, pos


class PositionTable5Min(_ScanInput):
    """A generated 31-satellite x 288-epoch position table, scanned at 300 s.

    Rows are epoch-major, as an SP3 file lists them.
    """

    def __init__(self, tmp: Path, rng):
        self.ids, week, self.sow, pos = position_table(rng)
        lines = ["sat_id,week,sow,x_m,y_m,z_m"]
        for e, s in enumerate(self.sow):
            for k, sat in enumerate(self.ids):
                lines.append(f"{sat},{week},{s:.3f}," + ",".join(f"{v:.3f}" for v in pos[e, k]))
        # The oracle uses exactly the millimetre values the table carries.
        self.pos = np.array([[float(v) for v in line.split(",")[3:]]
                             for line in lines[1:]]).reshape(pos.shape)
        table = tmp / "positions_5min.csv"
        table.write_text("\n".join(lines) + "\n")
        super().__init__("positions", table, step=300.0,
                         expected_epochs=len(self.sow), out_path=tmp / "scan-positions.csv")

    def positions(self, t):
        e = int(np.flatnonzero(np.abs(self.sow - t.seconds_of_week) < 1e-6)[0])
        return self.ids, self.pos[e]


class ScanDay(Workload):
    """`navbound scan` of one seeded site from both inputs the command reads.

    One operation scans the site over the full day of the broadcast RINEX
    file (Kepler propagation) and then over the generated 5-minute position
    table (table lookup), so both ingestion paths run in every operation.
    """

    unit = "epochs"

    def __init__(self, root, tmp, rng):
        self.rng = rng
        self.inputs = [RinexDay(root, tmp), PositionTable5Min(tmp, rng)]

    def draw(self) -> list[dict]:
        site = draw_scan_site(self.rng)
        return [{"site": site, "argv": [s.argv(site) for s in self.inputs]}]

    def op(self, inp):
        return [cli.run(argv) for argv in inp["argv"]]

    def collect(self, inp, codes):
        return [s.read(code) for s, code in zip(self.inputs, codes)]

    def items(self, out) -> int:
        return sum(s.expected_epochs for s in self.inputs)

    def output_counts(self, out) -> dict:
        rows = [r for o in out for r in list(csv.reader(io.StringIO(o["csv"])))[1:]]
        gaps = sum(1 for r in rows if r[3] == "")
        return {"scan.epochs": len(rows), "scan.gap_epochs": gaps,
                "scan.admissible_frac": 1.0 - gaps / len(rows),
                "scan.visible_per_epoch": sum(int(r[2]) for r in rows) / len(rows)}

    def record(self, inp, out) -> dict:
        """What is kept per operation in the run's results (the CSV hashes)."""
        return {"site": inp["site"],
                "sha256": {s.name: hashlib.sha256(o["csv"].encode()).hexdigest()
                           for s, o in zip(self.inputs, out)}}

    def check(self, inputs, outputs) -> list[str | None]:
        return [self._check_one(i, o) for i, o in zip(inputs, outputs)]

    def _check_one(self, inp, out) -> str | None:
        for scan_input, o in zip(self.inputs, out):
            if (err := scan_input.check(inp["site"], o, self.rng)) is not None:
                return f"{scan_input.name}: {err}"
        return None


class InterferenceSweep(Workload):
    """`navbound interference` at seeded PRN, delay and noise seed."""

    unit = "experiments"

    def __init__(self, root, tmp, rng):
        self.rng = rng
        self.out_path = tmp / "interference.json"
        self.specs = {}

    def draw(self) -> list[dict]:
        prn = int(self.rng.integers(1, 33))
        if prn not in self.specs:
            self.specs[prn] = default_spec(prn)
        spec = self.specs[prn]
        tau = self.rng.uniform(0.0, spec.code_period)
        w_norm = sample_waveform(spec, tau, 0).norm()
        power = (1e-4 * w_norm) ** 2
        seed = int(self.rng.integers(0, 2 ** 31))
        return [{"prn": prn, "tau": tau, "chip": spec.chip_duration, "argv": [
            "interference", "--prn", str(prn), "--power", _num(power),
            "--sigma", "0.01", "--seed", str(seed), "--tau", _num(tau),
            "--format", "json", "--output", str(self.out_path)]}]

    def op(self, inp):
        return cli.run(inp["argv"])

    def collect(self, inp, code):
        if code != 0:
            return {"code": code, "fields": {}}
        fields = json.loads(self.out_path.read_text())
        self.out_path.unlink()
        return {"code": code, "fields": fields}

    def record(self, inp, out) -> dict:
        f = out["fields"]
        return {"prn": inp["prn"],
                "ratio": abs(f["delta_tau_empirical"]) / f["delta_tau_bound"]}

    def notes(self, records) -> dict:
        """Share of operations whose PRN already ran: the hit share of a per-PRN cache."""
        prns = [r["prn"] for r in records]
        return {"prn_repeat_frac": 1.0 - len(set(prns)) / max(len(prns), 1)}

    def check(self, inputs, outputs) -> list[str | None]:
        return [self._check_one(i, o) for i, o in zip(inputs, outputs)]

    @staticmethod
    def _check_one(inp, out) -> str | None:
        if out["code"] != 0:
            return f"exit code {out['code']}"
        f = out["fields"]
        ratio = abs(f["delta_tau_empirical"]) / f["delta_tau_bound"]
        if not 0.95 <= ratio <= 1.05:
            return f"prn {inp['prn']}: shift/bound ratio {ratio:.6f} outside [0.95, 1.05]"
        if abs(f["tau0"] - inp["tau"]) > 0.05 * inp["chip"]:
            return f"prn {inp['prn']}: tau0 {f['tau0']!r} far from {inp['tau']!r}"
        return None


class TrackTriples(Workload):
    """Seeded satellite triples through the three- and two-satellite bounds."""

    unit = "triples"
    batch_size = 1000

    def __init__(self, root, tmp, rng):
        self.rng = rng

    def draw(self) -> list[tuple]:
        """Three directions above 5 deg elevation against one track azimuth each."""
        n = self.batch_size
        el = np.radians(self.rng.uniform(5.0, 90.0, (n, 3)))
        az = np.radians(self.rng.uniform(0.0, 360.0, (n, 3)))
        track = np.radians(self.rng.uniform(0.0, 360.0, (n, 1)))
        east, north = np.sin(az) * np.cos(el), np.cos(az) * np.cos(el)
        # g = -d against U = (sin a, cos a, 0) and V = (-cos a, sin a, 0)
        f = -(east * np.sin(track) + north * np.cos(track))
        h = -(-east * np.cos(track) + north * np.sin(track))
        r = self.rng.uniform(0.0, 1.0, (n, 3))
        return list(zip(f.tolist(), h.tolist(), r.tolist()))

    def op(self, inp):
        f, h, r = inp
        sats = [track.synthetic_geometry(s, f[j], h[j]) for j, s in enumerate("abc")]
        muv = track.magnification_uv(sats)
        sol = None
        if muv.admissible:
            sol = track.solve_three_sat(sats, [PseudorangeDelta(s, r[j])
                                               for j, s in enumerate("abc")])
        return muv, sol, track.magnification_s(sats[0], sats[1])

    def check(self, inputs, outputs) -> list[str | None]:
        """Compare with the cyclic-cofactor closed form, vectorised over the batch."""
        f = np.array([i[0] for i in inputs])
        h = np.array([i[1] for i in inputs])
        r = np.array([i[2] for i in inputs])
        f1, f2, f3 = f.T
        h1, h2, h3 = h.T
        cof = np.stack([f2 * h3 - f3 * h2, f3 * h1 - f1 * h3, f1 * h2 - f2 * h1], axis=1)
        adm = (cof > 0).all(axis=1) | (cof < 0).all(axis=1)
        min_cof = np.abs(cof).min(axis=1)
        with np.errstate(divide="ignore"):
            m_u = np.abs(np.stack([h2 - h3, h3 - h1, h1 - h2], 1)).max(1) / min_cof
            m_v = np.abs(np.stack([f2 - f3, f3 - f1, f1 - f2], 1)).max(1) / min_cof
        adj = np.stack([np.stack([h2 - h3, h3 - h1, h1 - h2], 1),
                        np.stack([f3 - f2, f1 - f3, f2 - f1], 1), cof], 1)
        sol_ref = np.einsum("nij,nj->ni", adj, r) / cof.sum(axis=1)[:, None]
        ms_adm = f1 * f2 < 0
        m_s = 1.0 / np.minimum(np.abs(f1), np.abs(f2))
        out = []
        for k, (muv, sol, ms) in enumerate(outputs):
            err = None
            if muv.admissible != adm[k]:
                err = f"triple {k}: admissible {muv.admissible}, oracle {bool(adm[k])}"
            elif adm[k] and not (_near(muv.m_u, m_u[k]) and _near(muv.m_v, m_v[k])):
                err = (f"triple {k}: M_u/M_v {muv.m_u!r}/{muv.m_v!r}, "
                       f"oracle {float(m_u[k])!r}/{float(m_v[k])!r}")
            elif adm[k] and not all(_near(x, y) for x, y in zip(
                    (sol.delta_u, sol.delta_v, sol.delta_b), sol_ref[k])):
                err = f"triple {k}: solve {sol}, oracle {sol_ref[k].tolist()}"
            elif ms.admissible != ms_adm[k] or (ms_adm[k] and not _near(ms.m_s, m_s[k])):
                err = f"triple {k}: M_s {ms.m_s!r}, oracle {float(m_s[k]) if ms_adm[k] else None}"
            out.append(err)
        return out


WORKLOADS = {
    "scan_day": ScanDay,
    "interference_sweep": InterferenceSweep,
    "track_triples": TrackTriples,
}
