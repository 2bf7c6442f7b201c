import dataclasses
import datetime as dt
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navbound.constants import GM_EARTH, OMEGA_EARTH, WGS84_A, WGS84_B
from navbound.orbits import (EphemerisError, EphemerisRecord, GpsTime,
                             RinexParseError, SiteLocation, _kepler_array,
                             ecef_to_enu, enu_rotation, geodetic_to_ecef,
                             parse_position_csv, parse_rinex_nav,
                             position_grid, prepare_grid, sat_position_ecef,
                             solve_kepler, visible_satellites)

HEADER = (
    "     2.11           N: GPS NAV DATA                        "
    "RINEX VERSION / TYPE\n"
    "                                                            "
    "END OF HEADER\n"
)


def circular_record(sat_id="G01", week=1750, toe_sow=345600.0,
                    sqrt_a=5153.55, **kwargs):
    defaults = dict(e=0.0, m0=0.0, delta_n=0.0, i0=math.radians(55),
                    idot=0.0, omega0=0.0, omega_dot=0.0, w_arg=0.0)
    defaults.update(kwargs)
    return EphemerisRecord(sat_id=sat_id, toe=GpsTime(week, toe_sow),
                           sqrt_a=sqrt_a, **defaults)


class TestGpsTime:
    def test_ordering(self):
        assert GpsTime(1750, 100.0) < GpsTime(1750, 200.0) < GpsTime(1751, 0.0)

    def test_subtraction_and_rollover(self):
        t = GpsTime(1750, 604700.0).add_seconds(200.0)
        assert t == GpsTime(1751, 100.0)
        assert t - GpsTime(1750, 604700.0) == pytest.approx(200.0)

    def test_sow_range_enforced(self):
        with pytest.raises(ValueError):
            GpsTime(1750, 604800.0)

    @pytest.mark.parametrize("total", [math.inf, -math.inf, math.nan])
    def test_non_finite_seconds_rejected(self, total):
        with pytest.raises(ValueError, match="finite"):
            GpsTime.from_seconds(total)

    def test_utc_roundtrip(self):
        utc = dt.datetime(2013, 7, 25, 12, 30)
        t = GpsTime.from_utc(utc)
        assert t.to_utc() == utc
        # 16 leap seconds in 2013
        assert GpsTime.from_utc(utc, 0.0).seconds_of_week \
            == pytest.approx(t.seconds_of_week - 16.0)


class TestKeplerSolver:
    def test_residual_grid(self):
        for e in np.linspace(0.0, 0.03, 7):
            for m in np.linspace(0.0, 2 * math.pi, 25, endpoint=False):
                ecc = solve_kepler(m, e)
                target = math.remainder(m, 2 * math.pi)
                assert abs(ecc - e * math.sin(ecc) - target) <= 1e-12

    def test_circular(self):
        assert solve_kepler(1.234, 0.0) == pytest.approx(1.234)

    def test_bisection_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            e = rng.uniform(0, 0.03)
            m = rng.uniform(-math.pi, math.pi)

            lo, hi = m - 1.0, m + 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if mid - e * math.sin(mid) - m < 0:
                    lo = mid
                else:
                    hi = mid
            assert solve_kepler(m, e) == pytest.approx(0.5 * (lo + hi),
                                                       abs=1e-12)


class TestSatPosition:
    def test_circular_orbit_radius(self):
        eph = circular_record()
        t = eph.toe.add_seconds(1000.0)
        pos = sat_position_ecef(eph, t)
        assert np.linalg.norm(pos) == pytest.approx(eph.sqrt_a ** 2, rel=1e-12)

    def test_circular_orbit_radius_conserved(self):
        eph = circular_record(i0=math.radians(55), omega0=1.0, w_arg=0.5)
        radii = [np.linalg.norm(sat_position_ecef(eph, eph.toe.add_seconds(s)))
                 for s in range(-3600, 3600, 300)]
        assert (max(radii) - min(radii)) / max(radii) <= 1e-6

    def test_stale_ephemeris(self):
        eph = circular_record()
        with pytest.raises(EphemerisError):
            sat_position_ecef(eph, eph.toe.add_seconds(5 * 3600.0))

    def test_eccentricity_validation(self):
        with pytest.raises(ValueError):
            circular_record(e=1.5)

    def test_implausible_axis_rejected(self):
        with pytest.raises(ValueError):
            circular_record(sqrt_a=1000.0)


class TestRealEphemerides:
    def test_position_magnitude_and_speed(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        assert ephs
        for eph in ephs[::17]:
            t = eph.toe.add_seconds(1800.0)
            pos = sat_position_ecef(eph, t)
            assert 2.58e7 <= np.linalg.norm(pos) <= 2.72e7
            vel = (sat_position_ecef(eph, t.add_seconds(1.0)) - pos)
            assert 2500 <= np.linalg.norm(vel) <= 4500

    def test_bisection_kepler_oracle_positions(self, nav_text):
        # independent eccentric-anomaly bisection, same rotation formulas
        ephs = parse_rinex_nav(nav_text)
        for eph in ephs[::31]:
            t = eph.toe.add_seconds(900.0)
            tk = t - eph.toe
            a = eph.sqrt_a ** 2
            n = math.sqrt(GM_EARTH / a ** 3) + eph.delta_n
            m = math.remainder(eph.m0 + n * tk, 2 * math.pi)
            lo, hi = m - 1.0, m + 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if mid - eph.e * math.sin(mid) - m < 0:
                    lo = mid
                else:
                    hi = mid
            ecc = 0.5 * (lo + hi)
            nu = math.atan2(math.sqrt(1 - eph.e ** 2) * math.sin(ecc),
                            math.cos(ecc) - eph.e)
            phi = nu + eph.w_arg
            s2p, c2p = math.sin(2 * phi), math.cos(2 * phi)
            u = phi + eph.cus * s2p + eph.cuc * c2p
            r = a * (1 - eph.e * math.cos(ecc)) + eph.crs * s2p + eph.crc * c2p
            inc = eph.i0 + eph.idot * tk + eph.cis * s2p + eph.cic * c2p
            node = (eph.omega0 + (eph.omega_dot - OMEGA_EARTH) * tk
                    - OMEGA_EARTH * eph.toe.seconds_of_week)
            xo, yo = r * math.cos(u), r * math.sin(u)
            oracle = np.array([
                xo * math.cos(node) - yo * math.cos(inc) * math.sin(node),
                xo * math.sin(node) + yo * math.cos(inc) * math.cos(node),
                yo * math.sin(inc),
            ])
            pos = sat_position_ecef(eph, t)
            assert np.linalg.norm(pos - oracle) <= 1e-4


class TestGeodetic:
    def test_equator(self):
        assert np.allclose(geodetic_to_ecef(SiteLocation(0.0, 0.0, 0.0)),
                           [WGS84_A, 0, 0], atol=1e-9)

    def test_pole(self):
        pos = geodetic_to_ecef(SiteLocation(90.0, 45.0, 0.0))
        assert np.allclose(pos, [0, 0, WGS84_B], atol=1e-6)
        assert pos[2] == pytest.approx(6356752.314, abs=1e-2)

    def test_roundtrip_with_iterative_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            site = SiteLocation(float(rng.uniform(-89, 89)),
                                float(rng.uniform(-179, 180)),
                                float(rng.uniform(-100, 9000)))
            x, y, z = geodetic_to_ecef(site)

            # independent ECEF -> geodetic fixed-point iteration
            lon = math.degrees(math.atan2(y, x))
            p = math.hypot(x, y)
            e2 = 1 - (WGS84_B / WGS84_A) ** 2
            lat = math.atan2(z, p * (1 - e2))
            for _ in range(50):
                n = WGS84_A / math.sqrt(1 - e2 * math.sin(lat) ** 2)
                h = p / math.cos(lat) - n
                lat = math.atan2(z, p * (1 - e2 * n / (n + h)))
            assert math.degrees(lat) == pytest.approx(site.latitude, abs=1e-9)
            assert lon == pytest.approx(site.longitude, abs=1e-9)

    def test_site_validation(self):
        with pytest.raises(ValueError):
            SiteLocation(91.0, 0.0)
        with pytest.raises(ValueError):
            SiteLocation(0.0, 200.0)

    @pytest.mark.parametrize("lat, lon, height", [
        (math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan),
        (0.0, 0.0, math.inf), (0.0, 0.0, -math.inf)])
    def test_non_finite_site_rejected(self, lat, lon, height):
        with pytest.raises(ValueError, match="finite"):
            SiteLocation(lat, lon, height)


class TestEnu:
    SITE = SiteLocation(34.75337, 135.42783, 3.7)

    def test_zenith(self):
        up = geodetic_to_ecef(self.SITE)
        up_dir = enu_rotation(self.SITE)[2]
        enu, el, _ = ecef_to_enu(self.SITE, up + 1000.0 * up_dir)
        assert np.allclose(enu, [0, 0, 1000.0], atol=1e-6)
        assert el == pytest.approx(90.0)

    def test_due_east_horizon(self):
        east = enu_rotation(self.SITE)[0]
        enu, el, az = ecef_to_enu(self.SITE,
                                  geodetic_to_ecef(self.SITE) + 5000.0 * east)
        assert az == pytest.approx(90.0, abs=1e-9)
        assert el == pytest.approx(0.0, abs=1e-9)

    def test_rotation_orthonormal(self):
        r = enu_rotation(self.SITE)
        assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-12

    def test_distance_preserved(self):
        point = geodetic_to_ecef(self.SITE) + np.array([1e6, -2e6, 1.5e6])
        enu, _, _ = ecef_to_enu(self.SITE, point)
        ecef_range = np.linalg.norm(point - geodetic_to_ecef(self.SITE))
        assert np.linalg.norm(enu) == pytest.approx(ecef_range, rel=1e-6)

    def test_zero_range(self):
        with pytest.raises(ValueError):
            ecef_to_enu(self.SITE, geodetic_to_ecef(self.SITE))

    def test_zenith_ratio_clamped(self):
        # |up| / range can round just above 1 straight overhead; unclamped,
        # arcsin gave NaN and the satellite was dropped as not visible
        cases = [
            (SiteLocation(2.1278924460462036, 162.17188430770406, 72.07980635981687),
             [-26841032.91382887, 8632244.10520671, 1046021.90511038]),
            (SiteLocation(54.90052627416844, 110.87789022616406, 257.662780521071),
             [-6382526.99130173, 16733558.89957507, 25448065.204835523]),
        ]
        rng = np.random.default_rng(5)
        for _ in range(200):
            site = SiteLocation(float(rng.uniform(-90, 90)),
                                float(rng.uniform(-179.9, 180)),
                                float(rng.uniform(0, 500)))
            points = (geodetic_to_ecef(site) + rng.uniform(2.0e7, 2.7e7, (30, 1))
                      * enu_rotation(site)[2])
            cases.append((site, points))
        for site, point in cases:
            _, el, _ = ecef_to_enu(site, np.array(point))
            assert not np.isnan(el).any()
            assert np.abs(el - 90.0).max() <= 1e-5


class TestParser:
    def test_empty_body(self):
        assert parse_rinex_nav(HEADER) == []

    def test_bad_version(self):
        with pytest.raises(RinexParseError):
            parse_rinex_nav(HEADER.replace("2.11", "3.04"))

    def test_not_navigation(self):
        with pytest.raises(RinexParseError):
            parse_rinex_nav(HEADER.replace("N: GPS NAV DATA",
                                           "O: OBSERVATION  "))

    def test_missing_header_terminator(self):
        with pytest.raises(RinexParseError):
            parse_rinex_nav(HEADER.splitlines()[0] + "\n")

    def test_block_count_oracle(self, nav_text):
        records = parse_rinex_nav(nav_text)
        lines = nav_text.splitlines()
        body = lines[lines.index(next(l for l in lines
                                      if "END OF HEADER" in l)) + 1:]
        body = [l for l in body if l.strip()]
        assert len(records) == len(body) // 8

    def test_bad_eccentricity_skipped(self, nav_text, caplog):
        lines = nav_text.splitlines()
        # eccentricity is field 2 of orbit line 2 (record lines are 8 long)
        start = next(i for i, l in enumerate(lines) if "END OF HEADER" in l) + 1
        bad = lines[start + 2]
        lines[start + 2] = bad[:22] + " 0.150000000000D+01" + bad[41:]
        records = parse_rinex_nav("\n".join(lines))
        full = parse_rinex_nav(nav_text)
        assert len(records) == len(full) - 1

    def test_d_and_e_exponents_equivalent(self, nav_text):
        swapped = nav_text.replace("D+", "E+").replace("D-", "E-")
        a = parse_rinex_nav(nav_text)
        b = parse_rinex_nav(swapped)
        assert a == b

    def test_trailing_whitespace_trimmed_lines(self, nav_text):
        trimmed = "\n".join(l.rstrip() for l in nav_text.splitlines())
        assert parse_rinex_nav(trimmed) == parse_rinex_nav(nav_text)

    def test_determinism(self, nav_text):
        assert parse_rinex_nav(nav_text) == parse_rinex_nav(nav_text)

    @pytest.mark.parametrize("row, col, width, value", [
        (0, 17, 5, "inf"),            # epoch seconds
        (6, 22, 19, "inf"),           # health word
        (4, 41, 19, "0.1D999"),       # argument of perigee
        (3, 41, 19, "-inf"),          # OMEGA0
        (4, 22, 19, "nan"),           # Crc
    ])
    def test_infinite_field_skipped(self, nav_text, row, col, width, value):
        # a non-finite field is a malformed record: inf in the epoch seconds
        # or the health word used to escape as OverflowError, and inf in an
        # orbit element used to propagate to a NaN position
        lines = nav_text.splitlines()
        start = next(i for i, l in enumerate(lines) if "END OF HEADER" in l) + 1
        line = lines[start + row]
        lines[start + row] = line[:col] + value.rjust(width) + line[col + width:]
        records = parse_rinex_nav("\n".join(lines))
        assert records == parse_rinex_nav(nav_text)[1:]

    def test_health_word_read(self, nav_text):
        lines = nav_text.splitlines()
        # SV health is field 2 of orbit line 6 (line 7 of the record block)
        start = next(i for i, l in enumerate(lines) if "END OF HEADER" in l) + 1
        line = lines[start + 6]
        lines[start + 6] = line[:22] + " 0.630000000000D+02" + line[41:]
        records = parse_rinex_nav("\n".join(lines))
        assert records[0].health == 63
        assert all(r.health == 0 for r in records[1:])


class TestVisibility:
    SITE = SiteLocation(34.75337, 135.42783, 3.7)

    def test_real_day_counts(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        t0 = GpsTime.from_utc(dt.datetime(2013, 7, 25))
        for k in range(0, 1440, 60):
            vis = visible_satellites(ephs, self.SITE, t0.add_seconds(60.0 * k))
            assert 5 <= len(vis) <= 14

    def test_mask_monotonicity(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 6))
        ids = {}
        for mask in (5.0, 15.0, 30.0, 60.0):
            ids[mask] = {v.sat_id for v in
                         visible_satellites(ephs, self.SITE, t, mask)}
        assert ids[60.0] <= ids[30.0] <= ids[15.0] <= ids[5.0]

    def test_extreme_mask(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 6))
        vis = visible_satellites(ephs, self.SITE, t, 89.99)
        assert len(vis) <= 1

    def test_unit_directions_and_g(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 12))
        for v in visible_satellites(ephs, self.SITE, t):
            assert np.linalg.norm(v.enu_unit_dir) == pytest.approx(1.0, abs=1e-9)
            assert 15.0 <= v.elevation <= 90.0

    def test_empty_ephemerides(self):
        with pytest.raises(ValueError):
            visible_satellites([], self.SITE, GpsTime(1750, 0.0))


class TestPositionCsv:
    def test_roundtrip_against_kepler(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        site = SiteLocation(34.75337, 135.42783, 3.7)
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 3))
        vis_direct = visible_satellites(ephs, site, t)

        rows = ["sat_id,week,sow,x_m,y_m,z_m"]
        by_sat = {}
        for eph in ephs:
            if abs(t - eph.toe) > eph.validity_window:
                continue
            prev = by_sat.get(eph.sat_id)
            if prev is None or abs(t - eph.toe) < abs(t - prev.toe):
                by_sat[eph.sat_id] = eph
        for sat_id, eph in sorted(by_sat.items()):
            x, y, z = sat_position_ecef(eph, t)
            rows.append(f"{sat_id},{t.week},{t.seconds_of_week},{x},{y},{z}")
        table = parse_position_csv("\n".join(rows))
        vis_csv = visible_satellites(table, site, t)
        assert [v.sat_id for v in vis_csv] == [v.sat_id for v in vis_direct]

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_position_csv("G01,1750,0,1,2,3")

    @pytest.mark.parametrize("row, message", [
        # week * 604800 does not fit a float: this used to escape as an
        # OverflowError and end the scan in a traceback
        (f"G01,{'9' * 400},0,1.5e7,1.5e7,1.5e7", "too large"),
        # a non-finite coordinate used to be kept, and the satellite then
        # dropped out of the scan behind numpy warnings
        ("G01,1750,0,1e400,1.5e7,1.5e7", "non-finite"),
        ("G01,1750,0,1.5e7,-1e400,1.5e7", "non-finite"),
        ("G01,1750,0,1.5e7,1.5e7,nan", "non-finite"),
        ("G01,1750,0,inf,1.5e7,1.5e7", "non-finite"),
        ("G01,1750,604800,1.5e7,1.5e7,1.5e7", "out of [0, 604800)"),
        ("G01,1750,nan,1.5e7,1.5e7,1.5e7", "out of [0, 604800)"),
    ])
    def test_malformed_row_skipped_with_line_number(self, caplog, row, message):
        text = "\n".join(["sat_id,week,sow,x_m,y_m,z_m", row,
                          "G02,1750,0,-1.5e7,1.5e7,1.5e7"])
        with caplog.at_level(logging.WARNING, logger="navbound.orbits"):
            table = parse_position_csv(text)
        assert table.sat_ids == ("G02",) and np.isfinite(table.ecef).all()
        [record] = caplog.records
        assert record.getMessage().startswith("line 2: skipping malformed row")
        assert message in record.getMessage()

    def test_fields_stripped_and_time_as_gps_time(self):
        table = parse_position_csv("sat_id,week,sow,x_m,y_m,z_m\n"
                                   " G05 , 1750 ,\t345616.3 , 1.5e7,-2e7 ,3e6\n")
        assert table.sat_ids == ("G05",)
        assert table.epochs.tolist() == [GpsTime(1750, 345616.3).total_seconds()]
        assert table.ecef.tolist() == [[[1.5e7, -2e7, 3e6]]]


def csv_field():
    """A position-CSV field: plausible, hostile or arbitrary text."""
    return st.one_of(
        st.sampled_from(["1e400", "-1e400", "nan", "inf", "9" * 400, "604800",
                         "", "abc"]),
        st.sampled_from(["G01", " G02 ", "1750", " 0", "345600.5", "-1",
                         "1.5e7", "-2e7 ", "1_0"]),
        st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
        st.text(max_size=6))


VALID_ROW = st.tuples(
    st.sampled_from(["G01", "G02", "G03"]), st.integers(0, 3000).map(str),
    st.floats(0.0, 604800.0, exclude_max=True).map(repr),
    *[st.floats(-3e7, 3e7).map(repr)] * 3).map(list)


@st.composite
def csv_row(draw):
    """A valid row with some fields replaced, and then cut or extended to a
    drawn field count."""
    row = draw(VALID_ROW)
    for k, value in draw(st.lists(st.tuples(st.integers(0, 7), csv_field()),
                                  max_size=3)):
        row[min(k, len(row) - 1)] = value
    count = draw(st.one_of(st.just(6), st.integers(0, 8)))
    return ",".join((row + draw(st.lists(csv_field(), min_size=2, max_size=2)))[:count])


class TestPositionCsvFuzz:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([True] * 3 + [False]),
           st.lists(st.one_of(VALID_ROW.map(",".join), csv_row()), max_size=10))
    def test_rows_are_skipped_or_kept_finite(self, header, rows):
        text = "\n".join(["sat_id,week,sow,x_m,y_m,z_m"] * header + rows)
        try:
            table = parse_position_csv(text)
        except ValueError as exc:
            assert not header and "header row" in str(exc)
            return
        assert np.isfinite(table.epochs).all()
        cells = table.ecef.reshape(-1, 3)
        kept = np.isfinite(cells).all(axis=1)
        assert (kept | np.isnan(cells).all(axis=1)).all()
        assert kept.sum() <= len(rows)


def seconds(epochs):
    """GPS seconds of each GpsTime, the epoch axis `position_grid` takes."""
    return [t.total_seconds() for t in epochs]


def scalar_grid(records, epochs):
    """Oracle for the ephemeris branch of `position_grid`: per cell, the
    nearest-toe healthy record inside its window (first in file order on
    ties), propagated by scalar `sat_position_ecef`."""
    sat_ids = sorted({r.sat_id for r in records})
    grid = np.full((len(epochs), len(sat_ids), 3), np.nan)
    for s, sat_id in enumerate(sat_ids):
        own = [r for r in records if r.sat_id == sat_id and r.health == 0]
        for i, t in enumerate(epochs):
            valid = [r for r in own if abs(t - r.toe) <= r.validity_window]
            if valid:
                nearest = min(valid, key=lambda r: abs(t - r.toe))
                grid[i, s] = sat_position_ecef(nearest, t)
    return tuple(sat_ids), grid


class TestPositionGrid:
    def test_matches_scalar_oracle_full_day(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        # the day at 60 s, plus 6 h either side so that stale cells occur
        t0 = GpsTime.from_utc(dt.datetime(2013, 7, 24, 18))
        epochs = [t0.add_seconds(60.0 * k) for k in range(2160)]
        sat_ids, grid = position_grid(ephs, seconds(epochs))
        oracle_ids, oracle = scalar_grid(ephs, epochs)
        assert sat_ids == oracle_ids
        assert np.array_equal(np.isnan(grid), np.isnan(oracle))
        assert np.isnan(oracle).any() and not np.isnan(oracle).all()
        assert np.nanmax(np.abs(grid - oracle)) <= 1e-6

    def test_validity_window_edge(self):
        eph = circular_record(m0=0.3, e=0.01)
        window = eph.validity_window
        epochs = [eph.toe.add_seconds(dt_s) for dt_s in
                  (-window - 1e-3, -window, 0.0, window, window + 1e-3)]
        _, grid = position_grid([eph], seconds(epochs))
        assert np.isnan(grid[[0, 4], 0]).all()
        for i in (1, 2, 3):
            assert np.abs(grid[i, 0] - sat_position_ecef(eph, epochs[i])).max() <= 1e-6

    def test_unhealthy_record_excluded(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        site = SiteLocation(34.75337, 135.42783, 3.7)
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 6))
        seen = visible_satellites(ephs, site, t)[0]
        nearest = min((r for r in ephs if r.sat_id == seen.sat_id),
                      key=lambda r: abs(t - r.toe))
        sick = dataclasses.replace(nearest, health=1)

        sat_ids, grid = position_grid([sick], [t.total_seconds()])
        assert sat_ids == (seen.sat_id,) and np.isnan(grid).all()
        others = [r for r in ephs if r.sat_id != seen.sat_id]
        assert seen.sat_id not in {v.sat_id for v in
                                   visible_satellites(others + [sick], site, t)}
        # an older healthy record of the same satellite takes over
        rest = [r for r in ephs if r is not nearest]
        _, with_sick = position_grid(rest + [sick], [t.total_seconds()])
        _, without = position_grid(rest, [t.total_seconds()])
        assert np.array_equal(with_sick, without)

    def test_block_sizes_give_identical_grids(self, nav_text):
        # the day at 60 s and 6 h either side (stale cells), with one record
        # unhealthy where it is the nearest: grids in blocks of any size are
        # the one-call grid, bit for bit
        records = parse_rinex_nav(nav_text)
        t0 = GpsTime.from_utc(dt.datetime(2013, 7, 24, 18))
        secs = t0.total_seconds() + 60.0 * np.arange(2160)
        sick = len(records) // 2
        records[sick] = dataclasses.replace(records[sick], health=1)
        _, whole = position_grid(records, secs)
        _, healthy = position_grid(parse_rinex_nav(nav_text), secs)
        assert np.isnan(whole).any() and not np.isnan(whole).all()
        assert not np.array_equal(whole, healthy, equal_nan=True)
        _, grid_of = prepare_grid(records)
        for block in (1, 7, 256, len(secs)):
            grid = np.concatenate([grid_of(secs[k:k + block])
                                   for k in range(0, len(secs), block)])
            assert grid.tobytes() == whole.tobytes()

    def test_equidistant_records_first_in_file_order(self):
        t = GpsTime(1750, 345600.0)
        early = circular_record(toe_sow=t.seconds_of_week - 3600.0, m0=0.1)
        late = circular_record(toe_sow=t.seconds_of_week + 3600.0, m0=0.7)
        sick = circular_record(toe_sow=t.seconds_of_week, m0=1.3, health=1)
        for records in ([early, late], [late, early], [sick, late, early]):
            first = next(r for r in records if r.health == 0)
            _, grid = position_grid(records, [t.total_seconds()])
            _, alone = position_grid([first], [t.total_seconds()])
            assert np.array_equal(grid, alone)
            assert np.abs(grid[0, 0] - sat_position_ecef(first, t)).max() <= 1e-6
        apart = sat_position_ecef(early, t) - sat_position_ecef(late, t)
        assert np.abs(apart).max() > 1e6

    def test_kernel_matches_solve_kepler(self):
        m = np.linspace(-40.0, 40.0, 801)
        for e in (0.0, 0.01, 0.3, 0.85):
            scalar = []
            for mk in m:
                try:
                    scalar.append(solve_kepler(mk, e))
                except EphemerisError:
                    scalar.append(None)
            ok = np.array([x is not None for x in scalar])
            ecc = _kepler_array(m[ok], np.full(ok.sum(), e))
            assert ecc.tolist() == [x for x in scalar if x is not None]
            if not ok.all():  # e = 0.85 from the pi start fails in both
                with pytest.raises(EphemerisError):
                    _kepler_array(m, np.full_like(m, e))

    def test_overflowing_record_raises(self):
        # math.sin(inf) raised in the scalar path; the grid must not turn
        # the same record into a quiet NaN (a satellite "not visible")
        eph = dataclasses.replace(circular_record(m0=0.3, e=0.01), idot=1e306)
        t = eph.toe.add_seconds(600.0)
        with pytest.raises(ValueError):
            sat_position_ecef(eph, t)
        with pytest.raises(EphemerisError, match=eph.sat_id):
            position_grid([eph], [t.total_seconds()])

    def test_kernel_raises_on_nonconvergence(self):
        with pytest.raises(EphemerisError):
            solve_kepler(math.nan, 0.01)
        with pytest.raises(EphemerisError):
            _kepler_array(np.array([0.5, math.nan]), np.array([0.01, 0.01]))


class TestParserFuzz:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                              st.integers(0, 255)), min_size=1, max_size=8))
    def test_corrupted_bytes(self, nav_text, edits):
        data = bytearray(nav_text.encode("latin-1"))
        for where, byte in edits:
            data[int(where * len(data))] = byte
        text = data.decode("latin-1")
        try:
            records = parse_rinex_nav(text)
        except RinexParseError:
            return
        assert len(records) <= len(text.splitlines()) // 8
        if not records:
            return
        t0 = GpsTime.from_utc(dt.datetime(2013, 7, 25))
        epochs = [t0.add_seconds(3600.0 * k) for k in range(24)]
        try:
            sat_ids, grid = position_grid(records, seconds(epochs))
        except (EphemerisError, ValueError):
            return
        # a cell is NaN exactly when its satellite has no healthy record
        # inside the window, and finite otherwise
        selectable = np.array([[any(r.sat_id == s and r.health == 0
                                    and abs(t - r.toe) <= r.validity_window
                                    for r in records) for s in sat_ids]
                               for t in epochs])
        assert np.isfinite(grid[selectable]).all()
        assert np.isnan(grid[~selectable]).all()
