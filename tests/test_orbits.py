import datetime as dt
import math

import numpy as np
import pytest

from navbound.constants import GM_EARTH, OMEGA_EARTH, WGS84_A, WGS84_B
from navbound.orbits import (EphemerisError, EphemerisRecord, GpsTime,
                             RinexParseError, SiteLocation, ecef_to_enu,
                             enu_rotation, geodetic_to_ecef,
                             parse_position_csv, parse_rinex_nav,
                             sat_position_ecef, solve_kepler,
                             visible_satellites)

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
            assert np.allclose(v.g, -v.enu_unit_dir)
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
