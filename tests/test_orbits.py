import datetime as dt
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navbound.constants import GM_EARTH, OMEGA_EARTH, WGS84_A, WGS84_B
from navbound.orbits import (VALIDITY_WINDOW, EphemerisError, EphemerisRecord,
                             GpsTime, PositionTable, RinexParseError, SiteLocation,
                             _kepler_array, ecef_to_enu, enu_rotation,
                             geodetic_to_ecef, parse_position_csv, parse_rinex_nav,
                             prepare_grid, sat_position_ecef, solve_kepler,
                             vector_norm)

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

    def test_validity_window_is_one_constant(self):
        # the 4 h window is shared by every record, not a per-record setting
        eph = circular_record()
        assert eph.validity_window == VALIDITY_WINDOW == 14400.0
        with pytest.raises(TypeError):
            circular_record(validity_window=7200.0)
        for dt_s in (-VALIDITY_WINDOW, VALIDITY_WINDOW):
            sat_position_ecef(eph, eph.toe.add_seconds(dt_s))
            with pytest.raises(EphemerisError):
                sat_position_ecef(eph, eph.toe.add_seconds(dt_s * (1 + 1e-6)))

    def test_eccentricity_validation(self):
        with pytest.raises(ValueError):
            circular_record(e=1.5)
        # _replace builds through the constructor, so it checks as well
        with pytest.raises(ValueError, match=r"eccentricity 1\.5 out of \[0, 1\)"):
            circular_record()._replace(e=1.5)

    def test_implausible_axis_rejected(self):
        with pytest.raises(ValueError):
            circular_record(sqrt_a=1000.0)
        # its square is a plausible axis, so only the sign check catches it
        with pytest.raises(ValueError, match="sqrt_a must be positive"):
            circular_record(sqrt_a=-5153.55)


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

    @pytest.mark.parametrize("height", [-1e7, 1e7])
    def test_height_range_edges_accepted(self, height):
        assert SiteLocation(0.0, 0.0, height).height == height

    @pytest.mark.parametrize("height", [1.0000001e7, -2e7, 1.5e154, -1e156])
    def test_height_outside_range_rejected(self, height):
        with pytest.raises(ValueError, match="height must be within"):
            SiteLocation(0.0, 0.0, height)


class TestEnu:
    SITE = SiteLocation(34.75337, 135.42783, 3.7)

    def test_zenith(self):
        up = geodetic_to_ecef(self.SITE)
        up_dir = enu_rotation(self.SITE)[2]
        enu, el = ecef_to_enu(self.SITE, up + 1000.0 * up_dir)
        assert np.allclose(enu, [0, 0, 1000.0], atol=1e-6)
        assert el == pytest.approx(90.0)

    def test_due_east_horizon(self):
        east = enu_rotation(self.SITE)[0]
        enu, el = ecef_to_enu(self.SITE,
                              geodetic_to_ecef(self.SITE) + 5000.0 * east)
        assert math.degrees(math.atan2(enu[0], enu[1])) == pytest.approx(90.0, abs=1e-9)
        assert el == pytest.approx(0.0, abs=1e-9)

    def test_rotation_orthonormal(self):
        r = enu_rotation(self.SITE)
        assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-12

    def test_distance_preserved(self):
        point = geodetic_to_ecef(self.SITE) + np.array([1e6, -2e6, 1.5e6])
        enu, _ = ecef_to_enu(self.SITE, point)
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
            _, el = ecef_to_enu(site, np.array(point))
            assert not np.isnan(el).any()
            assert np.abs(el - 90.0).max() <= 1e-5


class TestVectorNorm:
    def test_bits_of_linalg_norm(self):
        # seeded rows at magnitudes 1e-160 .. 1e160, so that squares under-
        # and overflow, with zero, NaN and infinite rows; any other order of
        # the three-term sum changes some of these bits
        rng = np.random.default_rng(25)
        specials = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0],
                             [math.nan, 1.0, 2.0], [1.0, math.nan, math.inf],
                             [math.inf, 1.0, 2.0], [-math.inf, -1.0, 0.0],
                             [1e-320, 5e-324, 0.0], [1.7e308, 1.7e308, 1.0]])
        for trial in range(200):
            shape = [(64, 3), (8, 9, 3), (3,)][trial % 3]
            x = (rng.standard_normal(shape)
                 * 10.0 ** rng.uniform(-160, 160, shape[:-1] + (1,)))
            if trial % 3 == 0:
                x = np.concatenate([x, specials])
            with np.errstate(over="ignore", under="ignore"):  # squares overflow
                ours, numpy_norm = vector_norm(x), np.linalg.norm(x, axis=-1)
            assert ours.tobytes() == numpy_norm.tobytes(), (
                f"numpy {np.__version__} sums a length-3 axis in another order: "
                "vector_norm no longer gives np.linalg.norm's bits")

    def test_enu_rotation_in_one_matmul(self):
        # the grid is rotated as one (-1, 3) matrix; each batch of the
        # stacked product gives the same bits
        site = SiteLocation(34.75337, 135.42783, 3.7)
        rng = np.random.default_rng(3)
        points = geodetic_to_ecef(site) + rng.uniform(-2.7e7, 2.7e7, (256, 31, 3))
        enu, _ = ecef_to_enu(site, points)
        stacked = (points - geodetic_to_ecef(site)) @ enu_rotation(site).T
        assert enu.shape == points.shape
        assert enu.tobytes() == stacked.tobytes()


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

    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        (HEADER.replace("RINEX VERSION / TYPE", " " * 20),
         "missing RINEX VERSION / TYPE header")], ids=["empty", "unlabelled"])
    def test_empty_or_unlabelled_input(self, text, message):
        with pytest.raises(RinexParseError, match=message):
            parse_rinex_nav(text)

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

    @pytest.mark.parametrize("prn", ["-1", " 0"])
    def test_prn_below_one_skipped(self, nav_text, caplog, prn):
        # a PRN field below 1 used to give a record for satellite G-1 or G00
        lines = nav_text.splitlines()
        start = next(i for i, l in enumerate(lines) if "END OF HEADER" in l) + 1
        lines[start] = prn + lines[start][2:]
        with caplog.at_level(logging.WARNING, logger="navbound.orbits"):
            records = parse_rinex_nav("\n".join(lines))
        assert records == parse_rinex_nav(nav_text)[1:]
        [record] = caplog.records
        assert record.getMessage() == (f"line {start + 1}: skipping malformed "
                                       f"record: PRN {int(prn)} below 1")

    @pytest.mark.parametrize("record, edit", [
        (0, "delete"),          # third orbit line of the first record
        (200, "delete"),        # mid-file
        (0, "duplicate"),
        (371, "delete"),        # last record, followed by the end of the file
    ])
    def test_missing_or_extra_line_costs_one_record(self, nav_text, caplog,
                                                    record, edit):
        # the parser used to step in fixed 8-line blocks: one deleted line
        # in the first record dropped all 372 records
        lines = nav_text.splitlines()
        start = next(i for i, l in enumerate(lines) if "END OF HEADER" in l) + 1
        first = start + 8 * record
        row = first + 3
        if edit == "delete":
            del lines[row]
            count = 6
        else:
            lines.insert(row, lines[row])
            count = 8
        with caplog.at_level(logging.WARNING, logger="navbound.orbits"):
            records = parse_rinex_nav("\n".join(lines))
        full = parse_rinex_nav(nav_text)
        assert records == full[:record] + full[record + 1:]
        [message] = [r.getMessage() for r in caplog.records]
        assert message == (f"line {first + 1}: skipping malformed record: "
                           f"{count} orbit lines, expected 7")

    @pytest.mark.parametrize("record", [1, 10, 200, 371])
    def test_missing_epoch_line_costs_one_record(self, nav_text, caplog, record):
        # the record before a lost epoch line is followed by 14 orbit lines;
        # it used to be skipped together with the orphaned seven
        lines = nav_text.splitlines()
        start = next(i for i, l in enumerate(lines) if "END OF HEADER" in l) + 1
        del lines[start + 8 * record]
        with caplog.at_level(logging.WARNING, logger="navbound.orbits"):
            records = parse_rinex_nav("\n".join(lines))
        full = parse_rinex_nav(nav_text)
        assert records == full[:record] + full[record + 1:]
        [message] = [r.getMessage() for r in caplog.records]
        assert message == (f"line {start + 8 * record + 1}: skipping 7 orbit "
                           "lines with no epoch line")

    def test_stray_orbit_line_skipped(self, nav_text, caplog):
        lines = nav_text.splitlines()
        start = next(i for i, l in enumerate(lines) if "END OF HEADER" in l) + 1
        lines[start + 8:start + 8] = ["", lines[start + 1]]
        with caplog.at_level(logging.WARNING, logger="navbound.orbits"):
            records = parse_rinex_nav("\n".join(lines))
        assert records == parse_rinex_nav(nav_text)
        [message] = [r.getMessage() for r in caplog.records]
        assert message == (f"line {start + 10}: skipping malformed record: "
                           "orbit line outside a record")

    def test_blank_mid_line_field_reads_zero(self, nav_text):
        # Cus is field 3 of orbit line 2, between e and sqrtA
        lines = nav_text.splitlines()
        start = next(i for i, l in enumerate(lines) if "END OF HEADER" in l) + 1
        line = lines[start + 2]
        lines[start + 2] = line[:41] + " " * 19 + line[60:]
        records = parse_rinex_nav("\n".join(lines))
        full = parse_rinex_nav(nav_text)
        assert full[0].cus != 0.0
        assert records == [full[0]._replace(cus=0.0)] + full[1:]

    def test_health_word_read(self, nav_text):
        lines = nav_text.splitlines()
        # SV health is field 2 of orbit line 6 (line 7 of the record block)
        start = next(i for i, l in enumerate(lines) if "END OF HEADER" in l) + 1
        line = lines[start + 6]
        lines[start + 6] = line[:22] + " 0.630000000000D+02" + line[41:]
        records = parse_rinex_nav("\n".join(lines))
        assert records[0].health == 63
        assert all(r.health == 0 for r in records[1:])


class TestPositionCsv:
    def test_roundtrip_against_kepler(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        site = SiteLocation(34.75337, 135.42783, 3.7)
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 3))

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
        # the table holds the propagated positions; the same satellites clear the mask
        ids_direct, ecef_direct = position_grid(ephs, [t.total_seconds()])
        ids_csv, ecef_csv = position_grid(table, [t.total_seconds()])
        assert ids_csv == tuple(sorted(by_sat))
        at = [ids_direct.index(sat_id) for sat_id in ids_csv]
        assert np.abs(ecef_csv[0] - ecef_direct[0, at]).max() <= 1e-6
        _, el_direct = ecef_to_enu(site, ecef_direct[0])
        _, el_csv = ecef_to_enu(site, ecef_csv[0])
        assert ([i for i, el in zip(ids_csv, el_csv) if el >= 15.0]
                == [i for i, el in zip(ids_direct, el_direct) if el >= 15.0])

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_position_csv("G01,1750,0,1,2,3")

    def test_header_with_leading_blanks(self):
        # the CLI strips the text before it looks for the header; so does the parser
        table = parse_position_csv("\n \t sat_id,week,sow,x_m,y_m,z_m\n"
                                   "G01,1750,0,1.5e7,1.5e7,1.5e7\n")
        assert table.sat_ids == ("G01",)

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
        # finite, but the squared range overflowed in the scan, which then
        # exited 2 on a satellite direction that was not a unit vector
        ("G01,1750,0,1e200,1.5e7,1.5e7", "x^2 + y^2 + z^2 overflows"),
        ("G01,1750,0,1e154,1e154,-1e154", "x^2 + y^2 + z^2 overflows"),
        ("G01,1750,604800,1.5e7,1.5e7,1.5e7", "out of [0, 604800)"),
        ("G01,1750,nan,1.5e7,1.5e7,1.5e7", "out of [0, 604800)"),
        # a blank id used to be kept as satellite "", and a NUL-suffixed one
        # merged into G01 (numpy's unicode dtype strips trailing NULs)
        (" ,1750,0,1.5e7,1.5e7,1.5e7", "satellite id blank or unprintable"),
        ("G01\x00,1750,0,1.5e7,1.5e7,1.5e7", "satellite id blank or unprintable"),
        ("G01,1750,0,1.5e7,1.5e7", "expected 6 fields, got 5"),
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

    def test_largest_range_kept(self):
        # each square and their sum are finite
        table = parse_position_csv("sat_id,week,sow,x_m,y_m,z_m\n"
                                   "G01,1750,0,9e153,-9e153,1e152\n")
        assert table.ecef.tolist() == [[[9e153, -9e153, 1e152]]]

    def test_fields_stripped_and_time_as_gps_time(self):
        table = parse_position_csv("sat_id,week,sow,x_m,y_m,z_m\n"
                                   " G05 , 1750 ,\t345616.3 , 1.5e7,-2e7 ,3e6\n")
        assert table.sat_ids == ("G05",)
        assert table.epochs.tolist() == [GpsTime(1750, 345616.3).total_seconds()]
        assert table.ecef.tolist() == [[[1.5e7, -2e7, 3e6]]]

    def test_week_seconds_rounded_once(self):
        # the integer product week * 604800 is rounded to a float once; a
        # float week times 604800.0 rounds twice and lands one ulp lower
        week = 90771615935544260
        table = parse_position_csv("sat_id,week,sow,x_m,y_m,z_m\n"
                                   f"G05,{week},0,1.5e7,-2e7,3e6\n")
        assert table.epochs.tolist() == [float(week * 604800)]
        assert float(week * 604800) != float(week) * 604800.0

    def test_repeated_bad_week_logs_every_row(self, caplog):
        # a week string is converted once however often it repeats; each row
        # that holds a bad one is still logged, with its own line number
        rows = ["sat_id,week,sow,x_m,y_m,z_m"]
        for k in range(60):
            week = ("17x0", "1750", " 1750 ", "", "1750")[k % 5]
            rows.append(f"G{k % 7 + 1:02d},{week},{300.0 * k},1.5e7,-2e7,3e6")
        with caplog.at_level(logging.WARNING, logger="navbound.orbits"):
            table = parse_position_csv("\n".join(rows))
        want = [f"line {k + 2}: skipping malformed row: invalid literal for int() "
                f"with base 10: {('17x0', '')[k % 5 // 3]!r}"
                for k in range(60) if k % 5 in (0, 3)]
        assert [r.getMessage() for r in caplog.records] == want
        assert np.isfinite(table.ecef).all(axis=-1).sum() == 36

    # One table with each kind of line the parser meets, CRLF line endings
    MALFORMED_TABLE = "\r\n".join([
        "sat_id,week,sow,x_m,y_m,z_m",
        "",
        "G05,1750,345600,1_000.5,-2000000,3000000",  # float reads 1_000.5
        "   \t",
        "G01,1750,345600,15000000,8000000,20000000",
        "G02,1750,345600,-1e7,2e7,1.2e7,",
        "G03,1750,345600,1,2",
        "G04,17x0,345600,1,2,3",
        "G06,1751,\u0663\u0660\u0660,-15000000,8000000,20000000",  # Arabic 300
        "G07,1750,345600,Infinity,0,0",
        "G01,1750,345600,1,1,1",  # the (G01, epoch) cell again
        "G08,1x,abc,Infinity,2,3",  # sow is checked first
        "G09,1750,604800,1,2,3",
        "G10,1750,1,1e200,1e200,0",
        " ,1750,1,1,2,3",
        "G02,1751,300.000,-1.5e7,1.5e7,1.5e7",
        "G11,1750,0,\uff11\uff12,-0,2.5e7",  # fullwidth 12
        "G12,1750,0,Infinity,-inf,nan",
        "G13," + "9" * 400 + ",0,1,2,3",
        "",
    ])

    def test_malformed_table_pinned(self, caplog):
        # the exact table and warning lines: each row's first failed check,
        # and float's and int's own semantics and messages for every field
        with caplog.at_level(logging.WARNING, logger="navbound.orbits"):
            table = parse_position_csv(self.MALFORMED_TABLE)
        assert [r.getMessage() for r in caplog.records] == [
            f"line {n}: skipping malformed row: {reason}" for n, reason in [
                (6, "expected 6 fields, got 7"),
                (7, "expected 6 fields, got 5"),
                (8, "invalid literal for int() with base 10: '17x0'"),
                (10, "non-finite coordinate"),
                (12, "could not convert string to float: 'abc'"),
                (13, "seconds_of_week out of [0, 604800)"),
                (14, "x^2 + y^2 + z^2 overflows"),
                (15, "satellite id blank or unprintable"),
                (18, "non-finite coordinate"),
                (19, "int too large to convert to float")]]
        assert table.sat_ids == ("G01", "G02", "G05", "G06", "G11")
        assert table.epochs.tobytes() == np.array(
            [1750 * 604800.0, 1750 * 604800.0 + 345600.0,
             1751 * 604800.0 + 300.0]).tobytes()
        ecef = np.full((3, 5, 3), np.nan)
        ecef[0, 4] = 12.0, -0.0, 2.5e7
        ecef[1, 0] = 1.5e7, 8e6, 2e7
        ecef[1, 2] = 1000.5, -2e6, 3e6
        ecef[2, 1] = -1.5e7, 1.5e7, 1.5e7
        ecef[2, 3] = -1.5e7, 8e6, 2e7
        assert table.ecef.tobytes() == ecef.tobytes()


def csv_field():
    """A position-CSV field: plausible, hostile or arbitrary text."""
    return st.one_of(
        st.sampled_from(["1e400", "-1e400", "nan", "inf", "9" * 400, "604800",
                         "", "abc", " ", "\t", "G01\x00", "G\x0101", "-0"]),
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


# A valid row but for a blank or unprintable satellite id.
BAD_ID_ROW = st.tuples(st.sampled_from([" ", "\t", "G01\x00", "G\x0101"]),
                       VALID_ROW).map(lambda t: ",".join([t[0], *t[1][1:]]))


def reference_position_csv(text):
    """The position-table policy, one row at a time: the satellite ids, the
    epochs and `ecef[epoch, sat]` of the kept rows (the first row of a
    repeated satellite and epoch), and the line numbers of skipped rows."""
    numbered = [(n, line) for n, line in enumerate(text.splitlines(), start=1)
                if line.strip()]
    cells, skipped = {}, set()
    for n, line in numbered[1:]:
        fields = line.split(",")
        try:
            if len(fields) != 6:
                raise ValueError("field count")
            sat_id = fields[0].strip()
            sow, x, y, z = (float(f) for f in fields[2:])
            seconds = int(fields[1]) * 604800 + sow
        except (ValueError, OverflowError):
            skipped.add(n)
            continue
        if (sat_id and sat_id.isprintable() and 0 <= sow < 604800
                and all(math.isfinite(v) for v in (x, y, z))
                and math.isfinite(x * x + y * y + z * z)):
            cells.setdefault((seconds, sat_id), (x, y, z))
        else:
            skipped.add(n)
    epochs = sorted({seconds for seconds, _ in cells})
    sat_ids = sorted({sat_id for _, sat_id in cells})
    ecef = np.full((len(epochs), len(sat_ids), 3), np.nan)
    for (seconds, sat_id), xyz in cells.items():
        ecef[epochs.index(seconds), sat_ids.index(sat_id)] = xyz
    return tuple(sat_ids), np.array(epochs, dtype=float), ecef, skipped


class _Lines(logging.Handler):
    """Collects the line number of each logged `line N: ...` message."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.numbers = set()

    def emit(self, record):
        self.numbers.add(int(record.getMessage().split(":")[0].split()[1]))


class TestPositionCsvFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([True] * 3 + [False]),
           st.lists(st.one_of(VALID_ROW.map(",".join), csv_row(), BAD_ID_ROW,
                              st.sampled_from(["", " \t"])), max_size=10))
    def test_rows_are_skipped_or_kept_finite(self, header, rows):
        text = "\n".join(["sat_id,week,sow,x_m,y_m,z_m"] * header + rows)
        logger = logging.getLogger("navbound.orbits")
        lines = _Lines()
        logger.addHandler(lines)
        try:
            table = parse_position_csv(text)
        except ValueError as exc:
            assert not header and "header row" in str(exc)
            return
        finally:
            logger.removeHandler(lines)
        assert np.isfinite(table.epochs).all()
        cells = table.ecef.reshape(-1, 3)
        kept = np.isfinite(cells).all(axis=1)
        assert (kept | np.isnan(cells).all(axis=1)).all()
        assert kept.sum() <= len(rows)
        sat_ids, epochs, ecef, skipped = reference_position_csv(text)
        assert table.sat_ids == sat_ids
        assert table.epochs.tobytes() == epochs.tobytes()
        assert table.ecef.tobytes() == ecef.tobytes()
        assert lines.numbers == skipped


def assert_table_invariants(table):
    """The PositionTable contract, checked without its constructor."""
    ids, epochs = list(table.sat_ids), table.epochs.tolist()
    assert ids == sorted(set(ids))
    assert epochs == sorted(set(epochs)) and all(map(math.isfinite, epochs))
    assert table.ecef.shape == (len(epochs), len(ids), 3)


class TestPositionTable:
    def test_unsorted_epochs_rejected(self):
        # searchsorted on these epochs used to lose every position
        ecef = np.zeros((2, 1, 3))
        with pytest.raises(ValueError, match="strictly increasing"):
            PositionTable(("G01",), np.array([200.0, 100.0]), ecef)

    @pytest.mark.parametrize("epochs", [
        np.array([100.0, 100.0]),
        np.array([100.0, np.nan]),
        np.array([100.0, np.inf]),
        np.array([[100.0, 200.0]]),
    ])
    def test_repeated_non_finite_or_2d_epochs_rejected(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            PositionTable(("G01",), epochs, np.zeros((2, 1, 3)))

    @pytest.mark.parametrize("sat_ids", [("G02", "G01"), ("G01", "G01")])
    def test_unsorted_or_repeated_sat_ids_rejected(self, sat_ids):
        with pytest.raises(ValueError, match="sorted with no repeats"):
            PositionTable(sat_ids, np.array([100.0]), np.zeros((1, 2, 3)))

    @pytest.mark.parametrize("shape", [(2, 2, 3), (1, 1, 3), (1, 2), (1, 2, 2)])
    def test_ecef_shape_mismatch_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            PositionTable(("G01", "G02"), np.array([100.0]), np.zeros(shape))

    def test_ecef_not_copied(self):
        ecef = np.broadcast_to(np.ones(3), (4, 2, 3))
        table = PositionTable(("G01", "G02"), np.arange(4.0), ecef)
        assert table.ecef is ecef

    def test_empty_table_valid(self):
        # every row malformed: the parser returns an empty table
        table = parse_position_csv("sat_id,week,sow,x_m,y_m,z_m\n"
                                   "G01,1750,nan,1,2,3\n")
        assert table.sat_ids == () and table.ecef.shape == (0, 0, 3)
        assert_table_invariants(table)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(VALID_ROW.map(",".join), csv_row(), BAD_ID_ROW),
                    max_size=12))
    def test_parsed_tables_meet_contract(self, rows):
        table = parse_position_csv("\n".join(["sat_id,week,sow,x_m,y_m,z_m"] + rows))
        assert_table_invariants(table)


def position_grid(source, seconds):
    """`prepare_grid` in one call: the satellite ids and the grid at `seconds`."""
    sat_ids, grid_of = prepare_grid(source)
    return sat_ids, grid_of(np.asarray(seconds, dtype=float))


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

    def test_empty_ephemerides(self):
        with pytest.raises(ValueError):
            position_grid([], [GpsTime(1750, 0.0).total_seconds()])

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
        ids, grid = position_grid(ephs, [t.total_seconds()])
        _, elevation = ecef_to_enu(site, grid[0])
        seen = ids[np.flatnonzero(elevation >= 15.0)[0]]
        nearest = min((r for r in ephs if r.sat_id == seen),
                      key=lambda r: abs(t - r.toe))
        sick = nearest._replace(health=1)

        sat_ids, grid = position_grid([sick], [t.total_seconds()])
        assert sat_ids == (seen,) and np.isnan(grid).all()
        # with its other records gone the satellite has no position
        others = [r for r in ephs if r.sat_id != seen]
        ids, grid = position_grid(others + [sick], [t.total_seconds()])
        assert np.isnan(grid[0, ids.index(seen)]).all()
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
        records[sick] = records[sick]._replace(health=1)
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

    def test_unhealthy_record_between_healthy_ones(self):
        # file order: healthy 1 h after t, unhealthy at t, healthy 1 h before.
        # At t the nearest record is unhealthy and the healthy two tie: the
        # first in file order serves.
        t = GpsTime(1750, 345600.0)
        late = circular_record(toe_sow=t.seconds_of_week + 3600.0, m0=0.7)
        sick = circular_record(toe_sow=t.seconds_of_week, m0=1.3, health=1)
        early = circular_record(toe_sow=t.seconds_of_week - 3600.0, m0=0.1)
        records = [late, sick, early]
        _, grid = position_grid(records, [t.total_seconds()])
        assert np.abs(grid[0, 0] - sat_position_ecef(late, t)).max() <= 1e-6
        for other in (sick, early):
            apart = sat_position_ecef(other, t) - sat_position_ecef(late, t)
            assert np.abs(apart).max() > 1e6
        # at each record's window edges, and just past them, the grid is
        # the scalar oracle's
        edges = [r.toe.add_seconds(dt_s) for r in records for dt_s in
                 (-VALIDITY_WINDOW - 1e-3, -VALIDITY_WINDOW, 0.0,
                  VALIDITY_WINDOW, VALIDITY_WINDOW + 1e-3)]
        _, grid = position_grid(records, seconds(edges))
        _, oracle = scalar_grid(records, edges)
        assert np.array_equal(np.isnan(grid), np.isnan(oracle))
        assert np.isnan(oracle).any() and not np.isnan(oracle).all()
        assert np.nanmax(np.abs(grid - oracle)) <= 1e-6

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
        eph = circular_record(m0=0.3, e=0.01)._replace(idot=1e306)
        t = eph.toe.add_seconds(600.0)
        with pytest.raises(ValueError):
            sat_position_ecef(eph, t)
        with pytest.raises(EphemerisError, match=eph.sat_id):
            position_grid([eph], [t.total_seconds()])

    def test_dense_grid_on_sparse_records(self, nav_text):
        # one satellite keeps only its records before 08:00, so the rest of
        # the day has no record for it; another loses its noon record to
        # the health word; the span runs 6 h past the day on either side.
        # NaN lies exactly where no healthy record is within the window.
        records = parse_rinex_nav(nav_text)
        ids = sorted({r.sat_id for r in records})
        day = GpsTime.from_utc(dt.datetime(2013, 7, 25))
        cut, sick_sat = ids[0], ids[3]
        records = [r for r in records
                   if r.sat_id != cut or r.toe - day < 8 * 3600.0]
        noon = day.add_seconds(12 * 3600.0)
        sick = min((r for r in records if r.sat_id == sick_sat),
                   key=lambda r: abs(noon - r.toe))
        records[records.index(sick)] = sick._replace(health=1)
        epochs = [day.add_seconds(-6 * 3600.0 + 300.0 * k) for k in range(432)]
        sat_ids, grid = position_grid(records, seconds(epochs))
        assert sat_ids == tuple(ids)
        uncovered = np.array([[not any(abs(t - r.toe) <= VALIDITY_WINDOW
                                       for r in records
                                       if r.sat_id == sat_id and not r.health)
                               for sat_id in sat_ids] for t in epochs])
        assert uncovered[:, 0].any() and not uncovered[:, 0].all()
        assert uncovered.any(axis=0).sum() > 1 and not uncovered.all()
        assert np.array_equal(np.isnan(grid).any(axis=-1), uncovered)
        assert np.array_equal(np.isnan(grid).all(axis=-1), uncovered)
        _, oracle = scalar_grid(records, epochs)
        assert np.nanmax(np.abs(grid - oracle)) <= 1e-6
        _, grid_of = prepare_grid(records)
        blocks = [grid_of(np.array(seconds(epochs[k:k + 7])))
                  for k in range(0, len(epochs), 7)]
        assert np.concatenate(blocks).tobytes() == grid.tobytes()

    def test_kernel_on_empty_and_blocks(self):
        for shape in ((0,), (0, 31)):
            empty = _kepler_array(np.zeros(shape), np.zeros(shape))
            assert empty.shape == shape and empty.dtype == float
        # e = 0 stops at the first step, as the scalar solver does
        m = np.linspace(-40.0, 40.0, 801)
        assert (_kepler_array(m, np.zeros_like(m)).tolist()
                == [solve_kepler(mk, 0.0) for mk in m])
        # an (epoch, sat) block with NaN cells (no record): each real cell
        # is the scalar solver's, bit for bit, and a NaN cell stays NaN
        rng = np.random.default_rng(7)
        m = rng.uniform(-20.0, 20.0, (40, 9))
        e = rng.uniform(0.0, 0.05, (40, 9))
        pad = rng.random((40, 9)) < 0.2
        m[pad], e[pad] = math.nan, math.nan
        ecc = _kepler_array(m, e)
        assert ecc.shape == m.shape and np.array_equal(np.isnan(ecc), pad)
        assert ecc[~pad].tolist() == [solve_kepler(mk, ek)
                                      for mk, ek in zip(m[~pad], e[~pad])]

    def test_overflowing_record_named_among_empty_cells(self):
        # G01 has no record at the first epoch and G02 none at the second:
        # those NaN cells are not a failure, and the failing cell is G02's
        good = circular_record("G01", m0=0.3, e=0.01)
        bad = circular_record("G02", toe_sow=good.toe.seconds_of_week + 6 * 3600.0,
                              m0=0.1, e=0.01)._replace(idot=1e306)
        epochs = [bad.toe.add_seconds(600.0), good.toe]
        with pytest.raises(EphemerisError, match="^G02: non-finite position"):
            position_grid([good, bad], seconds(epochs))
        _, grid = position_grid([good], seconds(epochs))
        assert np.isnan(grid[0]).all() and np.isfinite(grid[1]).all()

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
