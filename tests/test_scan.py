import datetime as dt
import logging
import math
from itertools import combinations

import numpy as np
import pytest

from navbound.orbits import (GpsTime, SiteLocation, parse_position_csv,
                             parse_rinex_nav, visible_satellites)
from navbound.scan import (MAX_HIST_BINS, MAX_SCAN_EPOCHS, EmptySeriesError,
                           EpochResult, Histogram, ScanConfig, hist_csv,
                           hist_json, histogram, parse_series_csv, scan_ms,
                           series_csv, series_json)
from navbound.track import directional_cosines, frenet_frame, magnification_s

SITE = SiteLocation(34.75337, 135.42783, 3.7)


def make_config(**kwargs):
    defaults = dict(site=SITE, track_azimuth=90.0, mask=15.0, step=60.0,
                    start=GpsTime.from_utc(dt.datetime(2013, 7, 25)),
                    end=GpsTime.from_utc(dt.datetime(2013, 7, 26)))
    defaults.update(kwargs)
    return ScanConfig(**defaults)


def sat_row(sat_id, t, enu):
    """Position-table CSV row for a satellite seen from SITE along enu."""
    from navbound.orbits import enu_rotation, geodetic_to_ecef
    ecef = geodetic_to_ecef(SITE) + enu_rotation(SITE).T @ (
        2.2e7 * np.asarray(enu) / np.linalg.norm(enu))
    return f"{sat_id},{t.week},{t.seconds_of_week},{ecef[0]},{ecef[1]},{ecef[2]}"


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(step=0.0)
        with pytest.raises(ValueError):
            make_config(end=GpsTime.from_utc(dt.datetime(2013, 7, 24)))
        with pytest.raises(ValueError):
            make_config(mask=90.0)

    @pytest.mark.parametrize("field, value", [
        ("track_azimuth", math.nan), ("track_azimuth", math.inf),
        ("step", math.nan), ("step", math.inf)])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            make_config(**{field: value})

    def test_epoch_count_bound(self):
        # one day at a 1 s step is the largest scan; the count is computed,
        # never built
        assert MAX_SCAN_EPOCHS == 86_400
        make_config(step=1.0)
        with pytest.raises(ValueError, match="exceeds 86400 epochs"):
            make_config(step=1.0 - 1e-6)
        with pytest.raises(ValueError, match="epochs"):
            make_config(step=1e-9)
        with pytest.raises(ValueError, match="epochs"):
            make_config(step=5e-324)


class TestTwoSatFromPositions:
    def test_known_pair_value(self):
        # east-west track; elevation/azimuth chosen so f = -0.5 and 0.8
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 6))
        rows = ["sat_id,week,sow,x_m,y_m,z_m"]
        for sat_id, f in (("G01", -0.5), ("G02", 0.8)):
            up = math.sqrt(1 - f * f)
            rows.append(sat_row(sat_id, t, [-f, 0.0, up]))  # g = (f, 0, -up)
        table = parse_position_csv("\n".join(rows))
        cfg = make_config(start=t, end=t.add_seconds(60.0))
        (result,) = scan_ms(cfg, table)
        assert result.n_visible == 2
        assert result.best_m_s == pytest.approx(1.0 / 0.5, abs=1e-9)
        assert result.best_pair == ("G01", "G02")

    def test_same_sign_pair_is_gap(self):
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 6))
        rows = ["sat_id,week,sow,x_m,y_m,z_m"]
        for sat_id, f in (("G01", 0.5), ("G02", 0.8)):
            up = math.sqrt(1 - f * f)
            rows.append(sat_row(sat_id, t, [-f, 0.0, up]))
        table = parse_position_csv("\n".join(rows))
        cfg = make_config(start=t, end=t.add_seconds(60.0))
        (result,) = scan_ms(cfg, table)
        assert result.n_visible == 2
        assert result.best_m_s is None
        assert result.best_pair is None

    def test_malformed_row_skipped(self, caplog):
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 6))
        rows = ["sat_id,week,sow,x_m,y_m,z_m"]
        for sat_id, f in (("G01", -0.5), ("G02", 0.8)):
            up = math.sqrt(1 - f * f)
            rows.append(sat_row(sat_id, t, [-f, 0.0, up]))
        rows.insert(2, f"G03,{t.week},{t.seconds_of_week},1.0e7,oops,2.0e7")
        with caplog.at_level(logging.WARNING, logger="navbound.orbits"):
            table = parse_position_csv("\n".join(rows))
        assert "line 3" in caplog.text
        assert table.sat_ids == ("G01", "G02")
        (result,) = scan_ms(make_config(start=t, end=t.add_seconds(60.0)), table)
        assert result.best_m_s == pytest.approx(2.0, abs=1e-9)

    def test_tie_reports_first_pair(self):
        # G02 and G04 share a position, so their |f| tie exactly on the
        # binding (negative) side; G01 also reaches the best value.
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 6))
        rows = ["sat_id,week,sow,x_m,y_m,z_m"]
        for sat_id, f in (("G01", 0.6), ("G02", -0.5), ("G03", 0.9),
                          ("G04", -0.5)):
            up = math.sqrt(1 - f * f)
            rows.append(sat_row(sat_id, t, [-f, 0.0, up]))
        table = parse_position_csv("\n".join(rows))
        (result,) = scan_ms(make_config(start=t, end=t.add_seconds(60.0)), table)
        assert result.best_m_s == pytest.approx(2.0, abs=1e-9)
        assert result.best_pair == ("G01", "G02")


class TestEpochGrid:
    def test_no_drift_with_fractional_step(self):
        # one satellite at the start epoch is enough to scan the span
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 6))
        table = parse_position_csv("sat_id,week,sow,x_m,y_m,z_m\n"
                                   + sat_row("G01", t, [0.0, 0.0, 1.0]))
        results = scan_ms(make_config(start=t, end=t.add_seconds(360.0),
                                      step=0.1), table)
        assert len(results) == 3600
        assert results[-1].t - t == pytest.approx(3599 * 0.1, abs=1e-6)


@pytest.fixture(scope="module")
def results(nav_text):
    return scan_ms(make_config(), parse_rinex_nav(nav_text))


class TestFullDayScan:
    def test_epoch_count_and_times(self, results):
        assert len(results) == 1440
        assert results[1].t - results[0].t == pytest.approx(60.0)

    def test_values_at_least_one(self, results):
        for r in results:
            if r.best_m_s is not None:
                assert r.best_m_s >= 1.0

    def test_visible_counts(self, results):
        assert all(5 <= r.n_visible <= 14 for r in results)

    def test_pair_ids_visible(self, results):
        for r in results:
            if r.best_pair is not None:
                assert set(r.best_pair) <= set(r.visible_ids)

    def test_determinism(self, results, nav_text):
        again = scan_ms(make_config(), parse_rinex_nav(nav_text))
        assert again == results

    def test_mask_monotone_visible_counts(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        t0 = make_config().start
        short = dict(start=t0, end=t0.add_seconds(3600.0))
        low = scan_ms(make_config(mask=10.0, **short), ephs)
        high = scan_ms(make_config(mask=25.0, **short), ephs)
        assert all(a.n_visible >= b.n_visible for a, b in zip(low, high))

    def test_scan_span_must_overlap(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        far = GpsTime.from_utc(dt.datetime(2015, 1, 1))
        with pytest.raises(ValueError):
            scan_ms(make_config(start=far, end=far.add_seconds(3600.0)), ephs)


class TestBestPairOracle:
    def test_matches_brute_force_over_pairs(self, results, nav_text):
        ephs = parse_rinex_nav(nav_text)
        frame = frenet_frame(math.radians(90.0), "straight")
        for r in results[::5]:
            vis = visible_satellites(ephs, SITE, r.t, 15.0)
            assert r.visible_ids == tuple(v.sat_id for v in vis)
            sats = directional_cosines([v.enu_unit_dir for v in vis], frame,
                                       sat_ids=[v.sat_id for v in vis])
            pairs = sorted((magnification_s(a, b).m_s, a.sat_id, b.sat_id)
                           for a, b in combinations(sats, 2)
                           if magnification_s(a, b).admissible)
            if not pairs:
                assert r.best_m_s is None and r.best_pair is None
                continue
            m_s, sat_a, sat_b = pairs[0]
            assert r.best_m_s == pytest.approx(m_s, rel=1e-12)
            assert r.best_pair == (sat_a, sat_b)


class TestHistogram:
    def test_worked_example(self):
        t = GpsTime(1750, 0.0)
        results = [EpochResult(t, 2, (), v, ("A", "B"))
                   for v in (1.2, 1.2, 1.8, 2.6)]
        hist = histogram(results, bin_width=1.0, value_range=(1.0, 3.0))
        assert hist.bin_edges == [1.0, 2.0, 3.0]
        assert hist.relative_frequency == [0.75, 0.25]
        assert hist.overflow == 0.0

    def test_frequencies_sum_to_one(self, nav_text):
        results = scan_ms(make_config(), parse_rinex_nav(nav_text))
        hist = histogram(results)
        assert sum(hist.relative_frequency) + hist.overflow \
            == pytest.approx(1.0, abs=1e-12)

    def test_gaps_excluded_from_normalization(self):
        t = GpsTime(1750, 0.0)
        results = [EpochResult(t, 2, (), 1.5, ("A", "B")),
                   EpochResult(t, 1, (), None, None)]
        hist = histogram(results, bin_width=1.0, value_range=(1.0, 2.0))
        assert hist.relative_frequency == [1.0]

    def test_overflow_bin(self):
        t = GpsTime(1750, 0.0)
        results = [EpochResult(t, 2, (), v, ("A", "B")) for v in (1.5, 7.0)]
        hist = histogram(results, bin_width=1.0, value_range=(1.0, 3.0))
        assert hist.overflow == 0.5

    def test_no_values_raises(self):
        with pytest.raises(EmptySeriesError):
            histogram([EpochResult(GpsTime(1750, 0.0), 1, (), None, None)])

    @pytest.mark.parametrize("bin_width, value_range, match", [
        (0.1, (3.0, 1.0), "low < high"),
        (0.1, (1.0, 1.0), "low < high"),
        (0.1, (1.0, math.inf), "finite"),
        (0.1, (math.nan, 3.0), "finite"),
        (math.inf, (1.0, 3.0), "bin width"),
        (math.nan, (1.0, 3.0), "bin width"),
        (0.0, (1.0, 3.0), "bin width"),
        (-0.1, (1.0, 3.0), "bin width"),
        (1e-9, (1.0, 3.0), "bins"),
        (1.0, (-1e308, 1e308), "bins"),
        (10.0, (1.0, 3.0), "narrower"),
    ])
    def test_bad_options_rejected_before_values(self, bin_width, value_range,
                                                match):
        # checked before the empty-series test, so a usage error wins
        for values in ((1.5,), ()):
            results = [EpochResult(GpsTime(1750, 0.0), 2, (), v, ("A", "B"))
                       for v in values]
            with pytest.raises(ValueError, match=match) as info:
                histogram(results, bin_width=bin_width, value_range=value_range)
            assert not isinstance(info.value, EmptySeriesError)

    def test_bin_count_limit(self):
        t = GpsTime(1750, 0.0)
        results = [EpochResult(t, 2, (), 1.5, ("A", "B"))]
        hist = histogram(results, bin_width=1.0, value_range=(0.0, MAX_HIST_BINS))
        assert len(hist.relative_frequency) == MAX_HIST_BINS
        with pytest.raises(ValueError, match="bins"):
            histogram(results, bin_width=1.0, value_range=(0.0, MAX_HIST_BINS + 1))


class TestSerialization:
    def test_series_csv_roundtrip(self, nav_text):
        results = scan_ms(make_config(), parse_rinex_nav(nav_text))[:120]
        parsed = parse_series_csv(series_csv(results))
        assert len(parsed) == len(results)
        for a, b in zip(parsed, results):
            assert a.t == b.t and a.n_visible == b.n_visible
            assert a.best_pair == b.best_pair
            if b.best_m_s is None:
                assert a.best_m_s is None
            else:
                assert a.best_m_s == pytest.approx(b.best_m_s, abs=1e-9)

    def test_series_json_fields(self):
        t = GpsTime(1750, 0.0)
        import json
        rows = json.loads(series_json([
            EpochResult(t, 3, ("A", "B", "C"), 1.5, ("A", "B")),
            EpochResult(t, 1, ("A",), None, None),
        ]))
        assert rows[0]["best_m_s"] == 1.5
        assert rows[1]["best_m_s"] is None
        assert rows[1]["sat_a"] is None

    def test_hist_csv_and_json(self):
        hist = Histogram([1.0, 2.0, 3.0], [0.75, 0.25], 0.0)
        text = hist_csv(hist)
        lines = text.strip().splitlines()
        assert lines[0] == "bin_low,bin_high,rel_freq"
        assert len(lines) == 4  # header + 2 bins + overflow
        assert lines[-1].endswith("0.000000000")
        import json
        payload = json.loads(hist_json(hist))
        assert payload["relative_frequency"] == [0.75, 0.25]
