import datetime as dt
import json
import logging
import math
import tracemalloc
from itertools import combinations, compress

import numpy as np
import pytest

from navbound import orbits
from navbound.orbits import (GpsTime, PositionTable, SiteLocation,
                             parse_position_csv, parse_rinex_nav,
                             visible_satellites)
from navbound.scan import (MAX_HIST_BINS, MAX_SCAN_EPOCHS, EmptySeriesError,
                           Histogram, ScanConfig, ScanSeries, hist_csv,
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


def epoch(series, k):
    """Epoch k of a series as (n_visible, best_m_s, pair ids), with None for
    the last two on a gap."""
    if series.pair[k, 0] < 0:
        assert math.isnan(series.best_m_s[k]) and (series.pair[k] == -1).all()
        return int(series.n_visible[k]), None, None
    return (int(series.n_visible[k]), float(series.best_m_s[k]),
            tuple(series.sat_ids[i] for i in series.pair[k]))


def make_series(values):
    """A series of satellites A and B, both visible, with one epoch per
    value (None for a gap), for the serialization tests."""
    gap = np.array([v is None for v in values], dtype=bool)
    return ScanSeries(
        sat_ids=("A", "B"),
        seconds=1750 * 604800.0 + 60.0 * np.arange(len(values)),
        visible=np.ones((len(values), 2), dtype=bool),
        best_m_s=np.array([math.nan if v is None else v for v in values]),
        pair=np.where(gap[:, None], -1, np.array([0, 1])))


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
        series = scan_ms(cfg, table)
        assert len(series) == 1
        n_visible, m_s, pair = epoch(series, 0)
        assert n_visible == 2
        assert m_s == pytest.approx(1.0 / 0.5, abs=1e-9)
        assert pair == ("G01", "G02")

    def test_same_sign_pair_is_gap(self):
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 6))
        rows = ["sat_id,week,sow,x_m,y_m,z_m"]
        for sat_id, f in (("G01", 0.5), ("G02", 0.8)):
            up = math.sqrt(1 - f * f)
            rows.append(sat_row(sat_id, t, [-f, 0.0, up]))
        table = parse_position_csv("\n".join(rows))
        cfg = make_config(start=t, end=t.add_seconds(60.0))
        series = scan_ms(cfg, table)
        assert len(series) == 1
        assert epoch(series, 0) == (2, None, None)

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
        series = scan_ms(make_config(start=t, end=t.add_seconds(60.0)), table)
        assert len(series) == 1
        assert series.best_m_s[0] == pytest.approx(2.0, abs=1e-9)

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
        series = scan_ms(make_config(start=t, end=t.add_seconds(60.0)), table)
        assert len(series) == 1
        _, m_s, pair = epoch(series, 0)
        assert m_s == pytest.approx(2.0, abs=1e-9)
        assert pair == ("G01", "G02")


class TestEpochGrid:
    def test_no_drift_with_fractional_step(self):
        # one satellite at the start epoch is enough to scan the span
        t = GpsTime.from_utc(dt.datetime(2013, 7, 25, 6))
        table = parse_position_csv("sat_id,week,sow,x_m,y_m,z_m\n"
                                   + sat_row("G01", t, [0.0, 0.0, 1.0]))
        series = scan_ms(make_config(start=t, end=t.add_seconds(360.0),
                                     step=0.1), table)
        assert len(series) == 3600
        assert series.seconds[-1] - t.total_seconds() == pytest.approx(
            3599 * 0.1, abs=1e-6)

    @pytest.mark.parametrize("step, hours", [
        (60.0, 24), (7.3, 24), (0.1, 1), (1 / 3, 6), (86_399.9, 24)])
    def test_epochs_match_add_seconds_loop(self, step, hours):
        # oracle: start.add_seconds(k * step) over GpsTime while before end;
        # a start with a fractional second of week makes the sums round
        start = GpsTime(1750, 345_616.3)
        end = start.add_seconds(3600.0 * hours)
        oracle = []
        while (t := start.add_seconds(len(oracle) * step)) < end:
            oracle.append(t)
        table = parse_position_csv("sat_id,week,sow,x_m,y_m,z_m\n"
                                   + sat_row("G01", start, [0.0, 0.0, 1.0]))
        series = scan_ms(make_config(start=start, end=end, step=step), table)
        assert [s.hex() for s in series.seconds.tolist()] == \
            [t.total_seconds().hex() for t in oracle]

    def test_day_at_one_second_memory_is_bounded(self):
        # two fixed satellites (f = -0.5 and 0.8) at every second of a day;
        # the table is built before tracing, so the peak is the scan's own
        t0 = GpsTime.from_utc(dt.datetime(2013, 7, 25))
        table = parse_position_csv("\n".join(
            ["sat_id,week,sow,x_m,y_m,z_m"]
            + [sat_row(sat_id, t0, [-f, 0.0, math.sqrt(1 - f * f)])
               for sat_id, f in (("G01", -0.5), ("G02", 0.8))]))
        seconds = t0.total_seconds() + np.arange(86_400.0)
        table = PositionTable(table.sat_ids, seconds,
                              np.broadcast_to(table.ecef, (86_400, 2, 3)))
        config = make_config(start=t0, end=t0.add_seconds(86_400.0), step=1.0)
        tracemalloc.start()
        try:
            series = scan_ms(config, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == 86_400
        assert np.allclose(series.best_m_s, 2.0, rtol=0.0, atol=1e-9)
        assert peak < 8e6


@pytest.fixture(scope="module")
def day(nav_text):
    return scan_ms(make_config(), parse_rinex_nav(nav_text))


class TestFullDayScan:
    def test_epoch_count_and_times(self, day):
        assert len(day) == 1440
        assert day.seconds[1] - day.seconds[0] == pytest.approx(60.0)

    def test_values_at_least_one(self, day):
        values = day.best_m_s[~np.isnan(day.best_m_s)]
        assert len(values) and (values >= 1.0).all()

    def test_visible_counts(self, day):
        assert ((5 <= day.n_visible) & (day.n_visible <= 14)).all()

    def test_pair_ids_visible(self, day):
        for k in range(len(day)):
            _, _, pair = epoch(day, k)
            if pair is not None:
                assert set(pair) <= set(compress(day.sat_ids, day.visible[k]))

    def test_determinism(self, day, nav_text):
        again = scan_ms(make_config(), parse_rinex_nav(nav_text))
        assert again.sat_ids == day.sat_ids
        for column in ("seconds", "visible", "best_m_s", "pair"):
            assert np.array_equal(getattr(again, column),
                                  getattr(day, column), equal_nan=True)

    def test_mask_monotone_visible_counts(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        t0 = make_config().start
        short = dict(start=t0, end=t0.add_seconds(3600.0))
        low = scan_ms(make_config(mask=10.0, **short), ephs)
        high = scan_ms(make_config(mask=25.0, **short), ephs)
        assert len(low) == len(high) == 60
        assert (low.n_visible >= high.n_visible).all()

    def test_elements_built_once_per_scan(self, nav_text, monkeypatch):
        # the day is 6 epoch blocks; the element table is built once, so
        # each record's row is computed once
        records = parse_rinex_nav(nav_text)
        built = []
        elements = orbits._elements
        monkeypatch.setattr(orbits, "_elements",
                            lambda eph: built.append(eph) or elements(eph))
        assert len(scan_ms(make_config(), records)) == 1440
        assert built == records

    def test_scan_span_must_overlap(self, nav_text):
        ephs = parse_rinex_nav(nav_text)
        far = GpsTime.from_utc(dt.datetime(2015, 1, 1))
        with pytest.raises(ValueError):
            scan_ms(make_config(start=far, end=far.add_seconds(3600.0)), ephs)


class TestBestPairOracle:
    def test_matches_brute_force_over_pairs(self, day, nav_text):
        ephs = parse_rinex_nav(nav_text)
        frame = frenet_frame(math.radians(90.0), "straight")
        for k in range(0, len(day), 5):
            t = GpsTime.from_seconds(day.seconds[k])
            vis = visible_satellites(ephs, SITE, t, 15.0)
            assert tuple(compress(day.sat_ids, day.visible[k])) \
                == tuple(v.sat_id for v in vis)
            sats = directional_cosines([v.enu_unit_dir for v in vis], frame,
                                       sat_ids=[v.sat_id for v in vis])
            pairs = sorted((magnification_s(a, b).m_s, a.sat_id, b.sat_id)
                           for a, b in combinations(sats, 2)
                           if magnification_s(a, b).admissible)
            _, best_m_s, best_pair = epoch(day, k)
            if not pairs:
                assert best_m_s is None and best_pair is None
                continue
            m_s, sat_a, sat_b = pairs[0]
            assert best_m_s == pytest.approx(m_s, rel=1e-12)
            assert best_pair == (sat_a, sat_b)


class TestHistogram:
    def test_worked_example(self):
        hist = histogram(np.array([1.2, 1.2, 1.8, 2.6]), bin_width=1.0,
                         value_range=(1.0, 3.0))
        assert hist.bin_edges == [1.0, 2.0, 3.0]
        assert hist.relative_frequency == [0.75, 0.25]
        assert hist.overflow == 0.0

    @pytest.mark.parametrize("bin_width, value_range", [
        (0.1, (1.0, 3.0)), (0.05, (1.2, 2.9)), (0.3, (0.5, 5.0)),
        (1 / 3, (1.0, 2.0))])
    def test_matches_loop_oracle(self, day, bin_width, value_range):
        # oracle: per value, overflow at or above the top edge, else int()
        # truncation clamped to the bins
        lo, hi = value_range
        n_bins = int(round((hi - lo) / bin_width))
        edges = [lo + i * bin_width for i in range(n_bins + 1)]
        values = np.concatenate([day.best_m_s, edges, [-1e300, 1e300],
                                 np.random.default_rng(7).uniform(0, 6, 2000)])
        present = [v for v in values.tolist() if not math.isnan(v)]
        counts, overflow = [0] * n_bins, 0
        for v in present:
            if v >= edges[-1]:
                overflow += 1
            else:
                counts[max(0, min(int((v - lo) / bin_width), n_bins - 1))] += 1
        hist = histogram(values, bin_width=bin_width, value_range=value_range)
        assert hist.bin_edges == edges
        assert hist.relative_frequency == [c / len(present) for c in counts]
        assert hist.overflow == overflow / len(present)

    def test_frequencies_sum_to_one(self, day):
        hist = histogram(day.best_m_s)
        assert sum(hist.relative_frequency) + hist.overflow \
            == pytest.approx(1.0, abs=1e-12)

    def test_gaps_excluded_from_normalization(self):
        hist = histogram(np.array([1.5, math.nan]), bin_width=1.0,
                         value_range=(1.0, 2.0))
        assert hist.relative_frequency == [1.0]

    def test_overflow_bin(self):
        hist = histogram(np.array([1.5, 7.0]), bin_width=1.0,
                         value_range=(1.0, 3.0))
        assert hist.overflow == 0.5

    def test_no_values_raises(self):
        with pytest.raises(EmptySeriesError):
            histogram(np.array([math.nan]))

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
            with pytest.raises(ValueError, match=match) as info:
                histogram(np.array(values), bin_width=bin_width,
                          value_range=value_range)
            assert not isinstance(info.value, EmptySeriesError)

    def test_bin_count_limit(self):
        values = np.array([1.5])
        hist = histogram(values, bin_width=1.0, value_range=(0.0, MAX_HIST_BINS))
        assert len(hist.relative_frequency) == MAX_HIST_BINS
        with pytest.raises(ValueError, match="bins"):
            histogram(values, bin_width=1.0, value_range=(0.0, MAX_HIST_BINS + 1))


class TestSerialization:
    def test_series_csv_roundtrip(self, day):
        parsed = parse_series_csv(series_csv(day))
        assert len(parsed) == len(day)
        assert np.array_equal(np.isnan(parsed), np.isnan(day.best_m_s))
        assert np.nanmax(np.abs(parsed - day.best_m_s)) <= 1e-9

    def test_series_csv_rows(self):
        lines = series_csv(make_series([1.5, None])).splitlines()
        assert lines == ["week,sow,n_visible,best_m_s,sat_a,sat_b",
                         "1750,0.000,2,1.500000000,A,B",
                         "1750,60.000,2,,,"]

    def test_series_json_fields(self):
        rows = json.loads(series_json(make_series([1.5, None])))
        assert rows[0] == {"week": 1750, "sow": 0.0, "n_visible": 2,
                           "best_m_s": 1.5, "sat_a": "A", "sat_b": "B"}
        assert rows[1]["best_m_s"] is None
        assert rows[1]["sat_a"] is None

    def test_hist_csv_and_json(self):
        hist = Histogram([1.0, 2.0, 3.0], [0.75, 0.25], 0.0)
        text = hist_csv(hist)
        lines = text.strip().splitlines()
        assert lines[0] == "bin_low,bin_high,rel_freq"
        assert len(lines) == 4  # header + 2 bins + overflow
        assert lines[-1].endswith("0.000000000")
        payload = json.loads(hist_json(hist))
        assert payload["relative_frequency"] == [0.75, 0.25]
