import csv
import hashlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import navbound
from navbound import cli, orbits
from navbound.cli import EXIT_DEGENERATE, EXIT_OK, EXIT_USAGE, run
from navbound.orbits import EphemerisError
from navbound.signal_model import DegenerateCurvatureError, TauPerturbation


def python_process(*argv):
    """A fresh interpreter that imports this navbound."""
    src = str(pathlib.Path(navbound.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def navbound_process(*argv):
    """The CLI run as its own process, so that its stderr is what a user
    sees: logged warnings and numpy warnings included."""
    return python_process("-m", "navbound.cli", *argv)


def write_geometry(tmp_path, sats, track_azimuth_deg=None):
    path = tmp_path / "geometry.json"
    payload = sats if track_azimuth_deg is None else {
        "track_azimuth_deg": track_azimuth_deg, "satellites": sats}
    path.write_text(json.dumps(payload))
    return str(path)


def small_position_table():
    """A position-table CSV: 9 satellites on circular orbits of 26 560 km in
    three planes, sampled at 36 epochs 300 s apart, millimetre values."""
    lines = ["sat_id,week,sow,x_m,y_m,z_m"]
    ids = ['A"B'] + [f"G{k:02d}" for k in range(2, 10)]
    for t in range(36):
        sow = 345600.0 + 300.0 * t
        for k, sat_id in enumerate(ids):
            node = math.radians(120.0 * (k % 3)) - 7.2921151467e-5 * sow
            u = math.radians(40.0 * k) + 1.4585e-4 * 300.0 * t
            inc = math.radians(55.0)
            x, y = 26_560_000.0 * math.cos(u), 26_560_000.0 * math.sin(u)
            ecef = (x * math.cos(node) - y * math.cos(inc) * math.sin(node),
                    x * math.sin(node) + y * math.cos(inc) * math.cos(node),
                    y * math.sin(inc))
            lines.append(f"{sat_id},1750,{sow:.3f},"
                         + ",".join(f"{v:.3f}" for v in ecef))
    return "\n".join(lines) + "\n"


def _two_sats_text(f):
    """A two-satellite geometry file with f of the first written as given."""
    return (f'[{{"sat_id": "A", "f": {f}, "h": 0.1}}, '
            '{"sat_id": "B", "f": 0.8, "h": 0.2}]')


class TestCode:
    def test_csv(self, capsys):
        assert run(["code", "--prn", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "k,chip"
        assert len(lines) == 1024
        assert all(line.split(",")[1] in ("1", "-1") for line in lines[1:])

    def test_json_matches_library(self, capsys):
        from navbound.cacode import generate_ca_code
        assert run(["code", "--prn", "7", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["chips"] == generate_ca_code(7).chips.tolist()

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "code.csv"
        assert run(["code", "--prn", "3", "--output", str(dest)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert dest.read_text().startswith("k,chip")

    def test_bad_prn(self, capsys):
        assert run(["code", "--prn", "99"]) == EXIT_USAGE
        assert capsys.readouterr().err != ""


class TestInterference:
    def test_noise_free_bound(self, capsys):
        assert run(["interference", "--prn", "1", "--power", "1e-4",
                    "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        shift = abs(payload["delta_tau_empirical"])
        assert shift <= 1.05 * payload["delta_tau_bound"]
        assert shift >= 0.9 * payload["delta_tau_bound"]
        assert payload["m_tau"] > 0

    @pytest.mark.parametrize("argv, want", [
        (["--prn", "1", "--power", "1e-4"],
         (3.0e-4, 7.87025154418191e-09, 7.870251544181922e-11,
          -7.87165347552847e-11)),
        (["--prn", "7", "--power", "3e-6", "--sigma", "0.01", "--seed", "42"],
         (2.9999990703714614e-04, 8.126693359550425e-09,
          1.4075845796273946e-11, -1.4076283541553103e-11)),
        (["--prn", "12", "--power", "1e-8", "--sigma", "0.05", "--seed", "7",
          "--tau", "0.000731"],
         (7.310006333717554e-04, 6.465722638184841e-09,
          6.465722638184823e-13, -6.46567218168248e-13)),
        (["--prn", "19", "--power", "2.5e-3", "--sigma", "0.1", "--seed", "901",
          "--tau", "1.25e-5"],
         (1.2501049528737143e-05, 5.774598677804591e-09,
          2.8872993389022705e-10, -2.885831731695395e-10)),
        (["--prn", "26", "--power", "1e-5", "--sigma", "0.3", "--seed", "3",
          "--tau", "0.000489"],
         (4.890008147981583e-04, 5.387488775702385e-09,
          1.7036735399811528e-11, -1.7036754710979263e-11)),
        (["--prn", "32", "--power", "4e-7", "--sigma", "0.0", "--tau", "0.000999"],
         (9.99e-04, 5.540955388428376e-09, 3.5044078881633253e-12,
          -3.5043805964724006e-12))],
        ids=["prn1_default", "prn7", "prn12", "prn19", "prn26", "prn32"])
    def test_seeded_results_pinned(self, capsys, argv, want):
        # A regression guard that holds on any machine: the output digest's
        # bytes follow the BLAS and the CPU, these four fields to 1e-9 do not.
        assert run(["interference", *argv, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        fields = ("tau0", "m_tau", "delta_tau_bound", "delta_tau_empirical")
        assert [payload[k] for k in fields] == pytest.approx(want, rel=1e-9, abs=0)

    def test_deterministic_with_seed(self, capsys):
        argv = ["interference", "--prn", "2", "--power", "1e-4",
                "--sigma", "0.01", "--seed", "42", "--format", "json"]
        assert run(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("extra", [[], ["--sigma", "5"]])
    def test_failed_estimate_exits_one(self, capsys, extra):
        argv = ["interference", "--prn", "1", "--power", "1e3"] + extra
        assert run(argv) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("option, value, code, err", [
        # the noise samples overflow
        ("--sigma", "1e308", EXIT_USAGE, "samples must be finite\n"),
        ("--sigma", "nan", EXIT_USAGE, "sigma must be finite and non-negative\n"),
        ("--sigma", "inf", EXIT_USAGE, "sigma must be finite and non-negative\n"),
        # the received signal's spectrum overflows; Newton steps go NaN
        ("--sigma", "1.5e305", EXIT_DEGENERATE, None),
        ("--power", "inf", EXIT_USAGE, "power must be positive and finite\n"),
        ("--power", "nan", EXIT_USAGE, "power must be positive and finite\n")])
    def test_overflowing_noise_or_power_one_line(self, capsys, option, value,
                                                 code, err):
        # these used to raise numpy RuntimeWarnings before the diagnostic
        assert run(["interference", "--prn", "1", "--power", "1e-4",
                    option, value]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert err is None or captured.err == err

    @pytest.mark.parametrize("tau", ["nan", "inf", "-1e-9", "1e-3", "3.986e14"])
    def test_tau_outside_code_period_exits_two(self, capsys, monkeypatch, tau):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("waveform synthesized for a rejected --tau")

        monkeypatch.setattr(cli, "sample_waveform", no_synthesis)
        assert run(["interference", "--prn", "1", "--power", "1e-4",
                    f"--tau={tau}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--tau must be in [0, 0.001) s, got {float(tau)}\n"

    @pytest.mark.parametrize("sigma", ["0", "0.01"])
    def test_negative_seed_exits_two(self, capsys, sigma):
        # the seed is checked whatever the noise level
        assert run(["interference", "--prn", "1", "--power", "1e-4",
                    "--sigma", sigma, "--seed", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "seed must be a non-negative integer, got -1\n"

    def test_degenerate_curvature_exits_one(self, capsys, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateCurvatureError("zero likelihood curvature")

        monkeypatch.setattr(cli, "perturbation_experiment", degenerate)
        assert run(["interference", "--prn", "1", "--power", "1e-4"]) \
            == EXIT_DEGENERATE
        assert capsys.readouterr().err == "zero likelihood curvature\n"


class TestTrack:
    def test_two_sat_value(self, tmp_path, capsys):
        path = write_geometry(tmp_path, [
            {"sat_id": "A", "f": -0.5, "h": 0.1},
            {"sat_id": "B", "f": 0.8, "h": -0.2},
        ])
        assert run(["track", "--geometry", path, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_s"] == pytest.approx(2.0, abs=1e-9)

    def test_two_sat_same_sign_inadmissible(self, tmp_path, capsys):
        path = write_geometry(tmp_path, [
            {"sat_id": "A", "f": 0.5, "h": 0.1},
            {"sat_id": "B", "f": 0.8, "h": -0.2},
        ])
        assert run(["track", "--geometry", path]) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "inadmissible" in captured.err

    def test_two_sat_underflowing_product_admissible(self, tmp_path, capsys):
        # f1 f2 underflows to -0.0; the scan's sign rule admits the pair too
        path = write_geometry(tmp_path, [
            {"sat_id": "A", "f": 1e-170, "h": 0.0},
            {"sat_id": "B", "f": -1e-170, "h": 0.0},
        ])
        assert run(["track", "--geometry", path, "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"m_s": 1e170}

    @pytest.mark.parametrize("sats, err", [
        ([(5e-324, 0.0), (-1e-300, 0.0)], "M_s overflows"),
        ([(1e-310, 0.0), (-0.5, 0.5), (-0.5, -0.5)], "M_u or M_v overflows")])
    def test_overflowing_magnification_exits_one(self, tmp_path, capsys, sats, err):
        # these used to exit 0 and print Infinity, which is not JSON
        path = write_geometry(tmp_path, [{"sat_id": str(j), "f": f, "h": h}
                                         for j, (f, h) in enumerate(sats)])
        assert run(["track", "--geometry", path, "--format", "json"]) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert err in captured.err

    def test_three_sat_symmetric(self, tmp_path, capsys):
        r = 0.5
        sats = [{"sat_id": str(j), "f": r * math.cos(a), "h": r * math.sin(a)}
                for j, a in enumerate(
                    (math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
                     math.pi / 2 + 4 * math.pi / 3))]
        path = write_geometry(tmp_path, sats)
        assert run(["track", "--geometry", path, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_u"] == pytest.approx(math.sqrt(3) / r, abs=1e-9)
        assert payload["m_v"] == pytest.approx(2.0 / r, abs=1e-9)

    def test_three_sat_collinear_degenerate(self, tmp_path, capsys):
        sats = [{"sat_id": str(j), "f": 0.1 * j, "h": 0.2 * j}
                for j in range(3)]
        path = write_geometry(tmp_path, sats)
        assert run(["track", "--geometry", path]) == EXIT_DEGENERATE
        assert capsys.readouterr().err != ""

    def test_elevation_azimuth_form(self, tmp_path, capsys):
        # east-west track: due-east sat has f = -cos(el), due-west f = +cos(el)
        path = write_geometry(tmp_path, [
            {"sat_id": "E", "elevation": 60.0, "azimuth": 90.0},
            {"sat_id": "W", "elevation": 60.0, "azimuth": 270.0},
        ])
        assert run(["track", "--geometry", path, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_s"] == pytest.approx(1.0 / math.cos(math.radians(60.0)),
                                               abs=1e-9)

    def test_wrong_count(self, tmp_path, capsys):
        path = write_geometry(tmp_path, [{"sat_id": "A", "f": 0.5, "h": 0.0}])
        assert run(["track", "--geometry", path]) == EXIT_USAGE

    def test_missing_file(self, capsys):
        assert run(["track", "--geometry", "/nonexistent.json"]) == EXIT_USAGE

    @pytest.mark.parametrize("payload", [
        5,
        [1, 2],
        {"satellites": 3},
        {"track_azimuth_deg": 90.0},
        [{"sat_id": "A", "f": 0.5, "h": None},
         {"sat_id": "B", "f": -0.5, "h": 0.1}],
        [{"sat_id": "A", "f": 0.5}, {"sat_id": "B", "f": -0.5, "h": 0.1}],
        [{"sat_id": "A", "elevation": "high", "azimuth": 90.0},
         {"sat_id": "B", "elevation": 60.0, "azimuth": 270.0}],
        {"track_azimuth_deg": "east",
         "satellites": [{"sat_id": "A", "f": 0.5, "h": 0.1},
                        {"sat_id": "B", "f": -0.5, "h": 0.1}]},
        [{"sat_id": "A", "f": float("nan"), "h": 0.1},
         {"sat_id": "B", "f": -0.5, "h": 0.1}],
        # numbers in strings, a boolean and an integer past the float range
        # are not numbers, though float() reads the first three
        [{"sat_id": "A", "f": "-0.5", "h": 0.1},
         {"sat_id": "B", "f": 0.8, "h": -0.2}],
        [{"sat_id": "A", "f": -0.5, "h": False},
         {"sat_id": "B", "f": 0.8, "h": -0.2}],
        [{"sat_id": "A", "elevation": "30", "azimuth": 270.0},
         {"sat_id": "B", "elevation": 45.0, "azimuth": 150.0}],
        {"track_azimuth_deg": "90",
         "satellites": [{"sat_id": "A", "f": -0.5, "h": 0.1},
                        {"sat_id": "B", "f": 0.8, "h": -0.2}]},
        [{"sat_id": "A", "f": 10 ** 400, "h": 0.1},
         {"sat_id": "B", "f": 0.8, "h": -0.2}],
    ], ids=["number", "list_of_numbers", "satellites_not_list",
            "satellites_missing", "null_h", "missing_h", "string_elevation",
            "string_azimuth", "nan_f", "numeric_string_f", "bool_h",
            "numeric_string_elevation", "numeric_string_track_azimuth",
            "huge_int_f"])
    def test_malformed_geometry_exits_two(self, tmp_path, capsys, payload):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(payload))
        assert run(["track", "--geometry", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "geometry" in captured.err

    @pytest.mark.parametrize("text, message", [
        (_two_sats_text("1" + "0" * 400),
         "geometry: f must be a finite number, got 1000"),
        (_two_sats_text("1" + "0" * 5000),
         "geometry: not valid JSON: Exceeds the limit"),
        (_two_sats_text("0.5")[:-2], "geometry: not valid JSON: Expecting"),
    ], ids=["401_digit_f", "5001_digit_f", "truncated"])
    def test_unreadable_geometry_gives_one_short_line(self, tmp_path, capsys,
                                                      text, message):
        # the value is echoed at most 40 characters long, and a file json
        # cannot read (an integer past Python's 4300-digit limit included)
        # is named as such
        path = tmp_path / "geometry.json"
        path.write_text(text)
        assert run(["track", "--geometry", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1 and len(captured.err) <= 200

    @pytest.mark.parametrize("elevation", [100.0, -90.5])
    def test_elevation_out_of_range_exits_two(self, tmp_path, capsys, elevation):
        # past the zenith, elevation 100 at azimuth 10 would be read as
        # elevation 80 at azimuth 190
        path = write_geometry(tmp_path, [
            {"sat_id": "A", "elevation": elevation, "azimuth": 10.0},
            {"sat_id": "B", "elevation": 60.0, "azimuth": 270.0},
        ])
        assert run(["track", "--geometry", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("geometry: elevation must be in [-90, 90] degrees, "
                                f"got {elevation!r}\n")

    def test_cosines_off_unit_disc_exit_two(self, tmp_path, capsys):
        path = write_geometry(tmp_path, [
            {"sat_id": "A", "f": 0.8, "h": 0.6 + 1e-9},
            {"sat_id": "B", "f": -0.5, "h": 0.1},
        ])
        assert run(["track", "--geometry", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "sat A: f^2 + h^2 exceeds 1\n"


class TestFieldTables:
    """The exact field tables of interference and track, in both formats."""

    TWO = [{"sat_id": "E", "elevation": 35.0, "azimuth": 100.0},
           {"sat_id": "W", "elevation": 50.0, "azimuth": 250.0}]
    THREE = {"track_azimuth_deg": 90.0,
             "satellites": [{"sat_id": "A", "elevation": 30.0, "azimuth": 270.0},
                            {"sat_id": "B", "elevation": 45.0, "azimuth": 150.0},
                            {"sat_id": "C", "elevation": 20.0, "azimuth": 30.0}]}
    TABLES = {
        ("interference", "csv"): (
            "field,value\n"
            "tau0,3.000000367368e-04\n"
            "m_tau,8.126761235757e-09\n"
            "delta_tau_bound,8.126761235757e-11\n"
            "delta_tau_empirical,-8.127828585950e-11\n"),
        ("interference", "json"): (
            '{\n  "tau0": 0.00030000003673682097,\n'
            '  "m_tau": 8.126761235756757e-09,\n'
            '  "delta_tau_bound": 8.126761235756752e-11,\n'
            '  "delta_tau_empirical": -8.127828585949987e-11\n}\n'),
        ("two", "csv"): "field,value\nm_s,1.655566717\n",
        ("two", "json"): '{\n  "m_s": 1.655566716656015\n}\n',
        ("three", "csv"): (
            "field,value\ndeterminant,1.810541410\npermutation,0-1-2\n"
            "m_u,2.689212162\nm_v,2.518943861\n"),
        ("three", "json"): (
            '{\n  "determinant": 1.8105414104753734,\n'
            '  "permutation": [\n    0,\n    1,\n    2\n  ],\n'
            '  "m_u": 2.6892121623686682,\n  "m_v": 2.518943861040351\n}\n'),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_interference(self, capsys, monkeypatch, fmt):
        # the experiment's result for --prn 7 --power 1e-4 --sigma 0.01
        # --seed 3, fixed so that only the writer is under test
        result = TauPerturbation(tau0=0.00030000003673682097,
                                 m_tau=8.126761235756757e-09,
                                 delta_tau_bound=8.126761235756752e-11,
                                 delta_tau_empirical=-8.127828585949987e-11)
        monkeypatch.setattr(cli, "perturbation_experiment",
                            lambda *args: result)
        assert run(["interference", "--prn", "7", "--power", "1e-4",
                    "--sigma", "0.01", "--seed", "3", "--format", fmt]) == EXIT_OK
        assert capsys.readouterr().out == self.TABLES["interference", fmt]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", ["two", "three"])
    def test_track(self, tmp_path, capsys, case, fmt):
        payload = self.TWO if case == "two" else self.THREE
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(payload))
        assert run(["track", "--geometry", str(path), "--format", fmt]) == EXIT_OK
        assert capsys.readouterr().out == self.TABLES[case, fmt]


class TestOutputFile:
    """`run()` writes a command's text to --output exactly as it would to
    stdout, and only once the command has succeeded."""

    SITE = ["--lat", "34.75337", "--lon", "135.42783"]

    def argv(self, command, tmp_path, nav_path):
        files = fuzz_files(tmp_path, nav_path)
        if command.startswith("track"):
            payload = (TestFieldTables.TWO if command == "track_two"
                       else TestFieldTables.THREE)
            path = tmp_path / "track.json"
            path.write_text(json.dumps(payload))
            return ["track", "--geometry", str(path)]
        return {
            "code": ["code", "--prn", "7"],
            "interference": ["interference", "--prn", "5", "--power", "1e-4",
                             "--sigma", "0.01", "--seed", "3"],
            "scan_rinex": ["scan", "--nav", str(nav_path), *self.SITE,
                           "--step", "600"],
            "scan_table": ["scan", "--nav", files["positions.csv"], *self.SITE],
            "hist": ["hist", "--series", files["series.csv"]],
        }[command]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", [
        "code", "interference", "track_two", "track_three", "scan_rinex",
        "scan_table", "hist"])
    def test_holds_what_stdout_would(self, tmp_path, nav_path, capsys,
                                     command, fmt):
        argv = self.argv(command, tmp_path, nav_path) + ["--format", fmt]
        assert run(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout != ""
        dest = tmp_path / "out.txt"
        assert run(argv + ["--output", str(dest)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert dest.read_bytes() == stdout.encode()

    @pytest.mark.parametrize("case, code", [
        ("inadmissible_track", EXIT_DEGENERATE), ("tau_out_of_range", EXIT_USAGE)])
    def test_failure_leaves_existing_file(self, tmp_path, capsys, case, code):
        if case == "inadmissible_track":
            argv = ["track", "--geometry", write_geometry(tmp_path, [
                {"sat_id": "A", "f": 0.5, "h": 0.1},
                {"sat_id": "B", "f": 0.8, "h": -0.2}])]
        else:
            argv = ["interference", "--prn", "1", "--power", "1e-4", "--tau", "1"]
        dest = tmp_path / "out.txt"
        before = b"field,value\r\nm_s,2.000000000\r\n\x00"
        dest.write_bytes(before)
        assert run(argv + ["--output", str(dest)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert dest.read_bytes() == before


class TestScanAndHist:
    GOLDEN_DAY = "d3fd17a81918751215d7255e29ce91e4b4157ea9790da48259c845dabb128eb2"
    GOLDEN_ARGS = ["--lat", "34.75337", "--lon", "135.42783", "--height", "3.7",
                   "--azimuth", "90", "--mask", "15", "--step", "60"]

    def test_full_pipeline(self, nav_path, tmp_path, capsys):
        series = tmp_path / "series.csv"
        argv = ["scan", "--nav", str(nav_path),
                "--lat", "34.75337", "--lon", "135.42783", "--height", "3.7",
                "--output", str(series)]
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == ""
        lines = series.read_text().strip().splitlines()
        assert lines[0] == "week,sow,n_visible,best_m_s,sat_a,sat_b"
        assert len(lines) == 1441

        assert run(["hist", "--series", str(series),
                    "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert sum(payload["relative_frequency"]) + payload["overflow"] \
            == pytest.approx(1.0, abs=1e-12)

    def test_scan_determinism(self, nav_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["scan", "--nav", str(nav_path), "--lat", "34.75337",
                "--lon", "135.42783", "--step", "600"]
        assert run(argv + ["--output", str(a)]) == EXIT_OK
        assert run(argv + ["--output", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_golden_full_day_csv(self, nav_path, tmp_path):
        series = tmp_path / "series.csv"
        assert run(["scan", "--nav", str(nav_path), *self.GOLDEN_ARGS,
                    "--output", str(series)]) == EXIT_OK
        assert hashlib.sha256(series.read_bytes()).hexdigest() == self.GOLDEN_DAY

    def test_latin1_byte_in_rinex_header(self, nav_path, tmp_path):
        # a byte that is not UTF-8 (an older writer's Latin-1 e-acute) in a
        # header comment leaves the day's series as it was
        nav = tmp_path / "latin1.13n"
        nav.write_bytes(nav_path.read_bytes().replace(b"Synthetic", b"Synth\xe9tic", 1))
        series = tmp_path / "series.csv"
        assert run(["scan", "--nav", str(nav), *self.GOLDEN_ARGS,
                    "--output", str(series)]) == EXIT_OK
        assert hashlib.sha256(series.read_bytes()).hexdigest() == self.GOLDEN_DAY

    @pytest.mark.parametrize("site, azimuth, mask, step, digest", [
        (("-33.92", "18.42", "10"), "30", "10", "60",
         "6f39b27b0a3789e0dd4dc3a430b3d1d1016d150bd586b1a777beaf2397c7f195"),
        (("64.13", "-21.9", "50"), "200", "20", "120",
         "d9d096d04aa6fa479ee57bfa86a7f71be3ab774e5be83076822edc4409bb872e"),
    ])
    def test_pinned_rinex_scans(self, nav_path, tmp_path, site, azimuth, mask,
                                step, digest):
        # byte identity of two more (site, azimuth, mask) scans of the day
        series = tmp_path / "series.csv"
        lat, lon, height = site
        assert run(["scan", "--nav", str(nav_path), "--lat", lat, "--lon", lon,
                    "--height", height, "--azimuth", azimuth, "--mask", mask,
                    "--step", step, "--output", str(series)]) == EXIT_OK
        assert hashlib.sha256(series.read_bytes()).hexdigest() == digest

    def test_pinned_position_table_scan(self, tmp_path):
        # byte identity of a table scan: 9 satellites, one of them `A"B`,
        # 36 epochs at 300 s, with gap epochs where too few are in view
        table = tmp_path / "table.csv"
        table.write_text(small_position_table())
        series = tmp_path / "series.csv"
        assert run(["scan", "--nav", str(table), "--lat", "35.0", "--lon", "0.0",
                    "--azimuth", "60", "--mask", "15", "--step", "300",
                    "--output", str(series)]) == EXIT_OK
        text = series.read_text()
        assert '"A""B"' in text and ",,,\n" in text
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "ae9cf7a31da67b4afc1c474e91d990fa267177134e863840b44861183da510d6"

    def test_table_with_byte_order_mark(self, tmp_path, capsys):
        # a spreadsheet's "CSV UTF-8" export starts with a UTF-8 byte-order
        # mark; the table is still a table, with the same series
        outputs = []
        for name, prefix in (("plain.csv", b""), ("bom.csv", b"\xef\xbb\xbf")):
            table = tmp_path / name
            table.write_bytes(prefix + small_position_table().encode())
            assert run(["scan", "--nav", str(table), "--lat", "35.0", "--lon",
                        "0.0", "--azimuth", "60", "--step", "300"]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0].count("\n") == 37
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("row", [b"G\xe93,1750,0,1.5e7,1.5e7,1.5e7",
                                     b"G03,1750,0,1.5\xe9e7,1.5e7,1.5e7"],
                             ids=["sat_id", "x_m"])
    def test_latin1_byte_in_table_row(self, tmp_path, row):
        # a byte that is not UTF-8 in an id or a coordinate skips its row
        # with the line number, as any malformed row; it used to fail the
        # whole scan with the decoder's byte offset
        table = tmp_path / "positions.csv"
        table.write_bytes(b"sat_id,week,sow,x_m,y_m,z_m\n"
                          b"G01,1750,0,1.5e7,1.5e7,1.5e7\n" + row + b"\n"
                          b"G02,1750,60,-1.5e7,1.5e7,1.5e7\n")
        result = navbound_process("scan", "--nav", str(table), "--lat", "34.75337",
                                  "--lon", "135.42783")
        assert result.returncode == EXIT_OK
        assert len(result.stdout.splitlines()) == 3
        [line] = result.stderr.splitlines()
        assert line.startswith("WARNING:navbound.orbits:line 3: skipping malformed row")

    def test_quoted_id_from_a_table(self, tmp_path, capsys):
        # a table id that csv must quote reaches the series quoted, and
        # reads back as itself
        table = tmp_path / "table.csv"
        table.write_text("sat_id,week,sow,x_m,y_m,z_m\n"
                         'A"B,1750,345600,14378137.0,-12000000.0,0.0\n'
                         "G02,1750,345600,14378137.0,12000000.0,1000000.0\n")
        assert run(["scan", "--nav", str(table), "--lat", "0", "--lon", "0",
                    "--azimuth", "90"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[1].endswith(',"A""B",G02')
        [row] = list(csv.reader(io.StringIO(out)))[1:]
        assert row[4:] == ['A"B', "G02"] and row[2] == "2"

    def test_propagation_failure_exits_one(self, nav_path, capsys,
                                           monkeypatch):
        def diverge(mean_anomaly, e):
            raise EphemerisError("Kepler iteration did not converge")

        monkeypatch.setattr(orbits, "_kepler_array", diverge)
        assert run(["scan", "--nav", str(nav_path), "--lat", "34.75337",
                    "--lon", "135.42783"]) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "Kepler iteration did not converge\n"

    @pytest.mark.parametrize("option, value", [
        ("--lat", "nan"), ("--height", "nan"), ("--height", "inf"),
        ("--azimuth", "nan"), ("--utc-offset", "1e20"),
        ("--utc-offset", "inf")])
    def test_non_finite_or_overflowing_option_exits_two(self, nav_path, capsys,
                                                        option, value):
        argv = ["scan", "--nav", str(nav_path), "--lat", "34.75337",
                "--lon", "135.42783", option, value]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("value, table", [
        ("nan", False), ("inf", False), ("nan", True)],
        ids=["nan", "inf", "table_nan"])
    def test_non_finite_utc_offset_named(self, nav_path, tmp_path, capsys,
                                         value, table):
        # the diagnostic names the offset, not the failed float conversion;
        # a table's epochs are GPS time, but the offset is refused there too
        nav = nav_path
        if table:
            nav = tmp_path / "positions.csv"
            nav.write_text("sat_id,week,sow,x_m,y_m,z_m\n"
                           "G01,1750,0,1.5e7,1.5e7,1.5e7\n"
                           "G02,1750,60,-1.5e7,1.5e7,1.5e7\n"
                           "G03,1750,120,1.5e7,-1.5e7,1.5e7\n")
        argv = ["scan", "--nav", str(nav), "--lat", "34.75337",
                "--lon", "135.42783", "--utc-offset", value]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("GPS-UTC offset must be a finite number of seconds, "
                                f"got {float(value)}\n")

    @pytest.mark.parametrize("height", ["1.5e154", "1e156"])
    def test_absurd_height_exits_two(self, nav_path, height):
        # finite, so once accepted: the scan exited 0 after numpy
        # RuntimeWarnings from the ENU norm
        result = navbound_process("scan", "--nav", str(nav_path), "--lat",
                                  "34.75337", "--lon", "135.42783",
                                  "--height", height)
        assert result.returncode == EXIT_USAGE
        assert result.stdout == ""
        assert result.stderr == (f"height must be within ±1e+07 m, "
                                 f"got {float(height)!r}\n")

    @pytest.mark.parametrize("step", ["1e-9", "0.5"])
    def test_scan_epoch_count_bound_exits_two(self, nav_path, capsys, step):
        # a full day at these steps is 8.64e13 and 172800 epochs
        argv = ["scan", "--nav", str(nav_path), "--lat", "34.75337",
                "--lon", "135.42783", "--step", step]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "span / step exceeds 86400 epochs\n"

    def test_overflowing_record_one_line(self, nav_text, tmp_path):
        # IDOT (first field of the record's fifth orbit line) of 1e306
        # overflows the inclination; the scan used to print numpy
        # RuntimeWarnings before its diagnostic
        lines = nav_text.splitlines()
        start = next(i for i, l in enumerate(lines) if "END OF HEADER" in l) + 1
        idot = lines[start + 5]
        lines[start + 5] = idot[:3] + "1.000000000000D+306".rjust(19) + idot[22:]
        nav = tmp_path / "overflow.13n"
        nav.write_text("\n".join(lines) + "\n")
        result = navbound_process("scan", "--nav", str(nav), "--lat", "34.75337",
                                  "--lon", "135.42783")
        assert result.returncode == EXIT_DEGENERATE
        assert result.stdout == ""
        assert result.stderr == ("G01: non-finite position propagated from "
                                 "its broadcast elements\n")

    @pytest.mark.parametrize("row", [
        f"G03,{'9' * 400},0,1.5e7,1.5e7,1.5e7",
        "G03,1750,0,1e400,1.5e7,1.5e7", "G03,1750,0,1.5e7,nan,1.5e7"])
    def test_malformed_table_row_one_warning(self, tmp_path, row):
        # a week that overflows a float used to end the scan in an
        # OverflowError traceback; a non-finite coordinate in numpy warnings
        table = tmp_path / "positions.csv"
        table.write_text("sat_id,week,sow,x_m,y_m,z_m\n"
                         "G01,1750,0,1.5e7,1.5e7,1.5e7\n" + row + "\n"
                         "G02,1750,60,-1.5e7,1.5e7,1.5e7\n")
        result = navbound_process("scan", "--nav", str(table), "--lat", "34.75337",
                                  "--lon", "135.42783")
        assert result.returncode == EXIT_OK
        assert len(result.stdout.splitlines()) == 3
        [line] = result.stderr.splitlines()
        assert line.startswith("WARNING:navbound.orbits:line 3: skipping malformed row")

    def test_overflowing_range_row_skipped(self, tmp_path):
        # a finite coordinate whose square overflows used to end the scan in
        # numpy's overflow warning and exit 2 on a non-unit direction
        table = tmp_path / "positions.csv"
        table.write_text("sat_id,week,sow,x_m,y_m,z_m\n"
                         "G01,1750,0,1e200,1.5e7,1.5e7\n"
                         "G02,1750,0,-1.5e7,1.5e7,1.5e7\n")
        result = navbound_process("scan", "--nav", str(table), "--lat", "34.75337",
                                  "--lon", "135.42783")
        assert result.returncode == EXIT_OK
        assert result.stderr == ("WARNING:navbound.orbits:line 2: skipping "
                                 "malformed row: x^2 + y^2 + z^2 overflows\n")
        assert result.stdout.splitlines()[1:] == ["1750,0.000,1,,,"]

    @pytest.mark.parametrize("step, code, err", [
        ("inf", EXIT_USAGE, "GPS time must be finite, got inf s\n"),
        ("1e308", EXIT_OK, "")])
    def test_table_scan_extreme_step(self, tmp_path, capsys, step, code, err):
        # the table's scan ends one step after its last epoch; these steps
        # used to raise numpy RuntimeWarnings there and in the epoch axis
        table = tmp_path / "positions.csv"
        table.write_text("sat_id,week,sow,x_m,y_m,z_m\n"
                         "G01,1750,0,1.5e7,1.5e7,1.5e7\n")
        assert run(["scan", "--nav", str(table), "--lat", "34.75337",
                    "--lon", "135.42783", "--step", step]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        assert len(captured.out.splitlines()) == (2 if code == EXIT_OK else 0)

    def test_table_without_usable_rows(self, tmp_path, capsys):
        table = tmp_path / "positions.csv"
        table.write_text("sat_id,week,sow,x_m,y_m,z_m\nG01,1750,abc,1,2,3\n")
        assert run(["scan", "--nav", str(table), "--lat", "34.75337",
                    "--lon", "135.42783"]) == EXIT_DEGENERATE
        assert "no usable position rows" in capsys.readouterr().err

    def test_rinex_without_records(self, tmp_path, capsys):
        nav = tmp_path / "empty.13n"
        nav.write_text(f"{'2.11':>9}{'':11}N: GPS NAV DATA{'':25}RINEX VERSION / TYPE\n"
                       f"{'':60}END OF HEADER\n")
        assert run(["scan", "--nav", str(nav), "--lat", "34.75337",
                    "--lon", "135.42783"]) == EXIT_DEGENERATE
        assert "no usable ephemeris records" in capsys.readouterr().err

    def test_rinex_without_healthy_records(self, nav_text, tmp_path, capsys):
        # SV health is field 2 of orbit line 6 (line 7 of each 8-line record)
        lines = nav_text.splitlines()
        start = next(i for i, l in enumerate(lines) if "END OF HEADER" in l) + 1
        for k in range(start + 6, len(lines), 8):
            lines[k] = lines[k][:22] + " 0.100000000000D+01" + lines[k][41:]
        nav = tmp_path / "unhealthy.13n"
        nav.write_text("\n".join(lines) + "\n")
        assert run(["scan", "--nav", str(nav), "--lat", "34.75337",
                    "--lon", "135.42783"]) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "no satellite position in the scan span\n"

    def test_hist_missing_column_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("week,sow\n1750,0.0\n")
        assert run(["hist", "--series", str(bad)]) == EXIT_USAGE
        assert capsys.readouterr().err != ""

    def test_hist_of_non_series_file_exits_two(self, nav_path, capsys):
        assert run(["hist", "--series", str(nav_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "not a scan series: the header row does not match\n"

    @pytest.mark.filterwarnings("error")
    def test_hist_value_far_below_range_in_first_bin(self, tmp_path, capsys):
        # (v - low) / width would overflow; like any value below the range
        # it counts in the first bin, with no warning on stderr
        series = tmp_path / "series.csv"
        series.write_text("week,sow,n_visible,best_m_s,sat_a,sat_b\n"
                          "1750,0.000,2,-1e308,G01,G02\n")
        assert run(["hist", "--series", str(series), "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["relative_frequency"][0] == 1.0

    @pytest.mark.parametrize("row", [
        "abc,0.000,2,1.5,G01,G02", "1750,,2,1.5,G01,G02",
        "1750,604800.0,2,1.5,G01,G02", "1750,0.000,two,1.5,G01,G02",
        "1750,0.000,2,x,G01,G02", "1750,0.000,2,nan,G01,G02",
        "1750,0.000,2,1.5"],
        ids=["week", "sow_empty", "sow_range", "n_visible", "best_m_s",
             "best_m_s_nan", "short_row"])
    def test_hist_malformed_row_exits_two(self, tmp_path, capsys, row):
        series = tmp_path / "series.csv"
        series.write_text("week,sow,n_visible,best_m_s,sat_a,sat_b\n"
                          "1750,0.000,2,1.500000000,G01,G02\n" + row + "\n")
        assert run(["hist", "--series", str(series)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scan series line 3: malformed row\n"

    def test_hist_all_gaps(self, tmp_path, capsys):
        series = tmp_path / "gaps.csv"
        series.write_text("week,sow,n_visible,best_m_s,sat_a,sat_b\n"
                          "1750,0.000,1,,,\n")
        assert run(["hist", "--series", str(series)]) == EXIT_DEGENERATE
        assert capsys.readouterr().err == "no epochs with an admissible pair\n"

    @pytest.mark.parametrize("options", [
        ["--range", "3", "1"], ["--range", "1", "1"], ["--range", "1", "inf"],
        ["--range", "nan", "3"], ["--bin-width", "inf"],
        ["--bin-width", "nan"], ["--bin-width", "0"], ["--bin-width", "-0.1"],
        ["--bin-width", "1e-9"], ["--bin-width", "10"]],
        ids=["reversed_range", "empty_range", "infinite_range", "nan_range",
             "infinite_width", "nan_width", "zero_width", "negative_width",
             "too_many_bins", "wider_than_range"])
    def test_hist_bad_bins_exit_two(self, tmp_path, capsys, options):
        series = tmp_path / "series.csv"
        series.write_text("week,sow,n_visible,best_m_s,sat_a,sat_b\n"
                          "1750,0.000,2,1.500000000,G01,G02\n")
        assert run(["hist", "--series", str(series)] + options) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1


# Option values for the argv fuzz: plain, extreme, non-finite and unreadable.
HOSTILE_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "3", "32", "90", "-90", "181", "1e-9",
                     "1e308", "-1e308", "nan", "inf", "-inf", "abc", ""]),
    st.floats().map(repr), st.integers(-10**6, 10**6).map(str))

# Per subcommand, each option with values that the command accepts; the
# fuzz usually draws one of these so that runs get past the parser.
FUZZ_OPTIONS = {
    "code": {"--prn": ["1", "32"]},
    "interference": {"--prn": ["1", "7"], "--power": ["1e-4", "1e3"],
                     "--sigma": ["0", "0.01", "5"], "--seed": ["0", "42"],
                     "--tau": ["0", "3e-4", "nan", "3.986e14"]},
    "track": {"--geometry": ["geometry.json"]},
    "scan": {"--nav": ["brdc2060.13n", "positions.csv"],
             "--lat": ["34.75337", "-60"], "--lon": ["135.42783", "180"],
             "--height": ["3.7"], "--azimuth": ["90", "-45"],
             "--mask": ["15", "0"], "--step": ["60", "600", "86400"],
             "--utc-offset": ["16", "18"]},
    "hist": {"--series": ["series.csv"], "--bin-width": ["0.1", "0.5"],
             "--range": ["1", "3"]},
}
FUZZ_FILE_OPTIONS = ("--geometry", "--nav", "--series")


def fuzz_files(tmp_path, nav_path):
    """The files that file options may name, by name: fixtures of each
    kind and a missing path."""
    files = {"brdc2060.13n": nav_path, "missing.txt": tmp_path / "missing.txt"}
    for name, text in (
            ("geometry.json", json.dumps([{"sat_id": "A", "f": -0.5, "h": 0.1},
                                          {"sat_id": "B", "f": 0.8, "h": -0.2}])),
            ("series.csv", "week,sow,n_visible,best_m_s,sat_a,sat_b\n"
                           "1750,0.000,2,1.500000000,G01,G02\n1750,60.000,1,,,\n"),
            ("positions.csv", "sat_id,week,sow,x_m,y_m,z_m\n"
                              "G01,1750,0,1.5e7,1.5e7,1.5e7\n"
                              "G02,1750,60,-1.5e7,1.5e7,1.5e7\n")):
        files[name] = tmp_path / name
        files[name].write_text(text)
    return {name: str(path) for name, path in files.items()}


class TestArgvFuzz:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exits_with_documented_code(self, tmp_path, nav_path, capsys, data):
        files = fuzz_files(tmp_path, nav_path)
        command = data.draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
        argv = [command]
        for option, plausible in FUZZ_OPTIONS[command].items():
            kind = data.draw(st.sampled_from(["plausible"] * 5
                                             + ["hostile", "absent"]))
            if kind == "absent":
                continue
            if option in FUZZ_FILE_OPTIONS:
                name = data.draw(st.sampled_from(plausible if kind == "plausible"
                                                 else sorted(files)))
                argv += [option, files[name]]
                continue
            values = (st.sampled_from(plausible) if kind == "plausible"
                      else HOSTILE_VALUES)
            argv += [option] + [data.draw(values)
                                for _ in range(2 if option == "--range" else 1)]
        if data.draw(st.booleans()):
            argv += ["--format", data.draw(st.sampled_from(["csv", "json"]))]
        if data.draw(st.booleans()):
            argv += ["--output", str(tmp_path / "out.txt")]
        assert run(argv) in (EXIT_OK, EXIT_DEGENERATE, EXIT_USAGE)
        assert "Traceback" not in capsys.readouterr().err


# Runs CLI commands in one fresh interpreter and reports, after each, whether
# scipy has been imported; argv[1] is a JSON object of the commands' inputs.
COLD_START_SCRIPT = """
import json, sys
import navbound
from navbound import cli

given = json.loads(sys.argv[1])
site = ["--lat", "34.75337", "--lon", "135.42783"]
out = given["out"]
commands = {
    "scan_rinex": ["scan", "--nav", given["nav"], *site, "--output", given["series"]],
    "scan_table": ["scan", "--nav", given["table"], *site, "--output", out],
    "track_two": ["track", "--geometry", given["two"], "--output", out],
    "track_three": ["track", "--geometry", given["three"], "--output", out],
    "hist": ["hist", "--series", given["series"], "--output", out],
    "code": ["code", "--prn", "7", "--output", out],
    "interference": given["interference"] + ["--output", out],
}
report = {"import": {"exit": None, "scipy": "scipy" in sys.modules}}
for name, argv in commands.items():
    report[name] = {"exit": cli.run(argv), "scipy": "scipy" in sys.modules}
with open(out) as f:
    report["interference"]["fields"] = {k: float.hex(v) for k, v in json.load(f).items()}
print(json.dumps(report))
"""


class TestColdStart:
    def test_no_command_loads_scipy(self, nav_path, tmp_path, capsys):
        # importing scipy would be most of a command's start-up; the delay
        # model's Phi comes from math.erfc, so no command may load it
        table = tmp_path / "positions.csv"
        table.write_text("sat_id,week,sow,x_m,y_m,z_m\n"
                         "G01,1750,0,1.5e7,1.5e7,1.5e7\n"
                         "G02,1750,60,-1.5e7,1.5e7,1.5e7\n")
        two = write_geometry(tmp_path, [{"sat_id": "A", "f": -0.5, "h": 0.1},
                                        {"sat_id": "B", "f": 0.8, "h": -0.2}])
        three = tmp_path / "three.json"
        three.write_text(json.dumps([
            {"sat_id": str(j), "f": 0.5 * math.cos(a), "h": 0.5 * math.sin(a)}
            for j, a in enumerate((math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
                                   math.pi / 2 + 4 * math.pi / 3))]))
        interference = ["interference", "--prn", "5", "--power", "1e-4",
                        "--sigma", "0.01", "--seed", "3", "--format", "json"]
        given = {"nav": str(nav_path), "table": str(table), "two": two,
                 "three": str(three), "series": str(tmp_path / "series.csv"),
                 "out": str(tmp_path / "out.txt"), "interference": interference}
        result = python_process("-c", COLD_START_SCRIPT, json.dumps(given))
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        fresh_fields = report["interference"].pop("fields")
        assert report == {name: {"exit": None if name == "import" else EXIT_OK,
                                 "scipy": False} for name in report}

        assert run(interference) == EXIT_OK
        fields = json.loads(capsys.readouterr().out)
        assert fresh_fields == {k: float.hex(v) for k, v in fields.items()}


class TestUsage:
    def test_no_subcommand(self):
        assert run([]) == EXIT_USAGE

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_argument(self):
        assert run(["code"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_cached_parser_parses_each_call_afresh(self, tmp_path, capsys):
        out = tmp_path / "code.csv"
        assert run(["code", "--prn", "3", "--format", "json",
                    "--output", str(out)]) == EXIT_OK
        path = write_geometry(tmp_path, [
            {"sat_id": "A", "f": -0.5, "h": 0.1},
            {"sat_id": "B", "f": 0.8, "h": -0.2},
        ])
        # --format and --output of the first call must not carry over
        assert run(["track", "--geometry", path]) == EXIT_OK
        assert capsys.readouterr().out == "field,value\nm_s,2.000000000\n"
        assert json.loads(out.read_text())["prn"] == 3
        assert run(["code", "--prn", "5", "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["prn"] == 5
        assert cli._build_parser() is cli._build_parser()

    def test_console_script_installed(self):
        assert shutil.which("navbound") is not None
