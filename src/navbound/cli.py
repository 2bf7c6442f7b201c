"""Command-line front end.

Subcommands:
  code          emit a C/A spreading code
  interference  worst-case delay-bias experiment for one PRN
  track         magnification coefficients of a satellite geometry file
  scan          full-day along-track magnification sweep over an ephemeris file
  hist          relative-frequency histogram of a scan series

Exit codes: 0 success, 1 degenerate or inadmissible input (including a
failed delay estimate or orbit propagation), 2 usage error.
Data goes to stdout (or --output); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import json
import logging
import math
import sys

from . import scan as scan_mod
from .cacode import generate_ca_code
from .orbits import (DEFAULT_GPS_UTC_OFFSET, EphemerisError, GpsTime,
                     SiteLocation, parse_position_csv, parse_rinex_nav)
from .scan import EmptySeriesError, ScanConfig, histogram, scan_ms
from .signal_model import (DegenerateCurvatureError, DelayEstimationError,
                           NoiseConfig, default_spec, perturbation_experiment,
                           worst_interference, sample_waveform)
from .track import (DegenerateGeometryError, SatGeometry, check_unit_disc,
                    determinant_d, directional_cosines, frenet_frame,
                    magnification_s, magnification_uv)

EXIT_OK = 0
EXIT_DEGENERATE = 1
EXIT_USAGE = 2


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_code(args) -> int:
    code = generate_ca_code(args.prn)
    if args.format == "json":
        text = json.dumps({"prn": args.prn,
                           "chips": code.chips.tolist()}) + "\n"
    else:
        lines = ["k,chip"]
        lines += [f"{k},{c}" for k, c in enumerate(code.chips)]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def _cmd_interference(args) -> int:
    spec = default_spec(args.prn)
    tau_true = args.tau if args.tau is not None else 0.3 * spec.code_period
    if not 0 <= tau_true < spec.code_period:  # NaN fails too
        raise ValueError(f"--tau must be in [0, {spec.code_period}) s, got {tau_true}")
    w1 = sample_waveform(spec, tau_true, 1)
    dy = worst_interference(w1, args.power)
    result = perturbation_experiment(
        spec, tau_true, NoiseConfig(sigma=args.sigma, seed=args.seed), dy)
    fields = {
        "tau0": result.tau0,
        "m_tau": result.m_tau,
        "delta_tau_bound": result.delta_tau_bound,
        "delta_tau_empirical": result.delta_tau_empirical,
    }
    if args.format == "json":
        text = json.dumps(fields, indent=2) + "\n"
    else:
        text = "field,value\n" + "".join(
            f"{k},{v:.12e}\n" for k, v in fields.items())
    _emit(text, args.output)
    return EXIT_OK


def _finite(value, name: str) -> float:
    """A geometry field as a finite float; ValueError (exit 2) otherwise."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"geometry: {name} must be a finite number, got {value!r}")
    return number


def _load_geometry(path: str) -> list[SatGeometry]:
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, dict):
        track_azimuth = math.radians(_finite(data.get("track_azimuth_deg", 90.0),
                                             "track_azimuth_deg"))
        sats_raw = data.get("satellites")
    else:
        track_azimuth = math.radians(90.0)
        sats_raw = data
    if not (isinstance(sats_raw, list)
            and all(isinstance(rec, dict) for rec in sats_raw)):
        raise ValueError("geometry must be a list of satellite objects or "
                         "{\"satellites\": [...]}")
    frame = frenet_frame(track_azimuth, "straight")
    sats = []
    for rec in sats_raw:
        sat_id = str(rec.get("sat_id", len(sats) + 1))
        if "f" in rec:
            f, h = _finite(rec.get("f"), "f"), _finite(rec.get("h"), "h")
            check_unit_disc(f, h, sat_id)
            sats.append(SatGeometry(sat_id=sat_id, f=f, h=h))
        else:
            el = math.radians(_finite(rec.get("elevation"), "elevation"))
            az = math.radians(_finite(rec.get("azimuth"), "azimuth"))
            d = [math.sin(az) * math.cos(el), math.cos(az) * math.cos(el),
                 math.sin(el)]
            sats.extend(directional_cosines([d], frame, sat_ids=[sat_id]))
    return sats


def _cmd_track(args) -> int:
    sats = _load_geometry(args.geometry)
    if len(sats) == 2:
        ms = magnification_s(sats[0], sats[1])
        if not ms.admissible:
            print("inadmissible: along-track cosines do not have opposite signs",
                  file=sys.stderr)
            return EXIT_DEGENERATE
        if args.format == "json":
            text = json.dumps({"m_s": ms.m_s}, indent=2) + "\n"
        else:
            text = f"field,value\nm_s,{ms.m_s:.9f}\n"
        _emit(text, args.output)
        return EXIT_OK
    if len(sats) == 3:
        d = determinant_d(sats)
        muv = magnification_uv(sats)
        perm = muv.permutation
        if not muv.admissible:
            print("inadmissible: no satellite ordering satisfies the "
                  "orientation condition (or a cofactor vanishes)",
                  file=sys.stderr)
            return EXIT_DEGENERATE
        fields = {"determinant": d,
                  "permutation": list(perm),
                  "m_u": muv.m_u, "m_v": muv.m_v}
        if args.format == "json":
            text = json.dumps(fields, indent=2) + "\n"
        else:
            text = ("field,value\n"
                    f"determinant,{d:.9f}\n"
                    f"permutation,{'-'.join(str(p) for p in perm)}\n"
                    f"m_u,{muv.m_u:.9f}\n"
                    f"m_v,{muv.m_v:.9f}\n")
        _emit(text, args.output)
        return EXIT_OK
    print(f"geometry file must contain 2 or 3 satellites, got {len(sats)}",
          file=sys.stderr)
    return EXIT_USAGE


def _day_span(ephemerides, utc_offset: float) -> tuple[GpsTime, GpsTime]:
    """Full UTC day containing the median ephemeris issue epoch."""
    toes = sorted(e.toe for e in ephemerides)
    try:
        mid_utc = toes[len(toes) // 2].to_utc(utc_offset)
        day0 = dt.datetime(mid_utc.year, mid_utc.month, mid_utc.day)
        return (GpsTime.from_utc(day0, utc_offset),
                GpsTime.from_utc(day0 + dt.timedelta(days=1), utc_offset))
    except OverflowError:
        raise ValueError(f"GPS-UTC offset {utc_offset} s puts the scan day "
                         "outside the calendar") from None


def _cmd_scan(args) -> int:
    with open(args.nav) as f:
        text = f.read()
    site = SiteLocation(args.lat, args.lon, args.height)
    if text.lstrip().lower().startswith("sat_id"):
        source = parse_position_csv(text)
        if not source.sat_ids:
            print("no usable position rows", file=sys.stderr)
            return EXIT_DEGENERATE
        start = GpsTime.from_seconds(source.epochs[0])
        end = GpsTime.from_seconds(source.epochs[-1] + args.step)
    else:
        source = parse_rinex_nav(text)
        if not source:
            print("no usable ephemeris records", file=sys.stderr)
            return EXIT_DEGENERATE
        start, end = _day_span(source, args.utc_offset)
    config = ScanConfig(site=site, track_azimuth=args.azimuth, mask=args.mask,
                        step=args.step, start=start, end=end)
    series = scan_ms(config, source)
    text_out = (scan_mod.series_json(series) + "\n" if args.format == "json"
                else scan_mod.series_csv(series))
    _emit(text_out, args.output)
    return EXIT_OK


def _cmd_hist(args) -> int:
    with open(args.series) as f:
        best_m_s = scan_mod.parse_series_csv(f.read())
    hist = histogram(best_m_s, args.bin_width, tuple(args.range))
    text = (scan_mod.hist_json(hist) + "\n" if args.format == "json"
            else scan_mod.hist_csv(hist))
    _emit(text, args.output)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="navbound",
        description="Worst-case bias-error bounds for satellite navigation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("code", help="emit a C/A spreading code")
    p.add_argument("--prn", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("interference",
                       help="worst-case delay-bias experiment")
    p.add_argument("--prn", type=int, required=True)
    p.add_argument("--power", type=float, required=True,
                   help="interference power budget ||dy||^2")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=None,
                   help="true delay in seconds (default 0.3 code periods)")
    common(p)
    p.set_defaults(func=_cmd_interference)

    p = sub.add_parser("track", help="magnification coefficients of a geometry")
    p.add_argument("--geometry", required=True,
                   help="JSON file: list of {sat_id, f, h} or "
                        "{sat_id, elevation, azimuth}")
    common(p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("scan", help="full-day magnification sweep")
    p.add_argument("--nav", required=True,
                   help="RINEX 2 navigation file or sat_id,week,sow,x,y,z CSV")
    p.add_argument("--lat", type=float, required=True)
    p.add_argument("--lon", type=float, required=True)
    p.add_argument("--height", type=float, default=0.0)
    p.add_argument("--azimuth", type=float, default=90.0,
                   help="track azimuth, degrees clockwise from north")
    p.add_argument("--mask", type=float, default=15.0)
    p.add_argument("--step", type=float, default=60.0)
    p.add_argument("--utc-offset", type=float, default=DEFAULT_GPS_UTC_OFFSET,
                   help="GPS-UTC offset in seconds")
    common(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("hist", help="histogram of a scan series")
    p.add_argument("--series", required=True, help="scan series CSV file")
    p.add_argument("--bin-width", type=float, default=0.1)
    p.add_argument("--range", type=float, nargs=2, default=[1.0, 3.0])
    common(p)
    p.set_defaults(func=_cmd_hist)
    return parser


def run(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (DegenerateGeometryError, DegenerateCurvatureError,
            DelayEstimationError, EmptySeriesError, EphemerisError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, ValueError, KeyError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
