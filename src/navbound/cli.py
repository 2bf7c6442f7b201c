"""Command-line front end.

Subcommands:
  code          emit a C/A spreading code
  interference  worst-case delay-bias experiment for one PRN
  track         magnification coefficients of a satellite geometry file
  scan          full-day along-track magnification sweep over an ephemeris file
  hist          relative-frequency histogram of a scan series

Each subcommand returns its output text; `run()` writes it to stdout (or
--output) only once the command has succeeded, and alone maps exceptions to
exit codes: 0 success, 1 degenerate or inadmissible input (including a
failed delay estimate or orbit propagation), 2 usage error. Diagnostics go
to stderr.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import json
import logging
import math
import reprlib
import sys

from . import scan as scan_mod
from .cacode import generate_ca_code
from .orbits import (DEFAULT_GPS_UTC_OFFSET, EphemerisError, GpsTime,
                     SiteLocation, parse_position_csv, parse_rinex_nav)
from .scan import EmptySeriesError, ScanConfig, histogram, scan_ms
from .signal_model import (DegenerateCurvatureError, DelayEstimationError,
                           default_spec, worst_case_experiment)
from .track import (DegenerateGeometryError, SatGeometry, check_unit_disc,
                    determinant_d, directional_cosines, frenet_frame,
                    magnification_s, magnification_uv)

EXIT_OK = 0
EXIT_DEGENERATE = 1
EXIT_USAGE = 2


def _fields(args, fields: dict, fmt: str) -> str:
    """Fields as one JSON object, or as field,value rows with each number
    in format fmt and a list joined by '-'."""
    if args.format == "json":
        return json.dumps(fields, indent=2) + "\n"
    return "field,value\n" + "".join(
        f"{k},{'-'.join(map(str, v)) if isinstance(v, list) else format(v, fmt)}\n"
        for k, v in fields.items())


def _cmd_code(args) -> str:
    code = generate_ca_code(args.prn)
    if args.format == "json":
        return json.dumps({"prn": args.prn, "chips": code.chips.tolist()}) + "\n"
    lines = ["k,chip"]
    lines += [f"{k},{c}" for k, c in enumerate(code.chips)]
    return "\n".join(lines) + "\n"


def _cmd_interference(args) -> str:
    spec = default_spec(args.prn)
    tau_true = args.tau if args.tau is not None else 0.3 * spec.code_period
    if not 0 <= tau_true < spec.code_period:  # NaN fails too
        raise ValueError(f"--tau must be in [0, {spec.code_period}) s, got {tau_true}")
    result = worst_case_experiment(spec, tau_true, args.power, args.sigma, args.seed)
    return _fields(args, {
        "tau0": result.tau0,
        "m_tau": result.m_tau,
        "delta_tau_bound": result.delta_tau_bound,
        "delta_tau_empirical": result.delta_tau_empirical,
    }, ".12e")


def _finite(value, name: str) -> float:
    """A geometry field as a finite float; ValueError (exit 2) otherwise.
    A string or a boolean is not a number: the exact type test leaves out
    bool, an int subclass."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"geometry: {name} must be a finite number, "
                         f"got {reprlib.repr(value)}")  # at most 40 characters
    return number


def _load_geometry(path: str) -> list[SatGeometry]:
    with open(path) as f:
        try:
            data = json.load(f)
        except ValueError as exc:  # also an integer past Python's digit limit
            raise ValueError(f"geometry: not valid JSON: {exc}") from None
    if isinstance(data, dict):
        azimuth, sats_raw = data.get("track_azimuth_deg", 90.0), data.get("satellites")
    else:
        azimuth, sats_raw = 90.0, data
    frame = frenet_frame(math.radians(_finite(azimuth, "track_azimuth_deg")))
    if not (isinstance(sats_raw, list)
            and all(isinstance(rec, dict) for rec in sats_raw)):
        raise ValueError("geometry must be a list of satellite objects or "
                         "{\"satellites\": [...]}")
    sats = []
    for rec in sats_raw:
        sat_id = str(rec.get("sat_id", len(sats) + 1))
        if "f" in rec:
            f, h = _finite(rec.get("f"), "f"), _finite(rec.get("h"), "h")
            check_unit_disc(f, h, f"sat {sat_id}")
        else:
            elevation = _finite(rec.get("elevation"), "elevation")
            if not -90.0 <= elevation <= 90.0:
                raise ValueError("geometry: elevation must be in [-90, 90] degrees, "
                                 f"got {elevation!r}")
            el = math.radians(elevation)
            az = math.radians(_finite(rec.get("azimuth"), "azimuth"))
            d = [math.sin(az) * math.cos(el), math.cos(az) * math.cos(el),
                 math.sin(el)]
            f, h = map(float, directional_cosines(d, frame))
        sats.append(SatGeometry(sat_id=sat_id, f=f, h=h))
    return sats


def _cmd_track(args) -> str:
    sats = _load_geometry(args.geometry)
    if len(sats) == 2:
        ms = magnification_s(sats[0], sats[1])
        if not ms.admissible:
            raise DegenerateGeometryError(
                "inadmissible: along-track cosines do not have opposite signs"
                if ms.m_s is None else
                "inadmissible: M_s overflows (an along-track cosine is subnormal)")
        return _fields(args, {"m_s": ms.m_s}, ".9f")
    if len(sats) == 3:
        muv = magnification_uv(sats)
        if not muv.admissible:
            raise DegenerateGeometryError(
                "inadmissible: no satellite ordering satisfies the orientation "
                "condition (or a cofactor vanishes)" if muv.permutation is None else
                "inadmissible: M_u or M_v overflows (a cofactor is subnormal)")
        return _fields(args, {"determinant": determinant_d(sats),
                              "permutation": list(muv.permutation),
                              "m_u": muv.m_u, "m_v": muv.m_v}, ".9f")
    raise ValueError(f"geometry file must contain 2 or 3 satellites, got {len(sats)}")


def _day_span(ephemerides, utc_offset: float) -> tuple[GpsTime, GpsTime]:
    """Full UTC day containing the median ephemeris issue epoch."""
    toes = sorted((e.toe for e in ephemerides), key=GpsTime.total_seconds)
    try:
        mid_utc = toes[len(toes) // 2].to_utc(utc_offset)
        day0 = dt.datetime(mid_utc.year, mid_utc.month, mid_utc.day)
        return (GpsTime.from_utc(day0, utc_offset),
                GpsTime.from_utc(day0 + dt.timedelta(days=1), utc_offset))
    except OverflowError:
        raise ValueError(f"GPS-UTC offset {utc_offset} s puts the scan day "
                         "outside the calendar") from None


def _cmd_scan(args) -> str:
    if not math.isfinite(args.utc_offset):
        raise ValueError("GPS-UTC offset must be a finite number of seconds, "
                         f"got {args.utc_offset}")
    # utf-8-sig drops the byte-order mark a spreadsheet's "CSV UTF-8" export
    # writes, which would otherwise hide the sat_id header from the sniff; a
    # byte that is not UTF-8 becomes an unprintable character, and the
    # record or row that holds it is skipped like any malformed one
    with open(args.nav, encoding="utf-8-sig", errors="surrogateescape") as f:
        text = f.read()
    site = SiteLocation(args.lat, args.lon, args.height)
    if text.lstrip()[:6].lower() == "sat_id":
        source = parse_position_csv(text)
        if not source.sat_ids:
            raise EmptySeriesError("no usable position rows")
        start = GpsTime.from_seconds(source.epochs[0])
        end = GpsTime.from_seconds(source.epochs[-1] + args.step)
    else:
        source = parse_rinex_nav(text)
        if not source:
            raise EmptySeriesError("no usable ephemeris records")
        start, end = _day_span(source, args.utc_offset)
    config = ScanConfig(site=site, track_azimuth=args.azimuth, mask=args.mask,
                        step=args.step, start=start, end=end)
    series = scan_ms(config, source)
    return (scan_mod.series_json(series) + "\n" if args.format == "json"
            else scan_mod.series_csv(series))


def _cmd_hist(args) -> str:
    with open(args.series) as f:
        best_m_s = scan_mod.parse_series_csv(f.read())
    hist = histogram(best_m_s, args.bin_width, tuple(args.range))
    return (scan_mod.hist_json(hist) + "\n" if args.format == "json"
            else scan_mod.hist_csv(hist))


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
                   help="GPS-UTC offset in seconds, for RINEX input (a "
                        "table's epochs are already GPS time)")
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
        text = args.func(args)
        if args.output:
            with open(args.output, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    except (DegenerateGeometryError, DegenerateCurvatureError,
            DelayEstimationError, EmptySeriesError, EphemerisError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DEGENERATE
    except (OSError, ValueError, KeyError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
