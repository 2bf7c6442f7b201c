"""Generate a constellation-realistic RINEX 2 GPS navigation file.

The sandbox has no access to ephemeris archives, so the bundled test
file is synthesized from the nominal GPS constellation geometry (6
orbital planes at 55 deg inclination, ~26560 km semi-major axis, 31
active satellites) with element magnitudes typical of real broadcast
records. Issue epochs are every 2 hours over 25 July 2013.

`nav_text()` returns the file's text; run the script to write it to
tests/data/brdc2060.13n.
"""

import datetime as dt
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from navbound.constants import GM_EARTH  # noqa: E402
from navbound.orbits import GpsTime  # noqa: E402

DAY = dt.datetime(2013, 7, 25)

# Slot phasing approximating the baseline 24+7 constellation: (plane 0..5,
# mean-anomaly offset within plane, degrees).
SLOTS = [
    (0, 0.0), (0, 105.0), (0, 212.0), (0, 265.0), (0, 330.0),
    (1, 20.0), (1, 95.0), (1, 150.0), (1, 245.0), (1, 315.0),
    (2, 45.0), (2, 112.0), (2, 170.0), (2, 222.0), (2, 300.0),
    (3, 10.0), (3, 70.0), (3, 135.0), (3, 200.0), (3, 280.0), (3, 340.0),
    (4, 35.0), (4, 125.0), (4, 190.0), (4, 255.0), (4, 320.0),
    (5, 60.0), (5, 118.0), (5, 175.0), (5, 240.0), (5, 305.0),
]


def _f(x: float) -> str:
    """Format one D19.12 RINEX field."""
    s = f"{x: .12E}"
    mantissa, exp = s.split("E")
    exp_val = int(exp)
    # RINEX style: 0.123456789012D+01
    val = float(mantissa)
    if val != 0:
        val /= 10.0
        exp_val += 1
    return f"{val: .12f}D{exp_val:+03d}"


def nav_text(seed: int = 20130725) -> str:
    """The navigation file's text, its elements drawn from `seed`."""
    rng = np.random.default_rng(seed)
    lines = [
        "     2.11           N: GPS NAV DATA                        "
        "RINEX VERSION / TYPE",
        "navbound-gen        navbound            20130725 000000 UTC "
        "PGM / RUN BY / DATE",
        "Synthetic nominal-constellation ephemerides for 2013-07-25  "
        "COMMENT",
        "                                                            "
        "END OF HEADER",
    ]

    sqrt_a0 = math.sqrt(26559.8e3)
    for prn, (plane, slot_deg) in enumerate(SLOTS, start=1):
        e = float(rng.uniform(0.003, 0.018))
        i0 = math.radians(55.0 + rng.uniform(-1.0, 1.0))
        omega0_base = math.radians(60.0 * plane + 25.0 + rng.uniform(-2, 2))
        w_arg = float(rng.uniform(0, 2 * math.pi))
        m_base = math.radians(slot_deg + rng.uniform(-3, 3)) - w_arg
        sqrt_a = sqrt_a0 * (1 + rng.uniform(-2e-5, 2e-5))
        delta_n = float(rng.uniform(3.5e-9, 5.5e-9))
        omega_dot = float(rng.uniform(-8.3e-9, -7.7e-9))
        idot = float(rng.uniform(-6e-10, 6e-10))
        cuc = float(rng.uniform(-5e-6, 5e-6))
        cus = float(rng.uniform(2e-6, 1e-5))
        crc = float(rng.uniform(150.0, 350.0))
        crs = float(rng.uniform(-120.0, 120.0))
        cic = float(rng.uniform(-2e-7, 2e-7))
        cis = float(rng.uniform(-2e-7, 2e-7))
        n0 = math.sqrt(GM_EARTH / sqrt_a ** 6)

        for hour in range(0, 24, 2):
            toc = DAY + dt.timedelta(hours=hour)
            t = GpsTime.from_utc(toc, 16.0)  # 2013's offset, pinned apart from the default
            week, sow = t.week, t.seconds_of_week
            # advance the slot's mean anomaly to this toe
            m0 = math.remainder(m_base + (n0 + delta_n) * sow, 2 * math.pi)
            omega0 = omega0_base
            head = (f"{prn:2d} {toc.year % 100:02d} {toc.month:2d}"
                    f" {toc.day:2d} {toc.hour:2d} {toc.minute:2d}"
                    f" {toc.second:4.1f}" +
                    _f(0.0) + _f(0.0) + _f(0.0))
            rows = [
                (1.0, crs, delta_n, m0),
                (cuc, e, cus, sqrt_a),
                (sow, cic, omega0, cis),
                (i0, crc, w_arg, omega_dot),
                (idot, 0.0, float(week), 0.0),
                (2.0, 0.0, 0.0, 1.0),
                (sow - 3600.0, 4.0, 0.0, 0.0),
            ]
            lines.append(head)
            for row in rows:
                lines.append("   " + "".join(_f(x) for x in row))

    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    out = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "brdc2060.13n"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(nav_text())
    print(f"wrote {out} ({len(SLOTS)} satellites, {12 * len(SLOTS)} records)")
