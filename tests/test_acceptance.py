"""End-to-end acceptance checks for the delivered behavior.

Each test covers one numbered acceptance criterion and emits a single
``ACCEPTANCE n: PASS|FAIL`` line on the terminal (bypassing capture) so the
overall gate can be read off the test log directly.
"""

import datetime as dt
import math
import time

import numpy as np
import pytest

from navbound.orbits import (GpsTime, SiteLocation, parse_rinex_nav,
                             sat_position_ecef)
from navbound.scan import ScanConfig, scan_ms
from navbound.signal_model import (NoiseConfig, SampledSignal, default_spec,
                                   magnification_tau, ml_delay_estimate,
                                   perturbation_experiment, sample_waveform,
                                   worst_interference)
from navbound.track import (PseudorangeDelta, determinant_d, magnification_s,
                            magnification_uv, solve_three_sat, solve_two_sat,
                            sign_condition, synthetic_geometry)
from navbound.constants import GM_EARTH, OMEGA_EARTH

SITE = SiteLocation(34.75337, 135.42783, 3.7)


def _report(capsys, number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _orthogonal_directions(w1_samples, rng, count):
    """Unit vectors orthogonal (real inner product) to the derivative."""
    n = len(w1_samples)
    n1sq = float(np.real(np.vdot(w1_samples, w1_samples)))
    out = []
    for _ in range(count):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = v - (np.real(np.vdot(v, w1_samples)) / n1sq) * w1_samples
        out.append(v / np.linalg.norm(v))
    return out


def test_criterion_1_worst_mode_tightness(capsys):
    start = time.monotonic()
    spec = default_spec(prn=1, samples_per_chip=4)
    tau_true = 0.3 * spec.code_period
    w = sample_waveform(spec, tau_true, 0)
    w1 = sample_waveform(spec, tau_true, 1)
    dy_norm = 1e-4 * w.norm()
    dy = worst_interference(w1, dy_norm ** 2)
    result = perturbation_experiment(spec, tau_true, NoiseConfig(sigma=0.0),
                                     dy)
    ratio = abs(result.delta_tau_empirical) / result.delta_tau_bound
    elapsed = time.monotonic() - start
    ok = 0.95 <= ratio <= 1.05 and elapsed < 5.0
    _report(capsys, 1, ok,
            f"worst-mode shift/bound ratio {ratio:.4f} (need 1 +/- 0.05), "
            f"{elapsed:.1f}s (limit 5s)")


def test_criterion_2_orthogonal_mode_suppression(capsys):
    start = time.monotonic()
    spec = default_spec(prn=1, samples_per_chip=4)
    tau_true = 0.3 * spec.code_period
    w = sample_waveform(spec, tau_true, 0)
    w1 = sample_waveform(spec, tau_true, 1)
    dy_norm = 1e-4 * w.norm()
    half = spec.code_period / 2
    window = (tau_true - half, tau_true + half)
    m_tau = magnification_tau(w, w, w1,
                              sample_waveform(spec, tau_true, 2))
    tau0 = ml_delay_estimate(w, spec, window)

    rng = np.random.default_rng(7)
    dirs = _orthogonal_directions(w1.samples, rng, 100)
    max_rel_shift = 0.0
    for v in dirs:
        z = SampledSignal(w.samples + dy_norm * v)
        shift = abs(ml_delay_estimate(z, spec, window) - tau0)
        max_rel_shift = max(max_rel_shift, shift / (m_tau * dy_norm))
    suppressed = max_rel_shift <= 0.05

    # Second-order scaling, stated in difference form so it stays
    # meaningful when the shift itself sits at the numerical floor:
    # |shift(dy/2) - shift(dy)/4| <= 0.2 * shift(dy)/4 + floor.
    floor = 1e-18  # seconds; delay resolution of the refinement itself
    quadratic = True
    for v in dirs[:10]:
        z_full = SampledSignal(w.samples + dy_norm * v)
        z_half = SampledSignal(w.samples + 0.5 * dy_norm * v)
        s_full = abs(ml_delay_estimate(z_full, spec, window) - tau0)
        s_half = abs(ml_delay_estimate(z_half, spec, window) - tau0)
        if abs(s_half - s_full / 4) > 0.2 * s_full / 4 + floor:
            quadratic = False
    elapsed = time.monotonic() - start
    ok = suppressed and quadratic and elapsed < 30.0
    _report(capsys, 2, ok,
            f"max orthogonal shift {max_rel_shift:.2e} of bound "
            f"(need <= 0.05), quadratic scaling {'holds' if quadratic else 'fails'}, "
            f"{elapsed:.1f}s (limit 30s)")


def _admissible_cosine_triples(rng, count):
    """(f, h) arrays for `count` admissible satellite triples."""
    fs, hs = [], []
    total = 0
    while total < count:
        n = 2 * count
        radius = rng.uniform(0.1, 1.0, size=(n, 3))
        angle = rng.uniform(0.0, 2 * math.pi, size=(n, 3))
        # admissible iff every cyclic gap between sorted bearings is < pi
        a = np.sort(angle, axis=1)
        gaps = np.stack([a[:, 1] - a[:, 0], a[:, 2] - a[:, 1],
                         2 * math.pi - (a[:, 2] - a[:, 0])], axis=1)
        keep = np.all(gaps < math.pi, axis=1)
        fs.append((radius * np.cos(angle))[keep])
        hs.append((radius * np.sin(angle))[keep])
        total += int(keep.sum())
    f = np.concatenate(fs)[:count]
    h = np.concatenate(hs)[:count]
    return f, h


def _triple_solution(f, h, r):
    """Vectorized closed-form (du, dv, db, D, cofactors) for residuals r."""
    f1, f2, f3 = f[:, 0], f[:, 1], f[:, 2]
    h1, h2, h3 = h[:, 0], h[:, 1], h[:, 2]
    r1, r2, r3 = r[:, 0], r[:, 1], r[:, 2]
    c = np.stack([f2 * h3 - f3 * h2, f3 * h1 - f1 * h3, f1 * h2 - f2 * h1],
                 axis=1)
    d = c.sum(axis=1)
    du = (r1 * (h2 - h3) + r2 * (h3 - h1) + r3 * (h1 - h2)) / d
    dv = (r1 * (f3 - f2) + r2 * (f1 - f3) + r3 * (f2 - f1)) / d
    db = (r * c).sum(axis=1) / d
    return du, dv, db, d, c


def test_criterion_3_adjugate_inverse_identity(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(3)
    n = 10_000
    f = rng.uniform(-1.0, 1.0, size=(4 * n, 3))
    h = rng.uniform(-1.0, 1.0, size=(4 * n, 3))
    scale = np.maximum(np.hypot(f, h).max(axis=1), 1.0)[:, None]
    f, h = f / scale, h / scale
    d = (f[:, 0] * (h[:, 1] - h[:, 2]) + f[:, 1] * (h[:, 2] - h[:, 0])
         + f[:, 2] * (h[:, 0] - h[:, 1]))
    keep = np.abs(d) >= 0.01
    f, h, d = f[keep][:n], h[keep][:n], d[keep][:n]
    assert len(f) == n

    forward = np.stack([f, h, np.ones_like(f)], axis=2)
    adj = np.stack([
        np.stack([h[:, 1] - h[:, 2], h[:, 2] - h[:, 0], h[:, 0] - h[:, 1]],
                 axis=1),
        np.stack([f[:, 2] - f[:, 1], f[:, 0] - f[:, 2], f[:, 1] - f[:, 0]],
                 axis=1),
        np.stack([f[:, 1] * h[:, 2] - f[:, 2] * h[:, 1],
                  f[:, 2] * h[:, 0] - f[:, 0] * h[:, 2],
                  f[:, 0] * h[:, 1] - f[:, 1] * h[:, 0]], axis=1),
    ], axis=1)
    identity = np.einsum("nij,njk->nik", adj / d[:, None, None], forward)
    deviation = np.abs(identity - np.eye(3)).max()

    # the library solver must realize the same inverse: its solution for
    # unit residual vectors reproduces the inverse columns
    lib_dev = 0.0
    eye = np.eye(3)
    for k in rng.choice(n, size=100, replace=False):
        sats = [synthetic_geometry(str(j), f[k, j], h[k, j]) for j in range(3)]
        inv = np.column_stack([
            [getattr(solve_three_sat(
                sats, [PseudorangeDelta(str(j), eye[col, j])
                       for j in range(3)]), field)
             for field in ("delta_u", "delta_v", "delta_b")]
            for col in range(3)])
        lib_dev = max(lib_dev, np.abs(inv @ forward[k] - np.eye(3)).max())

    elapsed = time.monotonic() - start
    ok = deviation <= 1e-12 and lib_dev <= 1e-12 and elapsed < 1.0
    _report(capsys, 3, ok,
            f"max identity deviation {deviation:.2e} closed-form / "
            f"{lib_dev:.2e} solver (need <= 1e-12), {elapsed:.2f}s (limit 1s)")


def test_criterion_4_bound_soundness(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(4)
    n = 1_000_000

    f, h = _admissible_cosine_triples(rng, n)
    r = rng.uniform(0.0, 1.0, size=(n, 3))
    du, dv, db, d, c = _triple_solution(f, h, r)
    valid = np.abs(c).min(axis=1) > 0
    dh = np.stack([h[:, 1] - h[:, 2], h[:, 2] - h[:, 0], h[:, 0] - h[:, 1]],
                  axis=1)
    df = np.stack([f[:, 1] - f[:, 2], f[:, 2] - f[:, 0], f[:, 0] - f[:, 1]],
                  axis=1)
    m_u = np.abs(dh).max(axis=1) / np.abs(c).min(axis=1)
    m_v = np.abs(df).max(axis=1) / np.abs(c).min(axis=1)
    slack = 1.0 + 1e-12
    viol_u = valid & (np.abs(du) > m_u * np.abs(db) * slack)
    viol_v = valid & (np.abs(dv) > m_v * np.abs(db) * slack)
    three_ok = not (viol_u.any() or viol_v.any())

    # spot-check the vectorized route against the library on a subsample
    agree = True
    for k in rng.choice(np.flatnonzero(valid), size=500, replace=False):
        sats = [synthetic_geometry(str(j), f[k, j], h[k, j]) for j in range(3)]
        deltas = [PseudorangeDelta(str(j), r[k, j]) for j in range(3)]
        sol = solve_three_sat(sats, deltas)
        muv = magnification_uv(sats)
        agree &= (sign_condition(sats) is not None and muv.admissible
                  and abs(sol.delta_u - du[k]) <= 1e-9
                  and abs(sol.delta_b - db[k]) <= 1e-9
                  and abs(muv.m_u - m_u[k]) <= 1e-9 * m_u[k]
                  and abs(muv.m_v - m_v[k]) <= 1e-9 * m_v[k])

    f1 = rng.uniform(-1.0, -0.01, size=n)
    f2 = rng.uniform(0.01, 1.0, size=n)
    r1, r2 = rng.uniform(0.0, 1.0, size=(2, n))
    ds = (r1 - r2) / (f1 - f2)
    db2 = (f1 * r2 - f2 * r1) / (f1 - f2)
    m_s = 1.0 / np.minimum(np.abs(f1), np.abs(f2))
    viol_s = np.abs(ds) > m_s * np.abs(db2) * slack
    two_ok = not viol_s.any()

    for k in rng.integers(0, n, size=500):
        ms = magnification_s(synthetic_geometry("1", f1[k], 0.0),
                             synthetic_geometry("2", f2[k], 0.0))
        agree &= ms.admissible and abs(ms.m_s - m_s[k]) <= 1e-9 * m_s[k]

    elapsed = time.monotonic() - start
    ok = three_ok and two_ok and agree and elapsed < 60.0
    counter = ""
    if not three_ok:
        k = int(np.flatnonzero(viol_u | viol_v)[0])
        counter = f" counterexample f={f[k]} h={h[k]} r={r[k]};"
    if not two_ok:
        k = int(np.flatnonzero(viol_s)[0])
        counter += f" counterexample f=({f1[k]},{f2[k]}) r=({r1[k]},{r2[k]});"
    _report(capsys, 4, ok,
            f"1e6 triple + 1e6 pair trials, violations "
            f"{int(viol_u.sum() + viol_v.sum())}/{int(viol_s.sum())},"
            f"{counter} library agreement {'ok' if agree else 'BROKEN'}, "
            f"{elapsed:.1f}s (limit 60s)")


def test_criterion_5_symmetric_configuration(capsys):
    angles = (math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
              math.pi / 2 + 4 * math.pi / 3)
    sats = [synthetic_geometry(str(j), math.cos(a), math.sin(a))
            for j, a in enumerate(angles)]
    d = determinant_d(sats)
    muv = magnification_uv(sats)
    ok = (abs(d - 3 * math.sqrt(3) / 2) <= 1e-12
          and muv.admissible
          and abs(muv.m_u - math.sqrt(3)) <= 1e-12
          and abs(muv.m_v - 2.0) <= 1e-12)
    _report(capsys, 5, ok,
            f"D={d:.15f} (want 3*sqrt(3)/2), M_u={muv.m_u}, M_v={muv.m_v} "
            f"(want sqrt(3), 2) within 1e-12")


def test_criterion_6_virtual_satellite_consistency(capsys):
    rng = np.random.default_rng(6)
    h3 = 1e6
    worst = 0.0
    for _ in range(10_000):
        s1 = synthetic_geometry("1", rng.uniform(-0.9, -0.4),
                                rng.uniform(-0.4, 0.4))
        s2 = synthetic_geometry("2", rng.uniform(0.4, 0.9),
                                rng.uniform(-0.4, 0.4))
        deltas = [PseudorangeDelta("1", rng.uniform(0.0, 0.1)),
                  PseudorangeDelta("2", rng.uniform(0.0, 0.1))]
        two = solve_two_sat(s1, s2, deltas)
        three = solve_three_sat(
            [s1, s2, synthetic_geometry("virtual", 0.0, h3)],
            deltas + [PseudorangeDelta("virtual", 0.0)])
        worst = max(worst,
                    abs(three.delta_u - two.delta_u),
                    abs(three.delta_b - two.delta_b),
                    abs(three.delta_v))
    ok = worst <= 1e-6
    _report(capsys, 6, ok,
            f"max |two-sat - three-sat(h3=1e6)| deviation {worst:.2e} m "
            f"over 1e4 cases (need <= 1e-6)")


def test_criterion_7_kepler_propagation(capsys, nav_text):
    ephs = parse_rinex_nav(nav_text)
    ok_radius = True
    worst_resid = 0.0
    worst_oracle = 0.0
    for eph in ephs[::5]:
        t = eph.toe.add_seconds(1800.0)
        pos = sat_position_ecef(eph, t)
        ok_radius &= 2.58e7 <= np.linalg.norm(pos) <= 2.72e7

        tk = t - eph.toe
        a = eph.sqrt_a ** 2
        mean = math.remainder(
            eph.m0 + (math.sqrt(GM_EARTH / a ** 3) + eph.delta_n) * tk,
            2 * math.pi)
        lo, hi = mean - 1.0, mean + 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid - eph.e * math.sin(mid) - mean < 0:
                lo = mid
            else:
                hi = mid
        ecc = 0.5 * (lo + hi)
        worst_resid = max(worst_resid,
                          abs(ecc - eph.e * math.sin(ecc) - mean))
        nu = math.atan2(math.sqrt(1 - eph.e ** 2) * math.sin(ecc),
                        math.cos(ecc) - eph.e)
        phi = nu + eph.w_arg
        s2p, c2p = math.sin(2 * phi), math.cos(2 * phi)
        u = phi + eph.cus * s2p + eph.cuc * c2p
        rad = a * (1 - eph.e * math.cos(ecc)) + eph.crs * s2p + eph.crc * c2p
        inc = eph.i0 + eph.idot * tk + eph.cis * s2p + eph.cic * c2p
        node = (eph.omega0 + (eph.omega_dot - OMEGA_EARTH) * tk
                - OMEGA_EARTH * eph.toe.seconds_of_week)
        xo, yo = rad * math.cos(u), rad * math.sin(u)
        oracle = np.array([
            xo * math.cos(node) - yo * math.cos(inc) * math.sin(node),
            xo * math.sin(node) + yo * math.cos(inc) * math.cos(node),
            yo * math.sin(inc)])
        worst_oracle = max(worst_oracle, float(np.linalg.norm(pos - oracle)))
    ok = ok_radius and worst_resid <= 1e-12 and worst_oracle <= 1e-4
    _report(capsys, 7, ok,
            f"radius in [2.58e7, 2.72e7]: {ok_radius}, "
            f"anomaly residual {worst_resid:.2e} (need <= 1e-12), "
            f"bisection-oracle gap {worst_oracle:.2e} m (need <= 1e-4)")


def test_criterion_8_full_day_reproduction(capsys, nav_text):
    start = time.monotonic()
    ephs = parse_rinex_nav(nav_text)
    t0 = GpsTime.from_utc(dt.datetime(2013, 7, 25))
    config = ScanConfig(site=SITE, track_azimuth=90.0, mask=15.0, step=60.0,
                        start=t0, end=GpsTime.from_utc(dt.datetime(2013, 7, 26)))
    series = scan_ms(config, ephs)

    n_epochs = len(series)
    values = [v for v in series.best_m_s.tolist() if not math.isnan(v)]
    frac_2 = sum(v < 2.0 for v in values) / len(values)
    frac_16 = sum(v < 1.6 for v in values) / len(values)

    transitions_ok = True
    for k in range(1, n_epochs):
        prev, cur = series.best_m_s[k - 1], series.best_m_s[k]
        if math.isnan(prev) or math.isnan(cur):
            continue
        if abs(cur - prev) > 0.1:
            if (np.array_equal(series.visible[k - 1], series.visible[k])
                    and np.array_equal(series.pair[k - 1], series.pair[k])):
                transitions_ok = False

    elapsed = time.monotonic() - start
    ok = (n_epochs == 1440 and frac_2 >= 0.8 and frac_16 >= 0.5
          and transitions_ok and elapsed < 60.0)
    _report(capsys, 8, ok,
            f"{n_epochs} epochs (want 1440), frac<2.0 = {frac_2:.3f} "
            f"(need >= 0.8), frac<1.6 = {frac_16:.3f} (need >= 0.5), sharp "
            f"transitions explained: {transitions_ok}, {elapsed:.1f}s (limit 60s)")


def test_criterion_9_parser_round_trip(capsys, nav_text):
    records = parse_rinex_nav(nav_text)
    lines = nav_text.splitlines()
    body_start = next(i for i, l in enumerate(lines)
                      if "END OF HEADER" in l) + 1
    body = [l for l in lines[body_start:] if l.strip()]
    count_ok = len(records) == len(body) // 8

    # corrupt one record; it must be skipped and the scan must still run
    bad_lines = list(lines)
    bad_lines[body_start + 2] = (bad_lines[body_start + 2][:22]
                                 + " 0.150000000000D+01"
                                 + bad_lines[body_start + 2][41:])
    damaged = parse_rinex_nav("\n".join(bad_lines))
    skipped_ok = len(damaged) == len(records) - 1

    t0 = GpsTime.from_utc(dt.datetime(2013, 7, 25))
    config = ScanConfig(site=SITE, track_azimuth=90.0, mask=15.0, step=600.0,
                        start=t0, end=t0.add_seconds(3600.0))
    scan_ok = len(scan_ms(config, damaged)) == 6

    ok = count_ok and skipped_ok and scan_ok
    _report(capsys, 9, ok,
            f"{len(records)} records vs {len(body) // 8} blocks, malformed "
            f"record skipped: {skipped_ok}, scan on damaged file: {scan_ok}")
