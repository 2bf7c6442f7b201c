import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from navbound.track import (DegenerateGeometryError, MagnificationS,
                            MagnificationUV, PseudorangeDelta, SatGeometry,
                            SolveResult, _cofactors,
                            check_unit_disc, determinant_d, directional_cosines,
                            frenet_frame, magnification_s, magnification_uv,
                            sign_condition, solve_three_sat, solve_two_sat,
                            synthetic_geometry)

SQ3 = math.sqrt(3.0)


def sym_triple():
    """z_j on the unit circle at 90, 210, 330 degrees."""
    sats = []
    for i, deg in enumerate((90, 210, 330)):
        th = math.radians(deg)
        sats.append(synthetic_geometry(str(i + 1), math.cos(th), math.sin(th)))
    return sats


def geom(f, h, sat_id="s"):
    return synthetic_geometry(sat_id, f, h)


def deltas(rs):
    return [PseudorangeDelta(str(i + 1), r) for i, r in enumerate(rs)]


def random_cosines(rng, n=3, r_lo=0.1, r_hi=0.95):
    rho = rng.uniform(r_lo, r_hi, n)
    th = rng.uniform(0, 2 * math.pi, n)
    return [geom(rho[i] * math.cos(th[i]), rho[i] * math.sin(th[i]), str(i + 1))
            for i in range(n)]


class TestFrenetFrame:
    def test_east_axis_aligned(self):
        fr = frenet_frame(math.radians(90))
        assert np.allclose(fr.u, [1, 0, 0], atol=1e-15)
        assert np.allclose(fr.v, [0, 1, 0], atol=1e-15)

    @given(az=st.floats(0, 2 * math.pi))
    def test_orthonormality(self, az):
        fr = frenet_frame(az)
        basis = np.stack([fr.u, fr.v])
        assert np.abs(basis @ basis.T - np.eye(2)).max() <= 1e-12
        # V to the left of travel: U x V is up
        assert np.allclose(np.cross(fr.u, fr.v), [0, 0, 1], atol=1e-12)

    @pytest.mark.parametrize("az", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_azimuth(self, az):
        with pytest.raises(ValueError, match="azimuth"):
            frenet_frame(az)


class TestDirectionalCosines:
    def test_zenith(self):
        fr = frenet_frame(1.1)
        f, h = directional_cosines(np.array([0, 0, 1.0]), fr)
        assert f == pytest.approx(0.0, abs=1e-15)
        assert h == pytest.approx(0.0, abs=1e-15)

    def test_horizon_east(self):
        fr = frenet_frame(math.radians(90))
        f, h = directional_cosines(np.array([1.0, 0, 0]), fr)
        assert f == pytest.approx(-1.0)
        assert h == pytest.approx(0.0, abs=1e-15)

    def test_non_unit_rejected(self):
        fr = frenet_frame(0.0)
        with pytest.raises(ValueError, match="not a unit vector"):
            directional_cosines(np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]), fr)

    def test_unit_length_tolerance(self):
        # 4e-13 keeps f^2 + h^2 within check_unit_disc's 1e-12: a horizontal
        # direction 6e-13 too long used to pass the old 1e-9 unit check and
        # then fail the disc check
        fr = frenet_frame(math.pi / 2)
        with pytest.raises(ValueError, match="not a unit vector"):
            directional_cosines(np.array([1 + 6e-13, 0.0, 0.0]), fr)
        f, h = directional_cosines(np.array([1 + 3e-13, 0.0, 0.0]), fr)
        check_unit_disc(f, h, "x")

    def test_off_unit_disc_rejected(self):
        # a unit direction cannot give f^2 + h^2 > 1; a rounding-level excess
        # within the tolerance is kept, anything beyond it is rejected
        fr = frenet_frame(0.0)
        with pytest.raises(ValueError, match="exceeds 1"):
            check_unit_disc(0.8, 0.6 + 1e-9, "x")
        check_unit_disc(0.8, 0.6 + 1e-13, "x")
        f, h = directional_cosines(np.array([0.6, 0.8, 0.0]), fr)
        assert f ** 2 + h ** 2 == pytest.approx(1.0)

    @given(az=st.floats(0, 2 * math.pi), el=st.floats(0, math.pi / 2))
    def test_projection_norm(self, az, el):
        fr = frenet_frame(0.7)
        d = np.array([math.sin(az) * math.cos(el),
                      math.cos(az) * math.cos(el), math.sin(el)])
        f, h = directional_cosines(d, fr)
        assert f ** 2 + h ** 2 <= 1 + 1e-12

    def test_array_matches_rows_and_passes_nan(self):
        # an (epoch, sat, 3) block gives the cosines of each row on its own;
        # a NaN row (a satellite with no position) gives NaN cosines
        rng = np.random.default_rng(2)
        d = rng.normal(size=(4, 5, 3))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        d[1, 2] = np.nan
        fr = frenet_frame(0.3)
        f, h = directional_cosines(d, fr)
        assert f.shape == h.shape == (4, 5)
        assert np.isnan(f[1, 2]) and np.isnan(h[1, 2])
        for idx in np.ndindex(4, 5):
            if idx != (1, 2):
                fj, hj = directional_cosines(d[idx], fr)
                assert abs(f[idx] - fj) <= 1e-15 and abs(h[idx] - hj) <= 1e-15


class TestDeterminant:
    def test_symmetric_triple(self):
        assert determinant_d(sym_triple()) == pytest.approx(1.5 * SQ3, abs=1e-12)

    def test_repeated_satellite(self):
        s = geom(0.3, 0.4)
        assert determinant_d([s, s, geom(-0.2, 0.5)]) == pytest.approx(0.0)

    def test_matrix_determinant_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            sats = random_cosines(rng)
            mat = np.array([[s.f, s.h, 1.0] for s in sats])
            assert determinant_d(sats) == pytest.approx(
                np.linalg.det(mat), abs=1e-12)


class TestSolveThreeSat:
    def test_pure_clock_mode(self):
        res = solve_three_sat(sym_triple(), deltas([1.0, 1.0, 1.0]))
        assert res.delta_u == pytest.approx(0.0, abs=1e-15)
        assert res.delta_v == pytest.approx(0.0, abs=1e-15)
        assert res.delta_b == pytest.approx(1.0)

    def test_along_track_mode(self):
        sats = sym_triple()
        alpha = 2.3
        res = solve_three_sat(sats, deltas([alpha * s.f for s in sats]))
        assert res.delta_u == pytest.approx(alpha)
        assert res.delta_v == pytest.approx(0.0, abs=1e-12)
        assert res.delta_b == pytest.approx(0.0, abs=1e-12)

    def test_resubstitution(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            sats = random_cosines(rng)
            if abs(determinant_d(sats)) < 1e-2:
                continue
            rs = rng.uniform(-10, 10, 3)
            res = solve_three_sat(sats, deltas(rs))
            for s, r in zip(sats, rs):
                predicted = s.f * res.delta_u + s.h * res.delta_v + res.delta_b
                assert abs(predicted - r) <= 1e-9

    def test_degenerate_geometry(self):
        # a repeated satellite makes D exactly 0; numpy cosines must raise
        # before a division by it could warn
        for cosine in (float, np.float64):
            s = geom(cosine(0.3), cosine(0.4))
            with pytest.raises(DegenerateGeometryError, match="D = 0"):
                solve_three_sat([s, s, geom(cosine(-0.2), cosine(0.5))],
                                deltas([1, 2, 3]))

    def test_adjugate_identity(self):
        rng = np.random.default_rng(23)
        count = 0
        while count < 500:
            sats = random_cosines(rng)
            if abs(determinant_d(sats)) < 1e-2:
                continue
            count += 1
            basis = np.eye(3)
            forward = np.array([[s.f, s.h, 1.0] for s in sats])
            inv = np.column_stack([
                [getattr(solve_three_sat(sats, deltas(col)), k)
                 for k in ("delta_u", "delta_v", "delta_b")]
                for col in basis
            ])
            assert np.abs(inv @ forward - np.eye(3)).max() <= 1e-12


class TestSignCondition:
    def test_symmetric_identity(self):
        sats = sym_triple()
        assert sign_condition(sats) == (0, 1, 2)
        z = [complex(s.f, s.h) for s in sats]
        for j in range(3):
            val = (z[j].conjugate() * z[(j + 1) % 3]).imag
            assert val == pytest.approx(SQ3 / 2, abs=1e-12)

    def test_coincident_satellites(self):
        s = geom(0.3, 0.4)
        assert sign_condition([s, s, geom(-0.5, 0.1)]) is None

    def test_reversed_orientation(self):
        sats = []
        for i, deg in enumerate((90, 330, 210)):
            th = math.radians(deg)
            sats.append(geom(math.cos(th), math.sin(th), str(i + 1)))
        perm = sign_condition(sats)
        assert perm is not None
        # applying the permutation restores counterclockwise order
        z = [complex(sats[i].f, sats[i].h) for i in perm]
        assert all((z[j].conjugate() * z[(j + 1) % 3]).imag > 0
                   for j in range(3))
        assert perm != (0, 1, 2)

    def test_half_plane_configuration_has_none(self):
        # all three directions within one half-plane: no relabeling works
        sats = [geom(0.9, 0.1), geom(0.5, 0.5), geom(0.8, -0.2)]
        assert sign_condition(sats) is None


class TestMagnificationUV:
    def test_symmetric_values(self):
        m = magnification_uv(sym_triple())
        assert m.admissible
        assert m.m_u == pytest.approx(SQ3, abs=1e-12)
        assert m.m_v == pytest.approx(2.0, abs=1e-12)

    def test_rotation_continuity(self):
        base = magnification_uv(sym_triple())
        for eps in (1e-6, -1e-6):
            rotated = []
            for i, deg in enumerate((90, 210, 330)):
                th = math.radians(deg) + eps
                rotated.append(geom(math.cos(th), math.sin(th), str(i + 1)))
            m = magnification_uv(rotated)
            assert m.admissible
            assert m.m_u == pytest.approx(base.m_u, rel=1e-4)
            assert m.m_v == pytest.approx(base.m_v, rel=1e-4)

    def test_zero_cofactor_inadmissible(self):
        # satellites 1 and 2 collinear with the origin: f1 h2 - f2 h1 = 0
        sats = [geom(0.5, 0.5), geom(0.25, 0.25), geom(-0.5, 0.2)]
        m = magnification_uv(sats)
        assert not m.admissible
        assert m.m_u is None and m.m_v is None

    def test_overflowing_uv_inadmissible(self):
        # cofactors 0.5, 5e-311 and 5e-311 are all positive, but M_u and
        # M_v divide by the subnormal ones and overflow
        m = magnification_uv([geom(1e-310, 0.0), geom(-0.5, 0.5), geom(-0.5, -0.5)])
        assert not m.admissible
        assert m.permutation == (0, 1, 2)
        assert m.m_u == m.m_v == math.inf

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            sats = random_cosines(rng)
            base = magnification_uv(sats)
            for perm in itertools.permutations(sats):
                m = magnification_uv(list(perm))
                assert m.admissible == base.admissible
                if base.m_u is not None:
                    assert m.m_u == pytest.approx(base.m_u, rel=1e-12)
                    assert m.m_v == pytest.approx(base.m_v, rel=1e-12)

    def test_monte_carlo_bound(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 300:
            sats = random_cosines(rng)
            m = magnification_uv(sats)
            if not m.admissible or abs(determinant_d(sats)) < 1e-6:
                continue
            checked += 1
            rs = rng.uniform(1e-6, 1.0, (100, 3))
            for r in rs:
                res = solve_three_sat(sats, deltas(r))
                assert abs(res.delta_u) <= m.m_u * abs(res.delta_b) * (1 + 1e-9)
                assert abs(res.delta_v) <= m.m_v * abs(res.delta_b) * (1 + 1e-9)

    def test_tightness_of_achievable_supremum(self):
        # Over positive residuals the supremum of |du|/|db| is
        # max_j |h_k - h_l| / |cofactor_j|; a simplex search approaches it.
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 30:
            sats = random_cosines(rng)
            m = magnification_uv(sats)
            if not m.admissible:
                continue
            checked += 1
            (f1, h1), (f2, h2), (f3, h3) = ((s.f, s.h) for s in sats)
            num = np.abs([h2 - h3, h3 - h1, h1 - h2])
            cof = np.abs([f2 * h3 - f3 * h2, f3 * h1 - f1 * h3,
                          f1 * h2 - f2 * h1])
            sup = (num / cof).max()
            best = 0.0
            j = int(np.argmax(num / cof))
            for eps in (1e-2, 1e-4, 1e-6):
                r = np.full(3, eps)
                r[j] = 1.0
                res = solve_three_sat(sats, deltas(r))
                if res.delta_b != 0:
                    best = max(best, abs(res.delta_u) / abs(res.delta_b))
            assert best >= 0.9 * sup
            assert sup <= m.m_u * (1 + 1e-12)


def search_oracle(sats):
    """The 6-permutation search in complex arithmetic that the closed-form
    orientation test replaced: the first permutation, in itertools order,
    with Im(z_j* z_{j+1}) > 0 for every consecutive pair, cyclically."""
    z = [complex(s.f, s.h) for s in sats]
    for perm in itertools.permutations(range(3)):
        zs = [z[i] for i in perm]
        if all((zs[j].conjugate() * zs[(j + 1) % 3]).imag > 0 for j in range(3)):
            return perm
    return None


def magnification_oracle(sats, perm):
    """(m_u, m_v, admissible) by the formula magnification_uv used before
    the cofactor kernel, with its operand and min/max order; perm is
    search_oracle(sats)."""
    (f1, h1), (f2, h2), (f3, h3) = ((s.f, s.h) for s in sats)
    cof = [abs(f2 * h3 - f3 * h2), abs(f3 * h1 - f1 * h3), abs(f1 * h2 - f2 * h1)]
    if min(cof) == 0.0:
        return None, None, False
    return (max(abs(h2 - h3), abs(h3 - h1), abs(h1 - h2)) / min(cof),
            max(abs(f2 - f3), abs(f3 - f1), abs(f1 - f2)) / min(cof),
            perm is not None)


def same_float(a, b):
    """Equal as floats, NaN equal to NaN, None equal only to None."""
    if a is None or b is None:
        return a is b
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_matches_oracles(sats):
    """sign_condition and every magnification_uv field equal the oracles'."""
    perm = search_oracle(sats)
    assert sign_condition(sats) == perm
    m = magnification_uv(sats)
    m_u, m_v, admissible = magnification_oracle(sats, perm)
    assert same_float(m.m_u, m_u) and same_float(m.m_v, m_v)
    assert m.admissible == admissible and m.permutation == perm
    return admissible


class TestCofactorKernel:
    EDGE_CASES = {
        "zero_cofactor": [(0.5, 0.5), (0.25, 0.25), (-0.5, 0.2)],
        "satellite_at_origin": [(0.0, 0.0), (0.3, 0.4), (-0.5, 0.1)],
        "signed_zero": [(-0.0, 0.0), (0.3, -0.0), (-0.5, 0.1)],
        "coincident": [(0.3, 0.4), (0.3, 0.4), (-0.5, 0.1)],
        "all_coincident": [(0.3, 0.4)] * 3,
        "counterclockwise": [(0.0, 1.0), (-SQ3 / 2, -0.5), (SQ3 / 2, -0.5)],
        "reversed": [(0.0, 1.0), (SQ3 / 2, -0.5), (-SQ3 / 2, -0.5)],
        "half_plane": [(0.9, 0.1), (0.5, 0.5), (0.8, -0.2)],
        "origin_on_edge": [(0.5, 0.0), (-0.5, 0.0), (0.0, 0.5)],
    }
    NON_FINITE = {
        "nan_f": [(math.nan, 0.1), (0.3, 0.4), (-0.5, -0.3)],
        "nan_h": [(0.2, 0.1), (0.3, 0.4), (-0.5, math.nan)],
        "infinite": [(math.inf, 0.1), (-0.3, 0.4), (-0.5, -0.3)],
    }

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases_match_oracles(self, case):
        points = self.EDGE_CASES[case]
        for order in itertools.permutations(range(3)):
            assert_matches_oracles([geom(*points[i], str(i)) for i in order])

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_cosines_rejected(self, case):
        # past construction, such a triple reads as admissible with
        # m_v = inf and solves to NaN, so it must fail where it is built
        with pytest.raises(ValueError, match="finite"):
            [geom(*p, str(i)) for i, p in enumerate(self.NON_FINITE[case])]

    def test_seeded_triples_match_oracles(self):
        # unit-disc cosines, plus cosines rounded to 0.1 so that exact zero
        # cofactors, ties and coincident satellites occur often
        rng = np.random.default_rng(2026)
        n = 100_000
        f, h = rng.uniform(-1.0, 1.0, (2, n, 3))
        f[: n // 10], h[: n // 10] = (np.round(f[: n // 10], 1),
                                      np.round(h[: n // 10], 1))
        admissible = sum(
            assert_matches_oracles([geom(fk[0], hk[0]), geom(fk[1], hk[1]),
                                    geom(fk[2], hk[2])])
            for fk, hk in zip(f.tolist(), h.tolist()))
        assert 0.1 * n < admissible < 0.9 * n

    def test_arrays_match_independent_rederivation(self):
        rng = np.random.default_rng(6)
        f, h = rng.uniform(-1.0, 1.0, (2, 3, 1_000_000))
        start = time.perf_counter()
        c1, c2, c3, d = _cofactors(f, h)
        admissible = ((c1 > 0) & (c2 > 0) & (c3 > 0)) | ((c1 < 0) & (c2 < 0) & (c3 < 0))
        elapsed = time.perf_counter() - start
        # D as the first-column expansion of det [[f_j, h_j, 1]], and the
        # orientation condition as Im(conj(z_j) z_{j+1}) > 0 in complex numbers
        expansion = f[0] * (h[1] - h[2]) + f[1] * (h[2] - h[0]) + f[2] * (h[0] - h[1])
        z = f + 1j * h
        im = np.stack([(np.conj(z[j]) * z[(j + 1) % 3]).imag for j in range(3)])
        oracle = (im > 0).all(axis=0) | (im < 0).all(axis=0)
        assert np.abs(d - expansion).max() <= 1e-12
        assert np.array_equal(admissible, oracle)
        assert 0.2 < admissible.mean() < 0.3
        assert elapsed < 0.3
        # the scalar API takes the same path, element for element
        for k in rng.integers(0, f.shape[1], 20):
            scalar = _cofactors(f[:, k].tolist(), h[:, k].tolist())
            assert scalar == (c1[k], c2[k], c3[k], d[k])

    @pytest.mark.parametrize("count", [2, 4])
    def test_wrong_count_raises(self, count):
        sats = [geom(0.1 * j, 0.2 - 0.1 * j, str(j)) for j in range(count)]
        for fn in (determinant_d, sign_condition, magnification_uv):
            with pytest.raises(ValueError, match="exactly three"):
                fn(sats)
        with pytest.raises(ValueError, match="exactly three"):
            solve_three_sat(sats, deltas([0.1] * count))


class TestTwoSat:
    def test_pure_clock_mode(self):
        res = solve_two_sat(geom(-0.5, 0.1), geom(0.5, 0.2), deltas([3.0, 3.0]))
        assert res.delta_u == pytest.approx(0.0, abs=1e-15)
        assert res.delta_b == pytest.approx(3.0)
        assert res.delta_v == 0.0

    def test_pure_along_track_mode(self):
        a = 1.7
        res = solve_two_sat(geom(-0.5, 0.0), geom(0.5, 0.0),
                            deltas([-0.5 * a, 0.5 * a]))
        assert res.delta_u == pytest.approx(a)
        assert res.delta_b == pytest.approx(0.0, abs=1e-15)

    def test_degenerate(self):
        for cosine in (float, np.float64):
            with pytest.raises(DegenerateGeometryError, match="f1 = f2"):
                solve_two_sat(geom(cosine(0.4), 0.1), geom(cosine(0.4), -0.2),
                              deltas([1.0, 2.0]))

    def test_three_deltas_rejected(self):
        with pytest.raises(ValueError, match="exactly two deltas"):
            solve_two_sat(geom(-0.5, 0.1), geom(0.5, 0.2), deltas([1.0, 2.0, 3.0]))

    def test_matches_large_h3_limit(self):
        # residual scale 1e-4 keeps the O(1/h3) analytic gap below 1e-9
        rng = np.random.default_rng(5)
        for _ in range(300):
            s1 = geom(rng.uniform(-0.9, -0.3), rng.uniform(-0.4, 0.4), "1")
            s2 = geom(rng.uniform(0.3, 0.9), rng.uniform(-0.4, 0.4), "2")
            rs = rng.uniform(1e-6, 1e-4, 2)
            two = solve_two_sat(s1, s2, deltas(rs))
            virtual = synthetic_geometry("3", 0.0, 1e6)
            three = solve_three_sat([s1, s2, virtual],
                                    deltas([rs[0], rs[1], 0.0]))
            assert abs(three.delta_u - two.delta_u) <= 1e-9
            assert abs(three.delta_b - two.delta_b) <= 1e-9
            assert abs(three.delta_v) <= 1e-9

    def test_limit_deviation_decreases_monotonically(self):
        s1 = geom(-0.6, 0.2, "1")
        s2 = geom(0.7, -0.1, "2")
        rs = [0.3, 0.8]
        two = solve_two_sat(s1, s2, deltas(rs))
        devs = []
        for h3 in (1e3, 1e6):
            three = solve_three_sat([s1, s2, synthetic_geometry("3", 0.0, h3)],
                                    deltas([rs[0], rs[1], 0.0]))
            devs.append(abs(three.delta_u - two.delta_u)
                        + abs(three.delta_b - two.delta_b)
                        + abs(three.delta_v))
        assert devs[1] < devs[0]


class TestSatGeometry:
    @pytest.mark.parametrize("f, h", [(math.nan, 0.1), (0.1, math.nan),
                                      (math.inf, 0.1), (0.1, math.inf),
                                      (-math.inf, 0.5), (0.5, -math.inf)])
    def test_non_finite_cosines_rejected(self, f, h):
        with pytest.raises(ValueError, match="finite"):
            SatGeometry("a", f, h)
        with pytest.raises(ValueError, match="finite"):
            synthetic_geometry("a", f, h)


class TestPseudorangeDelta:
    @pytest.mark.parametrize("delta_rho", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_rejected(self, delta_rho):
        # past construction it would solve to NaN or inf without an error
        with pytest.raises(ValueError, match="finite"):
            PseudorangeDelta("a", delta_rho)


class TestRecords:
    RECORDS = {
        "SatGeometry": (SatGeometry, {"sat_id": "a", "f": 0.5, "h": -0.25}),
        "PseudorangeDelta": (PseudorangeDelta, {"sat_id": "a", "delta_rho": 1.5}),
        "SolveResult": (SolveResult, {"delta_u": 1.0, "delta_v": 0.0,
                                      "delta_b": -2.0}),
        "MagnificationUV": (MagnificationUV, {"m_u": 2.0, "m_v": 3.0,
                                              "admissible": True,
                                              "permutation": (0, 2, 1)}),
        "MagnificationS": (MagnificationS, {"m_s": None, "admissible": False}),
    }

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_immutable_value_record(self, name):
        cls, fields = self.RECORDS[name]
        record = cls(**fields)
        assert record == cls(*fields.values())
        assert hash(record) == hash(cls(**fields))
        assert {k: getattr(record, k) for k in fields} == fields
        shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(record) == f"{name}({shown})"
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 0.0)
        assert record == cls(**fields)

    @pytest.mark.parametrize("record, field", [
        (SatGeometry("a", 0.5, 0.1), "f"), (SatGeometry("a", 0.5, 0.1), "h"),
        (PseudorangeDelta("a", 1.0), "delta_rho")])
    def test_replace_checks_the_new_value(self, record, field):
        assert getattr(record._replace(**{field: 0.25}), field) == 0.25
        with pytest.raises(ValueError, match="finite"):
            record._replace(**{field: math.nan})


class TestMagnificationS:
    def test_direct_formula(self):
        m = magnification_s(geom(-0.5, 0.0), geom(0.8, 0.0))
        assert m.admissible
        assert m.m_s == pytest.approx(2.0)

    def test_same_sign_inadmissible(self):
        m = magnification_s(geom(0.3, 0.0), geom(0.6, 0.0))
        assert not m.admissible
        assert m.m_s is None

    def test_zero_f_inadmissible(self):
        m = magnification_s(geom(0.0, 0.5), geom(0.6, 0.0))
        assert not m.admissible

    @pytest.mark.parametrize("f1, f2", [(1e-170, -1e-170), (-1e-170, 1e-170)])
    def test_underflowing_product_admissible(self, f1, f2):
        # f1 f2 underflows to -0.0; the signs are still opposite
        m = magnification_s(geom(f1, 0.0), geom(f2, 0.0))
        assert m.admissible
        assert m.m_s == 1e170

    @pytest.mark.parametrize("f1, f2", [(5e-324, -1e-300), (-1e-300, 5e-324),
                                        (-5e-309, 0.5)])
    def test_overflowing_coefficient_inadmissible(self, f1, f2):
        # 1 / min|f| overflows to inf: a bound, but not a number to report
        m = magnification_s(geom(f1, 0.0), geom(f2, 0.0))
        assert not m.admissible
        assert m.m_s == math.inf

    def test_monte_carlo_bound(self):
        rng = np.random.default_rng(37)
        s1, s2 = geom(-0.5, 0.0, "1"), geom(0.5, 0.0, "2")
        m = magnification_s(s1, s2)
        rs = rng.uniform(1e-9, 1.0, (100000, 2))
        db = 0.5 * (rs[:, 0] + rs[:, 1])
        ds = np.abs(rs[:, 1] - rs[:, 0])
        assert np.all(ds <= m.m_s * db * (1 + 1e-12))
        # cross-check the closed forms against the solver on a subsample
        for r in rs[:50]:
            res = solve_two_sat(s1, s2, deltas(r))
            assert abs(res.delta_u) <= m.m_s * abs(res.delta_b) * (1 + 1e-12)

    def test_tightness(self):
        # pushing one residual to zero approaches the bound exactly
        s1, s2 = geom(-0.4, 0.1, "1"), geom(0.7, 0.0, "2")
        m = magnification_s(s1, s2)
        res = solve_two_sat(s1, s2, deltas([1e-9, 1.0]))
        assert abs(res.delta_u) / abs(res.delta_b) >= 0.9 * m.m_s


class TestAdmissibleGeometrySolves:
    """The solvers refuse only an exactly singular system, so every geometry
    the magnifications admit is solved, however large its coefficient."""

    SLACK = 1.0 + 1e-12

    @pytest.mark.parametrize("a", [1e-10, 1e-150])
    def test_tiny_opposite_cosines(self, a):
        s1, s2 = SatGeometry("A", a, 0.1), SatGeometry("B", -a, 0.2)
        m = magnification_s(s1, s2)
        assert m.admissible and m.m_s == pytest.approx(1 / a, rel=1e-15)
        for r in np.random.default_rng(41).uniform(1e-6, 1.0, (100, 2)):
            res = solve_two_sat(s1, s2, deltas(r))
            assert abs(res.delta_u) <= m.m_s * abs(res.delta_b) * self.SLACK

    def solves_within_uv(self, sats, rs):
        """magnification_uv of an admissible triple, after checking that the
        solution for each positive residual row lies within it."""
        m = magnification_uv(sats)
        assert m.admissible
        for r in rs:
            res = solve_three_sat(sats, deltas(r))
            assert abs(res.delta_u) <= m.m_u * abs(res.delta_b) * self.SLACK
            assert abs(res.delta_v) <= m.m_v * abs(res.delta_b) * self.SLACK
        return m

    @pytest.mark.parametrize("a", [1e-5, 1e-150])
    def test_tiny_cofactors(self, a):
        # cofactors a^2 each, so D = 3 a^2, down to 3e-300
        sats = [geom(a, 0.0, "1"), geom(0.0, a, "2"), geom(-a, -a, "3")]
        rs = np.random.default_rng(43).uniform(1e-6, 1.0, (100, 3))
        m = self.solves_within_uv(sats, rs)
        assert m.m_u == pytest.approx(2 / a) and m.m_v == pytest.approx(2 / a)

    def test_seeded_triples_of_radius_1e_5(self):
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 200:
            sats = random_cosines(rng, r_lo=1e-5, r_hi=1e-5)
            if magnification_uv(sats).admissible:
                self.solves_within_uv(sats, rng.uniform(1e-6, 1.0, (20, 3)))
                checked += 1
