"""Track-constrained positioning geometry and clock-anchored error bounds.

A receiver confined to a known straight track is described locally by
its horizontal frame: the tangent along travel and the normal to its
left. With three satellites the along-track and cross-track deviations
plus the clock bias solve a 3x3 linear system; with two satellites and
the track constraint (a "virtual satellite" at infinite cross-track
cosine) a 2x2 system suffices. When all unmodeled pseudorange residuals
are positive and the satellite layout satisfies an orientation
condition, the deviations are bounded by magnification coefficients
times the clock-bias error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .orbits import _Checked, vector_norm


class DegenerateGeometryError(ValueError):
    """Satellite configuration is too close to singular to invert."""


DETERMINANT_TOL = 1e-9


@dataclass(frozen=True)
class FrenetFrame:
    """Orthonormal horizontal frame of a straight track: tangent U along
    travel and normal V to its left."""

    u: np.ndarray
    v: np.ndarray


class _SatGeometry(NamedTuple):
    sat_id: str
    f: float
    h: float


class SatGeometry(_Checked, _SatGeometry):
    """A satellite's directional cosines f = <g, U>, h = <g, V> against the
    track frame, g being minus the unit direction to the satellite. A
    synthetic satellite (such as the virtual satellite of the track
    constraint) may lie outside the unit disc; the cosines must be finite.
    """

    __slots__ = ()

    def __new__(cls, sat_id: str, f: float, h: float):
        if not (math.isfinite(f) and math.isfinite(h)):
            raise ValueError(f"sat {sat_id}: cosines must be finite, "
                             f"got f={f!r}, h={h!r}")
        return tuple.__new__(cls, (sat_id, f, h))


def synthetic_geometry(sat_id: str, f: float, h: float) -> SatGeometry:
    """A satellite given by bare directional cosines (e.g. the virtual
    satellite of the track constraint, which has no physical direction)."""
    return SatGeometry(sat_id, f, h)


def check_unit_disc(f, h, label: str) -> None:
    """Physical cosines of a unit direction satisfy f^2 + h^2 <= 1 (floats or
    arrays; a NaN passes)."""
    if np.any(f * f + h * h > 1.0 + 1e-12):
        raise ValueError(f"{label}: f^2 + h^2 exceeds 1")


class _PseudorangeDelta(NamedTuple):
    sat_id: str
    delta_rho: float


class PseudorangeDelta(_Checked, _PseudorangeDelta):
    """Unmodeled pseudorange residual, any modeled correction already
    subtracted; it must be finite."""

    __slots__ = ()

    def __new__(cls, sat_id: str, delta_rho: float):
        if not math.isfinite(delta_rho):
            raise ValueError(f"sat {sat_id}: pseudorange residual must be "
                             f"finite, got delta_rho={delta_rho!r}")
        return tuple.__new__(cls, (sat_id, delta_rho))


class SolveResult(NamedTuple):
    delta_u: float
    delta_v: float
    delta_b: float


class MagnificationUV(NamedTuple):
    m_u: Optional[float]
    m_v: Optional[float]
    admissible: bool
    permutation: Optional[tuple[int, int, int]]


class MagnificationS(NamedTuple):
    m_s: Optional[float]
    admissible: bool


def frenet_frame(track_azimuth: float) -> FrenetFrame:
    """Horizontal frame of a straight track in local ENU coordinates.

    track_azimuth is measured clockwise from north, in radians, and must be
    finite. V points to the left of travel.
    """
    if not math.isfinite(track_azimuth):
        raise ValueError(f"track azimuth must be finite, got {track_azimuth!r}")
    u = np.array([math.sin(track_azimuth), math.cos(track_azimuth), 0.0])
    # left of travel = azimuth - 90 degrees
    v = np.array([-math.cos(track_azimuth), math.sin(track_azimuth), 0.0])
    return FrenetFrame(u=u, v=v)


def directional_cosines(unit_dirs, frame: FrenetFrame) -> tuple[np.ndarray, np.ndarray]:
    """Track-frame cosines f = <g, U> and h = <g, V> of unit site->satellite
    directions (shape (..., 3)), g being minus the direction. A NaN row (a
    satellite with no position) gives NaN cosines."""
    d = np.asarray(unit_dirs, dtype=float)
    if (np.abs(vector_norm(d) - 1.0) > 1e-9).any():
        raise ValueError("a satellite direction is not a unit vector")
    f, h = -(d @ frame.u), -(d @ frame.v)
    check_unit_disc(f, h, "a satellite direction")
    return f, h


def _cofactors(f, h):
    """Cyclic cofactors (f2 h3 - f3 h2, f3 h1 - f1 h3, f1 h2 - f2 h1) and their
    sum D, with the satellite on the leading axis: floats or (3, N) arrays."""
    (f1, f2, f3), (h1, h2, h3) = f, h
    c1, c2, c3 = f2 * h3 - f3 * h2, f3 * h1 - f1 * h3, f1 * h2 - f2 * h1
    return c1, c2, c3, c1 + c2 + c3


def _cosines(sats: Sequence[SatGeometry]):
    if len(sats) != 3:
        raise ValueError("exactly three satellites required")
    s1, s2, s3 = sats
    return (s1.f, s2.f, s3.f), (s1.h, s2.h, s3.h)


def _orientation(c1, c2, c3) -> Optional[tuple[int, int, int]]:
    return ((0, 1, 2) if c1 > 0 and c2 > 0 and c3 > 0
            else (0, 2, 1) if c1 < 0 and c2 < 0 and c3 < 0 else None)


def determinant_d(sats: Sequence[SatGeometry]) -> float:
    """Configuration determinant D = f1 h2 - f2 h1 + f2 h3 - f3 h2 + f3 h1 - f1 h3."""
    return _cofactors(*_cosines(sats))[3]


def solve_three_sat(sats: Sequence[SatGeometry],
                    deltas: Sequence[PseudorangeDelta]) -> SolveResult:
    """Closed-form inversion of the 3-satellite observation system.

    [du, dv, db]^T = (1/D) * adj(A) * r with A = [[f_j, h_j, 1]] and
    r_j = delta_rho_j.
    """
    if len(sats) != 3 or len(deltas) != 3:
        raise ValueError("exactly three satellites and three deltas required")
    (f1, f2, f3), (h1, h2, h3) = f, h = _cosines(sats)
    c1, c2, c3, d = _cofactors(f, h)
    if abs(d) <= DETERMINANT_TOL:
        raise DegenerateGeometryError(f"|D| = {abs(d)} below threshold")
    r1, r2, r3 = deltas[0].delta_rho, deltas[1].delta_rho, deltas[2].delta_rho
    du = ((h2 - h3) * r1 + (h3 - h1) * r2 + (h1 - h2) * r3) / d
    dv = ((f3 - f2) * r1 + (f1 - f3) * r2 + (f2 - f1) * r3) / d
    db = (c1 * r1 + c2 * r2 + c3 * r3) / d
    return SolveResult(float(du), float(dv), float(db))


def sign_condition(sats: Sequence[SatGeometry]) -> Optional[tuple[int, int, int]]:
    """Find a satellite relabeling making the configuration counterclockwise.

    With z_j = f_j + i h_j the condition is Im(z_j* z_{j+1}) > 0 cyclically;
    Im(z_j* z_k) = f_j h_k - h_j f_k, so it holds for (0, 1, 2) when all
    cyclic cofactors are > 0 and for (0, 2, 1) when all are < 0, else None.
    """
    return _orientation(*_cofactors(*_cosines(sats))[:3])


def magnification_uv(sats: Sequence[SatGeometry]) -> MagnificationUV:
    """Along- and cross-track magnification coefficients of a satellite triple.

    M_u = max|h_j - h_k| / min|f_j h_k - f_k h_j| and M_v analogously with
    f-differences in the numerator. Admissible only when the orientation
    condition holds, no cofactor vanishes and neither coefficient overflows
    (a subnormal cofactor makes it inf); then positive residuals give
    |du| <= M_u |db| and |dv| <= M_v |db|.
    """
    (f1, f2, f3), (h1, h2, h3) = f, h = _cosines(sats)
    c1, c2, c3, _ = _cofactors(f, h)
    perm = _orientation(c1, c2, c3)
    cof = min(abs(c1), abs(c2), abs(c3))
    if cof == 0.0:
        return MagnificationUV(None, None, False, perm)
    m_u = max(abs(h2 - h3), abs(h3 - h1), abs(h1 - h2)) / cof
    m_v = max(abs(f2 - f3), abs(f3 - f1), abs(f1 - f2)) / cof
    admissible = perm is not None and max(m_u, m_v) < math.inf
    return MagnificationUV(m_u, m_v, admissible, perm)


def solve_two_sat(sat1: SatGeometry, sat2: SatGeometry,
                  deltas: Sequence[PseudorangeDelta]) -> SolveResult:
    """Two physical satellites plus the track constraint (virtual satellite).

    Solves [[f1, 1], [f2, 1]] (ds, db) = (r1, r2); the cross-track
    deviation is fixed to zero because the virtual observation pins the
    position to the track exactly.
    """
    if len(deltas) != 2:
        raise ValueError("exactly two deltas required")
    dprime = sat2.f - sat1.f
    if abs(dprime) <= DETERMINANT_TOL:
        raise DegenerateGeometryError(f"|f2 - f1| = {abs(dprime)} below threshold")
    r1, r2 = deltas[0].delta_rho, deltas[1].delta_rho
    ds = (r1 - r2) / (sat1.f - sat2.f)
    db = (sat1.f * r2 - sat2.f * r1) / (sat1.f - sat2.f)
    return SolveResult(float(ds), 0.0, float(db))


def magnification_s(sat1: SatGeometry, sat2: SatGeometry) -> MagnificationS:
    """Along-track magnification for the two-satellite case.

    Admissible when f1 and f2 have strictly opposite signs and
    M_s = 1 / min(|f1|, |f2|) does not overflow (a subnormal cosine makes it
    inf); then M_s bounds |ds| <= M_s |db| for positive residuals.
    """
    if sat1.f < 0 < sat2.f or sat2.f < 0 < sat1.f:  # f1 f2 can underflow to -0.0
        m_s = 1.0 / min(abs(sat1.f), abs(sat2.f))
        return MagnificationS(m_s, m_s < math.inf)
    return MagnificationS(None, False)
