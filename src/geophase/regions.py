"""Region analysis for closed curves of the tilt vector on the sphere.

A simple closed curve splits the sphere into two faces. We call the face
lying to the left of the traversal (direction g x T) the left region. This
module decides simplicity from the clamped pieces and measures the signed
solid angle of the sampled polygon from each pole, which reads no frame,
curvature or junction angle; the sign of each fan places the opposite pole
(0,0,+-1) relative to the left region, and the fans give the region areas.
The boundary data that Gauss-Bonnet needs (the geodesic curvature integral
and the junction angles) are exposed for the curvature route.

Two points of the curve touch when they lie closer than tol = SIMPLE_TOL
on the sphere and the curve between them, the shorter way round, is longer
than L = MAX_SAMPLE_STEP. Points L/2 along two straight strands leaving a
junction at the angle psi lie L sin(psi/2) apart, so a turn within delta =
2 asin(tol / L) = 5.0e-7 rad of a full reversal touches, and a stretch
shorter than L touches nothing. The fans read the sampled polygon, whose
chords stray from the curve by at most about 2.4e-6 (_KAPPA_STEP^2
sin(beta) / 8 on latitudes, MAX_SAMPLE_STEP^2 / 8 on meridians); their
1e-9 agreement check guards that margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, pi

import numpy as np

from .errors import (CurveNotClosed, CurveNotSimple, PoleOnCurve,
                     WindingInconsistent)
from .motion import TWO_PI
from .sphere import (MAX_SAMPLE_STEP, RegularizedCurve, _coarse_grid,
                     _richardson_trapezoid)

SIMPLE_TOL = 1e-9


@dataclass(frozen=True)
class RegionReport:
    I_plus: int
    I_minus: int
    A_plus: float
    A_minus: float


# ---------------------------------------------------------------------------
# simplicity from the clamped pieces


def is_simple(curve: RegularizedCurve, tol: float = SIMPLE_TOL) -> bool:
    """True when no two points of the curve touch (module notes); cached per tol.

    A junction (the closure of a closed curve is one) turning within delta
    of a full reversal between pieces at least L/2 long touches. Otherwise
    the pieces, straight in the (theta, beta) chart, are cut into units of
    at most pi/2 in theta, and pairs of units are bounded from below: by
    d^2 = 4 sin^2(dbeta/2) + 4 sin(b1) sin(b2) sin^2(dtheta/2) at the gaps
    of their ranges (a sweep picks the pairs whose ranges meet), by their
    distance in the chart with theta scaled by the smaller sin(beta), and,
    for consecutive units, as two straight strands from one point. A pair
    still below tol has its longer stretch halved and is bounded again, and
    is dropped once all its points lie within L of each other along the
    curve; two points within tol and more than L apart settle the answer.
    128 halvings or over 2^14 open pairs count as a touch.
    """
    key = ("simple", tol)
    if key in curve._cache:
        return curve._cache[key]
    with np.errstate(all="ignore"):   # a zero-length unit gives 0 / 0
        simple = not (curve.pieces and (_reverses(curve, tol) or _touches(curve, tol)))
    curve._cache[key] = simple
    return simple


def _reverses(curve: RegularizedCurve, tol: float) -> bool:
    """Whether a junction turns within delta of reversing two L/2 legs."""
    delta, ps = 2.0 * asin(tol / MAX_SAMPLE_STEP), curve.pieces
    legs = [(ps[k], ps[(k + 1) % len(ps)]) for k, j in enumerate(curve.junctions)
            if pi - abs(j.alpha) < delta]
    return any(np.all(np.diff(np.interp([[a.t0, b.t0], [a.t1, b.t1]], curve.t, curve.s),
                              axis=0) >= 0.5 * MAX_SAMPLE_STEP) for a, b in legs)


def _at(rows, unit, t):
    """(theta, beta) of the units at the times t."""
    t0, _, th0, dth, b0, db = rows[:, unit]
    return th0 + dth * (t - t0), b0 + db * (t - t0)


def _touches(curve: RegularizedCurve, tol: float) -> bool:
    """The search of is_simple over pairs of units."""
    from itertools import chain
    # units, k equal parts of each piece: its row, their (start, end) times;
    # np.array reads thousands of Piece tuples several times slower
    rows = np.fromiter(chain.from_iterable(curve.pieces), float, 6 * len(curve.pieces))
    t0, t1, _, dth = rows.reshape(-1, 6).T[:4]
    k = np.maximum(np.ceil(np.abs(dth * (t1 - t0)) / (pi / 2.0)), 1.0).astype(int)
    rows = rows.reshape(-1, 6)[np.repeat(np.arange(k.size), k)].T
    n = rows.shape[1]
    cut = np.arange(n) - np.repeat(np.cumsum(k) - k, k)
    ends = rows[0] + (rows[1] - rows[0]) * np.array([cut, cut + 1]) / np.repeat(k, k)

    # candidates: units whose theta ranges, widened by (pi/4) tol / rho,
    # rho the smaller sin(beta), meet on the circle (others lie tol apart)
    th, be = _at(rows, slice(None), ends)
    widen = (pi / 4.0) * tol / np.sin(be).min(axis=0)
    width = np.minimum(np.abs(th[1] - th[0]) + 2.0 * widen, TWO_PI)
    start = np.mod(th.min(axis=0) - widen, TWO_PI)
    order = np.argsort(start)
    rank, first = np.argsort(order), start[order]
    last = np.searchsorted(np.concatenate([first, first + TWO_PI]), start + width,
                           side="right")
    # the units starting inside each range, the unit itself first; a pair
    # whose ranges each hold the other's start comes twice
    count = np.minimum(last - rank, n)
    a = np.repeat(np.arange(n), count)
    b = order[(np.repeat(rank - np.cumsum(count) + count, count) + np.arange(a.size)) % n]
    apart = np.abs(b - a)
    linked = (apart <= 1) | (apart == (n - 1 if curve.closed else -1))

    unit, t, strand = np.array([a, a, b, b]), np.concatenate([ends[:, a], ends[:, b]]), None
    for _ in range(128):
        th, be = _at(rows, unit, t)
        sin_be = np.sin(be)
        lo, hi = np.minimum(be[::2], be[1::2]), np.maximum(be[::2], be[1::2])
        gap_be = np.maximum(np.maximum(lo[1] - hi[0], lo[0] - hi[1]), 0.0)
        d0 = np.minimum(th[2], th[3]) - np.maximum(th[0], th[1])
        d1 = np.maximum(th[2], th[3]) - np.minimum(th[0], th[1])
        lap = TWO_PI * np.rint((d0 + d1) / (2.0 * TWO_PI))
        d0, d1 = d0 - lap, d1 - lap
        gap_th = np.maximum(np.maximum(d0, -d1), 0.0)
        rho = np.minimum(sin_be[::2], sin_be[1::2])
        lower = 2.0 * np.sqrt(np.sin(0.5 * gap_be) ** 2
                              + rho[0] * rho[1] * np.sin(0.5 * gap_th) ** 2)
        # the chart, theta scaled by the smaller sin(beta) and each axis by
        # 1 - x^2/24 <= sin(x/2)/(x/2) at its widest x: within pi in theta
        # no two points lie closer on the sphere than in it
        span_th = np.maximum(np.abs(d0), np.abs(d1))
        span_be = np.maximum(hi[1] - lo[0], hi[0] - lo[1])
        f_be = 1.0 - span_be * span_be / 24.0
        c = rho.min(axis=0) * (1.0 - span_th * span_th / 24.0)
        p = c * (th[1] - th[0]), f_be * (be[1] - be[0])
        q = c * (th[3] - th[2]), f_be * (be[3] - be[2])
        # strands from one point at the angle omega (pi for one unit) lie
        # (x + y) sin(omega/2) apart in the chart, x, y their lengths there,
        # each at least min(f_be, c) times its length on the sphere
        cos = (p[0] * q[0] + p[1] * q[1]) / (np.hypot(*p) * np.hypot(*q))
        bound = (np.minimum(f_be, c) * MAX_SAMPLE_STEP
                 * np.sqrt(np.maximum(0.5 + 0.5 * cos, 0.0)))
        strand = linked * bound if strand is None else strand
        lower = np.fmax(np.fmax(lower, strand), (unit[0] == unit[2]) * bound)
        if lower.min() >= tol:
            return False
        u, v, chart = _closest(c * (th[0] - th[2] + lap), f_be * (be[0] - be[2]), p, q)
        lower = np.fmax(lower, chart * (span_th <= pi))
        # the chart's closest points, on the sphere and along the curve
        bp, bq = be[0] + u * (be[1] - be[0]), be[2] + v * (be[3] - be[2])
        dth = th[2] + v * (th[3] - th[2]) - th[0] - u * (th[1] - th[0])
        d2 = 4.0 * (np.sin(0.5 * (bq - bp)) ** 2
                    + np.sin(bp) * np.sin(bq) * np.sin(0.5 * dth) ** 2)
        s = np.interp(t, curve.t, curve.s)
        along = np.abs(s[2] + v * (s[3] - s[2]) - s[0] - u * (s[1] - s[0]))
        widest = np.maximum(s[3] - s[0], s[1] - s[2])
        if curve.closed:
            along = np.minimum(along, curve.total_length - along)
            nearest = np.maximum(s[2] - s[1], s[0] - s[3])
            widest = np.minimum(widest, curve.total_length - nearest)
        if np.any((d2 < tol * tol) & (along > MAX_SAMPLE_STEP)):
            return True
        keep = np.flatnonzero((lower < tol) & (widest > MAX_SAMPLE_STEP))
        if not keep.size or keep.size > 1 << 14:
            return bool(keep.size)
        # halve the longer stretch of each pair
        t, side = t[:, keep], (s[1] - s[0] < s[3] - s[2])[keep].astype(int)
        cols = np.arange(keep.size)
        mid = 0.5 * (t[2 * side, cols] + t[2 * side + 1, cols])
        below, above = t.copy(), t.copy()
        below[2 * side + 1, cols], above[2 * side, cols] = mid, mid
        t = np.concatenate([below, above], axis=1)
        unit, strand = np.tile(unit[:, keep], 2), np.tile(strand[keep], 2)
    return True


def _closest(rx, ry, p, q):
    """Parameters u, v in [0, 1] of the closest points of the plane
    segments P + u p and Q + v q, (rx, ry) = P - Q, and their distance
    (Ericson, Real-Time Collision Detection, 2005, 5.1.9)."""
    (px, py), (qx, qy) = p, q
    a, e, b = px * px + py * py, qx * qx + qy * qy, px * qx + py * qy
    c, f = px * rx + py * ry, qx * rx + qy * ry
    denom = a * e - b * b
    u = np.where(denom > 0.0, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
    v = np.where(e > 0.0, np.clip((b * u + f) / e, 0.0, 1.0), 0.0)
    u = np.where(a > 0.0, np.clip((b * v - c) / a, 0.0, 1.0), 0.0)
    return u, v, np.hypot(rx + u * px - v * qx, ry + u * py - v * qy)


# ---------------------------------------------------------------------------
# pole sides and areas from the solid-angle fans


def classify_poles(curve: RegularizedCurve):
    """(I_plus, I_minus): pole counts in the left/right regions.

    I_plus counts how many of the two poles lie in the left region S+,
    I_minus in the right region; they always sum to 2. The closed chord
    polygon through the samples g (closed by the chord g[-1] -> g[0]) is
    fanned from each pole by the Van Oosterom-Strackee triangle formula
    (IEEE TBME 30:125, 1983): for the chord p -> q, with num = p_x q_y -
    p_y q_x and d = 1 + p.q, the north fan is the sum of 2 atan2(num, d +
    p_z + q_z) and the south fan the sum of -2 atan2(num, d - p_z - q_z);
    d +- (p_z + q_z) is formed as (1 +- p_z)(1 +- q_z) + p_x q_x + p_y q_y,
    so it keeps its digits on chords close to the pole where it vanishes.
    With A+ in (0, 4 pi), A+ = fan_N + 4 pi [south in left] = fan_S + 4 pi
    [north in left], so a negative north fan puts the south pole in the
    left region and a negative south fan the north pole. The curve must be
    closed, simple and clear of both poles (PoleOnCurve below min(SIMPLE_TOL,
    eps / 2); the clamp keeps both apexes at least eps from it). Two fans
    whose areas disagree beyond 1e-9 (a non-simple polygon that passed
    is_simple) raise WindingInconsistent with the spread, and so does a
    pole split that contradicts the azimuthal winding of theta (|winding| =
    1 exactly when the poles are separated), with no number. The stored A+
    is fourth order: the north fan A_h is combined with the north fan A_2h
    of the polygon through every other sample of each arc, which keeps
    each arc's ends, as A_h + (A_h - A_2h) / 3. Every piece has an even
    number of equal steps in t, so this cancels the polygon's h^2 error
    (Richardson, Phil. Trans. R. Soc. A 210 (1911) 307). The counts and A+
    are cached on the curve.
    """
    key = "pole_classification"
    if key in curve._cache:
        return curve._cache[key]
    if not curve.closed:
        raise CurveNotClosed("pole classification needs a closed curve")
    if not is_simple(curve):
        raise CurveNotSimple("pole classification needs a simple curve")
    p = curve.g.T                 # rows x, y, z
    r2 = p[0] * p[0] + p[1] * p[1]
    for pole_z in (1.0, -1.0):
        clearance = float(np.sqrt(np.min(r2 + (p[2] - pole_z) ** 2)))
        if clearance < min(SIMPLE_TOL, curve.epsilon / 2.0):
            raise PoleOnCurve(f"curve passes within {clearance:.2e} of a pole")
    # 1 + z and 1 - z; in the hemisphere where one would cancel it is
    # r^2/(1 + |z|) instead
    far = r2 / (1.0 + np.abs(p[2]))
    up = np.where(p[2] < 0.0, far, 1.0 + p[2])
    down = np.where(p[2] > 0.0, far, 1.0 - p[2])
    fan_north = 2.0 * _fan_sum(p, up)
    fan_south = -2.0 * _fan_sum(p, down)
    # the north fan of the polygon through every other sample of each arc
    every_other = _coarse_grid(curve.arcs)
    fan_coarse = 2.0 * _fan_sum(p[:, every_other], up[every_other])
    south_in, north_in = fan_north < 0.0, fan_south < 0.0
    from_north = fan_north + 4.0 * pi * south_in
    spread = abs(from_north - (fan_south + 4.0 * pi * north_in))
    if not spread <= 1e-9:
        raise WindingInconsistent(
            f"solid-angle fans from the two poles disagree by {spread:.3e} "
            f"(tolerance 1.0e-09)", value=spread, tol=1e-9)
    winding = int(round((curve.theta[-1] - curve.theta[0]) / TWO_PI))
    if (north_in != south_in) != (abs(winding) == 1):
        raise WindingInconsistent(
            f"pole split {north_in}/{south_in} vs azimuthal winding {winding}")
    result = (int(north_in) + int(south_in), 2 - int(north_in) - int(south_in))
    curve._cache[key] = result
    curve._cache["solid_angle_area"] = from_north + (fan_north - fan_coarse) / 3.0
    return result


def _fan_sum(p, lift):
    """Sum of atan2(p_x q_y - p_y q_x, lift_p lift_q + p_x q_x + p_y q_y)
    over the chords p -> q of the closed polygon through the columns of p
    (3, n); lift is 1 + z or 1 - z at each column (see classify_poles)."""
    q = np.roll(p, -1, axis=1)
    num = p[0] * q[1] - p[1] * q[0]
    return float(np.sum(np.arctan2(num, lift * np.roll(lift, -1)
                                   + (p[0] * q[0] + p[1] * q[1]))))


def region_areas(curve: RegularizedCurve):
    """(A_plus, A_minus) in steradians for the left and right regions.

    A+ is the signed solid angle of the sampled curve that classify_poles
    measured from both poles, with the Richardson correction from the
    every-other-sample polygon (see there); it needs a closed, simple curve.
    On the gallery and 64 random laps, at eps and eps/2, the area route
    built on it lies within 2e-11 of the line route.
    """
    classify_poles(curve)
    a_plus = curve._cache["solid_angle_area"]
    return a_plus, 4.0 * pi - a_plus


# ---------------------------------------------------------------------------
# boundary data for Gauss-Bonnet


def curvature_integral(curve: RegularizedCurve) -> float:
    """Integral of kappa_g ds over all smooth arcs.

    The trapezoid rule in s over all samples and over every other sample
    of each arc, which keeps the arcs' ends, combined to fourth order (see
    sphere._richardson_trapezoid); kappa_g is exact at every sample, so
    only the quadrature errs. On the gallery and 64 random laps, at eps and
    eps/2, the curvature route built on it lies within 4.8e-12 of the line
    route.
    """
    return _richardson_trapezoid(curve.kappa_g, curve.s, curve.arcs)


def turning_angle_sum(curve: RegularizedCurve) -> float:
    """Sum of the signed tangent jumps at the curve's cusps."""
    return float(sum(j.alpha for j in curve.cusps))
