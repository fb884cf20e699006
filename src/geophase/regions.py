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
than L = SIMPLE_LENGTH. Points L/2 along two straight strands leaving a
junction at the angle psi lie L sin(psi/2) apart, so a turn within delta =
2 asin(tol / L) = 5.0e-7 rad of a full reversal touches, and a stretch
shorter than L touches nothing. L is not the sampling step.

A monotone lap needs no search. Let theta turn one way on every clamped
piece, sweeping S = sum |theta'| (t1 - t0), with K = max |beta'/theta'|.
The speed sqrt(beta'^2 + sin^2(beta) theta'^2) is at most |theta'| sqrt(1
+ K^2), so points more than L apart along the curve (both ways round if
it is closed) lie more than reach = L / sqrt(1 + K^2) apart in swept
azimuth, and their azimuths differ, modulo 2 pi, by more than reach - |S -
2 pi| on a closed curve or min(reach, 2 pi - S) on an open one, less the
azimuth the pieces jump at their joins. The clamp keeps sin(beta) >=
sin(eps), so by d^2 = 4 sin^2(dbeta/2) + 4 sin(b1) sin(b2) sin^2(dtheta/2)
they lie more than 2 sin(eps) sin(min(reach, pi)/2) apart: when that
exceeds tol, the curve is simple. Then also sin(eps) / sqrt(1 + K^2) > tol
/ L; the tangents (sin(beta) theta', beta') at a junction point the same
way in theta, each at least atan(sin(eps) / K) off the meridian, so no
junction turns within delta of a reversal either. Every other curve goes
to the search over pairs of pieces, the general path, to which alone the
budgets of 128 halvings and 2^14 open pairs apply.

The fans read the sampled polygon, whose chords stray from the curve by at most
about 4e-5 (_KAPPA_STEP^2 sin(beta) / 8 = 3.8e-5 sin(beta) on latitudes,
sphere.MAX_SAMPLE_STEP^2 / 8 = 3.2e-5 on meridians): so the polygon can
cross itself where two strands of the curve pass within about 8e-5, and the
sixth-order area still holds, since each chord's error is its own segment.
Their 1e-9 agreement check trips only on a polygon that winds differently
about the two poles; on the gallery and 64 random laps, at eps and eps/2,
the two fans agree within 3.6e-15, five orders of magnitude inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, asinh, hypot, pi, sin

import numpy as np

from .errors import (CurveNotClosed, CurveNotSimple, PoleOnCurve,
                     WindingInconsistent)
from .motion import TWO_PI
from .sphere import (RegularizedCurve, _coarse_grid, _gauss_legendre_sum,
                     _curvature_rows)

SIMPLE_TOL = 1e-9
SIMPLE_LENGTH = 4e-3   # L, the distance along the curve beyond which a touch counts


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
    128 halvings or over 2^14 open pairs count as a touch. A monotone lap
    that the certificate of the module notes clears skips the search.
    """
    key = ("simple", tol)
    if key in curve._cache:
        return curve._cache[key]
    with np.errstate(all="ignore"):   # a zero-length unit gives 0 / 0
        simple = (not curve.pieces or _certified(curve, tol)
                  or not (_reverses(curve, tol) or _touches(curve, tol)))
    curve._cache[key] = simple
    return simple


def _certified(curve: RegularizedCurve, tol: float) -> bool:
    """Whether the monotone-lap certificate (module notes) clears the curve."""
    t0, t1, th0, dth, _, db = curve._rows.T
    if not (dth.min() > 0.0 or dth.max() < 0.0):
        return False
    turn = dth * (t1 - t0)
    sweep = float(np.abs(turn).sum())
    reach = SIMPLE_LENGTH / hypot(1.0, float(np.abs(db / dth).max()))
    if curve.closed:
        reach -= abs(sweep - TWO_PI)
    else:
        reach = min(reach, TWO_PI - sweep)
    reach -= float(np.abs(th0[1:] - (th0 + turn)[:-1]).sum())   # the joins
    eps = curve.epsilon
    return reach > 0.0 and (2.0 * min(sin(eps), sin(pi - eps))
                            * sin(0.5 * min(reach, pi)) > tol)


def _reverses(curve: RegularizedCurve, tol: float) -> bool:
    """Whether a junction turns within delta of reversing two L/2 legs, on
    a closed curve longer than 2 L (no two points of a shorter one are L
    apart); the length is read only when some junction nearly reverses."""
    delta, ps = 2.0 * asin(tol / SIMPLE_LENGTH), curve.pieces
    legs = [(ps[k], ps[(k + 1) % len(ps)]) for k, j in enumerate(curve.junctions)
            if pi - abs(j.alpha) < delta]
    if not legs or curve.closed and not curve.total_length > 2.0 * SIMPLE_LENGTH:
        return False
    return any(np.all(np.diff(np.interp([[a.t0, b.t0], [a.t1, b.t1]], curve.t, curve.s),
                              axis=0) >= 0.5 * SIMPLE_LENGTH) for a, b in legs)


def _at(rows, unit, t):
    """(theta, beta) of the units at the times t."""
    t0, _, th0, dth, b0, db = rows[:, unit]
    return th0 + dth * (t - t0), b0 + db * (t - t0)


def _touches(curve: RegularizedCurve, tol: float) -> bool:
    """The search of is_simple over pairs of units."""
    # units, k equal parts of each piece: its row, their (start, end) times
    t0, t1, _, dth = curve._rows.T[:4]
    k = np.maximum(np.ceil(np.abs(dth * (t1 - t0)) / (pi / 2.0)), 1.0).astype(int)
    rows = curve._rows[np.repeat(np.arange(k.size), k)].T
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

    # the first level reads the unit ends the sweep evaluated
    unit, side, strand = np.array([a, a, b, b]), np.array([[0], [1], [0], [1]]), None
    t, th, be = ends[side, unit], th[side, unit], be[side, unit]
    for _ in range(128):
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
        bound = (np.minimum(f_be, c) * SIMPLE_LENGTH
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
        if np.any((d2 < tol * tol) & (along > SIMPLE_LENGTH)):
            return True
        keep = np.flatnonzero((lower < tol) & (widest > SIMPLE_LENGTH))
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
        th, be = _at(rows, unit, t)
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
    is sixth order, by Romberg's scheme (Det Kongelige Norske Videnskabers
    Selskab Forhandlinger 28 (1955) 30): with A_h, A_2h and A_4h the north
    fans of the polygons through every sample, every 2nd and every 4th
    sample of each arc (each keeps the arc ends), R(h) = A_h + (A_h -
    A_2h)/3 and R(2h) = A_2h + (A_2h - A_4h)/3 cancel the polygon's h^2
    error, and A+ = R(h) + (R(h) - R(2h))/15 its h^4 error too. Every piece
    has a multiple of 4 equal steps in t, so each coarse polygon samples
    every piece at its ends. All four fans come from one pass (_fans). The
    counts and A+ are cached on the curve.
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
    gap = np.empty_like(r2)
    for pole_z in (1.0, -1.0):
        np.subtract(p[2], pole_z, out=gap)
        gap *= gap
        gap += r2
        clearance = float(np.sqrt(gap.min()))
        if clearance < min(SIMPLE_TOL, curve.epsilon / 2.0):
            raise PoleOnCurve(f"curve passes within {clearance:.2e} of a pole")
    fan_north, fan_south, half, quarter = _fans(p, r2, curve.arcs)
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
    r_h = fan_north + (fan_north - half) / 3.0
    r_2h = half + (half - quarter) / 3.0
    curve._cache["solid_angle_area"] = (from_north + (r_h - fan_north)
                                        + (r_h - r_2h) / 15.0)
    return result


def _fans(p, r2, arcs):
    """The north and south fans of the closed polygon through the columns
    of p (3, n), and the north fans of the polygons through every 2nd and
    every 4th sample of each arc (sphere._coarse_grid), from one pass over
    their chords p -> q: each adds 2 atan2(p_x q_y - p_y q_x, lift_p lift_q
    + p_x q_x + p_y q_y), with lift = up = 1 + z for the north fans and
    down = 1 - z, and the sign flipped, for the south fan (see
    classify_poles); r2 = x^2 + y^2 at each column. The two fine fans share
    the chord products."""
    # 1 + z and 1 - z; in the hemisphere where one would cancel it is
    # r^2/(1 + |z|) instead
    far = r2 / (1.0 + np.abs(p[2]))
    up = np.where(p[2] < 0.0, far, 1.0 + p[2])
    down = np.where(p[2] > 0.0, far, 1.0 - p[2])
    # the three grids in one index array, each followed by its next sample;
    # every grid starts at sample 0, where its polygon closes
    half = _coarse_grid(arcs, 2)
    n, m = p.shape[1], half.size
    a = np.concatenate([np.arange(n), half, _coarse_grid(arcs, 4)])
    b = np.append(a[1:], 0)
    b[[n - 1, n + m - 1]] = 0
    ab = np.concatenate([a, b])
    (ax, bx), (ay, by) = p[:2].take(ab, axis=1).reshape(2, 2, -1)
    up_a, up_b = up.take(ab).reshape(2, -1)
    num = ax * by - ay * bx
    dot = ax * bx + ay * by
    north = np.arctan2(num, up_a * up_b + dot)
    south = np.arctan2(num[:n], down * down[b[:n]] + dot[:n])
    return (2.0 * float(north[:n].sum()), -2.0 * float(south.sum()),
            2.0 * float(north[n:n + m].sum()), 2.0 * float(north[n + m:].sum()))


def region_areas(curve: RegularizedCurve):
    """(A_plus, A_minus) in steradians for the left and right regions.

    A+ is the signed solid angle of the sampled curve that classify_poles
    measured from both poles, with the Romberg correction from the polygons
    through every 2nd and every 4th sample (see there); it needs a closed,
    simple curve. On the gallery and 64 random laps, at eps and eps/2, the
    area route built on it lies within 1.1e-12 of the line route.
    """
    classify_poles(curve)
    a_plus = curve._cache["solid_angle_area"]
    return a_plus, 4.0 * pi - a_plus


# ---------------------------------------------------------------------------
# boundary data for Gauss-Bonnet


def curvature_integral(curve: RegularizedCurve) -> float:
    """Integral of kappa_g ds over the curve's moving clamped pieces.

    On each piece kappa_g ds = det(g, g', g'') / |g'|^2 dt, from the exact
    derivatives of the embedding (sphere._curvature_rows, in the frame
    turned by -theta), integrated by Gauss-Legendre at both of
    sphere._QUAD_ORDERS in one array pass over the parts of _graded_spans;
    two results more than _QUAD_TOL = 1e-11 apart on a part raise
    QuadratureFailure. The rates
    are divided by the larger of the two first, as for the sampled kappa_g,
    and the integral scaled back. On the gallery and 64 random laps, at eps
    and eps/2, the curvature route built on it lies within 1.8e-15 of the
    line route.
    """
    spans = _graded_spans(p for p in curve.pieces if p.dth != 0.0)  # meridians add 0
    if not spans:
        return 0.0
    t0, t1, b0, dth, db = np.array(spans).T[:, :, None]
    scale = np.maximum(np.abs(dth), np.abs(db))
    w, v = dth / scale, db / scale

    def integrand(since):
        beta = b0 + db * since
        det, speed2 = _curvature_rows(np.sin(beta), np.cos(beta), w, v)
        return scale * det / speed2

    return _gauss_legendre_sum(t0[:, 0], t1[:, 0], integrand)


def _graded_spans(pieces):
    """(t0, t1, beta at t0, theta', beta') of the parts of each piece that
    curvature_integral integrates. Along a piece its integrand is analytic
    in beta except where sin(beta) = +-i beta'/theta', at a distance rho =
    asinh|beta'/theta'| from the real axis at beta = 0 and pi. So each part
    is at most max(d, rho) long, d its distance from the nearer pole: the
    parts double away from each pole, and each lies at least its own length
    from the singularities, where both rules are at rounding level. A piece
    of constant tilt has a constant integrand and stays whole."""
    spans = []
    for t0, t1, _, dth, b0, db in pieces:
        if db == 0.0:
            spans.append((t0, t1, b0, dth, db))
            continue
        rho, b1 = asinh(abs(db / dth)), b0 + db * (t1 - t0)
        lo, hi = min(b0, b1), max(b0, b1)
        cuts = [pi / 2.0] if lo < pi / 2.0 < hi else []
        for near, far, flip in ((lo, min(hi, pi / 2.0), False),
                                (pi - hi, pi - max(lo, pi / 2.0), True)):
            d = near + max(near, rho)   # d: distance from the pole
            while d < far:
                cuts.append(pi - d if flip else d)
                d += max(d, rho)
        times = sorted(t0 + (b - b0) / db for b in cuts)
        ends = [t0, *(t for t in times if t0 < t < t1), t1]
        spans += [(u0, u1, b0 + db * (u0 - t0), dth, db)
                  for u0, u1 in zip(ends, ends[1:])]
    return spans


def turning_angle_sum(curve: RegularizedCurve) -> float:
    """Sum of the signed tangent jumps at the curve's cusps."""
    return float(sum(j.alpha for j in curve.cusps))
