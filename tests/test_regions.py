"""Left/right region analysis: simplicity, pole counts, areas."""

import math
from dataclasses import fields, replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geophase import (DEFAULT_EPSILON, AffineSegment, ConstantSegment,
                      MotionPath, Radii,
                      ScalarPath, classify_poles, curvature_integral,
                      extrapolated_region_report, geometric_phase_area,
                      geometric_phase_curvature, geometric_phase_line,
                      is_simple, regularize, region_areas, turning_angle_sum)
from geophase import regions, sphere
from geophase.regions import SIMPLE_LENGTH, SIMPLE_TOL
from geophase.errors import (CurveNotClosed, CurveNotSimple, QuadratureFailure,
                             WindingInconsistent)
from conftest import (COIN_RADII, TABLE_RADII, affine_lap, closed_motions,
                      gallery, gauss_bonnet_area, pole_sides)
from test_acceptance import random_closed_motion

PI = math.pi
TWO_PI = 2.0 * PI
EPS = DEFAULT_EPSILON
# a junction turn within DELTA of a full reversal touches
DELTA = 2.0 * math.asin(SIMPLE_TOL / SIMPLE_LENGTH)

EXPECTED_COUNTS = {"i": (1, 1), "ii": (1, 1), "iii": (1, 1),
                   "iv": (1, 1), "v": (0, 2), "vi": (1, 1)}


def double_lap_spiral():
    """Two azimuthal laps while the tilt rises and falls: one crossing."""
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, 2 * TWO_PI)])
    beta = ScalarPath.from_segments([
        AffineSegment(0.0, 0.5, PI / 2.0, 1.0),
        AffineSegment(0.5, 1.0, PI / 2.0 + 0.5, -1.0),
    ])
    return MotionPath(theta, beta, Radii(1.0, 1.0))


def test_gallery_curves_are_simple():
    for name in EXPECTED_COUNTS:
        assert is_simple(regularize(gallery(name)))


def test_self_crossing_curve_detected():
    curve = regularize(double_lap_spiral())
    assert not is_simple(curve)
    with pytest.raises(CurveNotSimple):
        classify_poles(curve)


def test_pole_counts_on_gallery():
    for name, (ip, im) in EXPECTED_COUNTS.items():
        got_p, got_m = classify_poles(regularize(gallery(name)))
        assert (got_p, got_m) == (ip, im), name
        assert got_p + got_m == 2


def test_pole_counts_stable_under_smaller_clamp():
    for name in EXPECTED_COUNTS:
        path = gallery(name)
        full = classify_poles(regularize(path, EPS))
        half = classify_poles(regularize(path, EPS / 2.0))
        assert full == half, name


def test_pole_split_against_winding_carries_no_number():
    # vi winds once clockwise, with the south pole on its left; a theta end
    # moved by a lap makes the winding 0 while the fans are unchanged
    curve = regularize(gallery("vi"))
    curve.theta[-1] += TWO_PI
    with pytest.raises(WindingInconsistent,
                       match="pole split False/True vs azimuthal winding 0") as info:
        classify_poles(curve)
    assert info.value.value is None
    assert info.value.tol is None


@pytest.mark.parametrize("radii", [TABLE_RADII, COIN_RADII])
def test_fan_sign_sides_match_the_frozen_counts(radii):
    # a negative north fan puts the south pole on the left, a negative
    # south fan the north pole
    for eps in (PI / 16.0, PI / 32.0):
        for name, counts in EXPECTED_COUNTS.items():
            curve = regularize(gallery(name, radii), eps)
            assert classify_poles(curve) == counts, (name, eps)
            north_in, south_in = pole_sides(curve)
            assert int(north_in) + int(south_in) == counts[0]


def test_non_simple_polygon_trips_the_two_fan_check():
    # the spiral crosses itself once; with is_simple's verdict overridden
    # the two fans' areas land 4 pi apart
    curve = regularize(double_lap_spiral())
    curve._cache[("simple", SIMPLE_TOL)] = True
    with pytest.raises(WindingInconsistent,
                       match=r"disagree by \d\.\d{3}e[+-]\d\d ") as info:
        classify_poles(curve)
    assert info.value.value == pytest.approx(4.0 * PI, abs=1e-9)
    assert info.value.tol == 1e-9


def test_open_curve_rejected():
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, PI)])
    beta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, PI / 2, 0.0)])
    curve = regularize(MotionPath(theta, beta, Radii(1.0, 1.0)))
    with pytest.raises(CurveNotClosed):
        region_areas(curve)


@pytest.mark.parametrize("name,a_plus_eps", [
    ("i", TWO_PI * (1.0 + math.cos(EPS))),
    ("ii", TWO_PI),
    ("iii", TWO_PI * (1.0 - math.cos(EPS))),
    ("iv", TWO_PI * (1.0 + math.cos(PI / 3.0))),
])
def test_latitude_areas_match_cap_formula(name, a_plus_eps):
    # a_plus_eps is the closed cap 2 pi (1 +- cos beta0) of the clamped circle
    curve = regularize(gallery(name))
    a_sa, a_sa_minus = region_areas(curve)
    a_gb = gauss_bonnet_area(curve)
    # the Romberg polygon area misses the cap by at most 1.1e-12 (iv),
    # Gauss-Bonnet on the Gauss-Legendre boundary integral by at most 1e-15
    assert a_sa == pytest.approx(a_plus_eps, abs=5e-7)
    assert a_gb == pytest.approx(a_plus_eps, abs=2e-6)
    assert a_sa + a_sa_minus == pytest.approx(4.0 * PI, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(closed_motions(dip=True) | closed_motions())
def test_solid_angle_area_matches_gauss_bonnet(path):
    # the polygon's solid angle and Gauss-Bonnet on the boundary data share
    # no formula; they differ by at most 1.3e-10 on 1200 generated laps
    curve = regularize(path)
    a_plus, a_minus = region_areas(curve)
    assert a_plus == pytest.approx(gauss_bonnet_area(curve), abs=2e-6)
    assert a_plus + a_minus == pytest.approx(4.0 * PI, abs=1e-12)


def test_square_wave_turning_angles():
    # four right-angle corners on each square-wave motion
    assert turning_angle_sum(regularize(gallery("v"))) == pytest.approx(
        TWO_PI, abs=1e-9)
    assert turning_angle_sum(regularize(gallery("vi"))) == pytest.approx(
        0.0, abs=1e-9)
    assert turning_angle_sum(regularize(gallery("ii"))) == 0.0


def test_curvature_integral_on_latitudes():
    # closed latitude at beta: integral is -cot(beta) * 2 pi sin(beta)
    curve = regularize(gallery("iv"))
    assert curvature_integral(curve) == pytest.approx(
        -TWO_PI * math.cos(PI / 3.0), rel=1e-7)
    assert curvature_integral(regularize(gallery("ii"))) == pytest.approx(
        0.0, abs=1e-9)


def test_region_report_shape():
    report = extrapolated_region_report(gallery("vi"))
    assert [f.name for f in fields(report)] == [
        "I_plus", "I_minus", "A_plus", "A_minus"]
    assert (report.I_plus, report.I_minus) == (1, 1)
    assert report.A_plus + report.A_minus == pytest.approx(4.0 * PI, abs=1e-12)


def _segment_pair_closest(p1, q1, p2, q2):
    """Closest points of the 3D segment batches [p1,q1] and [p2,q2]: their
    distance and their parameters s and t along each segment."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    b = np.einsum("ij,ij->i", d1, d2)
    c = np.einsum("ij,ij->i", d1, r)
    f = np.einsum("ij,ij->i", d2, r)
    denom = a * e - b * b
    s = np.where(denom > 1e-30, np.clip((b * f - c * e) / np.where(denom > 1e-30, denom, 1.0), 0.0, 1.0), 0.0)
    t = (b * s + f) / np.where(e > 1e-30, e, 1.0)
    t = np.clip(t, 0.0, 1.0)
    s = np.clip((b * t - c) / np.where(a > 1e-30, a, 1.0), 0.0, 1.0)
    diff = (p1 + s[:, None] * d1) - (p2 + t[:, None] * d2)
    return np.linalg.norm(diff, axis=1), s, t


def _curve_segments(curve):
    """Chord segments (P, Q) per smooth arc, in order, and the arc length
    at the start and at the end of each chord."""
    starts, ends, s0, s1 = [], [], [], []
    for i0, i1 in curve.arcs:
        starts.append(curve.g[i0:i1 - 1])
        ends.append(curve.g[i0 + 1:i1])
        s0.append(curve.s[i0:i1 - 1])
        s1.append(curve.s[i0 + 1:i1])
    return (np.vstack(starts), np.vstack(ends),
            np.concatenate(s0), np.concatenate(s1))


def _touching_pairs(curve, tol=SIMPLE_TOL):
    """Chord pairs (i, j) of the sampled polygon that hold two points more
    than SIMPLE_LENGTH apart along the curve (the shorter way round on a
    closed curve) and less than tol apart, by the exact distance over such
    points: points at arc lengths a on chord i and b on chord j count when
    L < b - a < hi, with hi the length less L on a closed curve."""
    P, Q, s0, s1 = _curve_segments(curve)
    L = SIMPLE_LENGTH
    hi = curve.total_length - L if curve.closed else np.inf
    if not L < hi:
        return set()
    i, j = np.triu_indices(P.shape[0], 1)
    keep = (s1[j] - s0[i] > L) & (s0[j] - s1[i] < hi)
    i, j = i[keep], j[keep]
    p1, d1, p2, d2 = P[i], Q[i] - P[i], P[j], Q[j] - P[j]
    h1, h2 = s1[i] - s0[i], s1[j] - s0[j]
    # the closest points of the two chords, where they count
    d, u, v = _segment_pair_closest(P[i], Q[i], P[j], Q[j])
    arc = s0[j] + v * h2 - s0[i] - u * h1
    d = np.where((L < arc) & (arc < hi), d, np.inf)
    # else the closest points that count lie where b - a = L or hi: there
    # v = alpha + beta u, for u in [0, 1] with v in [0, 1]
    beta = h1 / h2
    for c in (L, hi) if curve.closed else (L,):
        alpha = (c + s0[i] - s0[j]) / h2
        lo_u = np.maximum(0.0, -alpha / beta)
        hi_u = np.minimum(1.0, (1.0 - alpha) / beta)
        r0 = p1 - p2 - alpha[:, None] * d2
        r1 = d1 - beta[:, None] * d2
        rr = np.einsum("ij,ij->i", r1, r1)
        u = -np.einsum("ij,ij->i", r0, r1) / np.where(rr > 0.0, rr, 1.0)
        u = np.clip(u, lo_u, np.maximum(lo_u, hi_u))
        on_line = np.linalg.norm(r0 + u[:, None] * r1, axis=1)
        d = np.where(lo_u <= hi_u, np.minimum(d, on_line), d)
    touching = ~(d >= tol)
    return set(zip(i[touching].tolist(), j[touching].tolist()))


def _all_pairs_simple(curve, tol=SIMPLE_TOL):
    """The sampled reference: whether two points of the sampled polygon
    more than SIMPLE_LENGTH apart along the curve lie within tol, by the
    exact distance of every chord pair."""
    return not _touching_pairs(curve, tol)


@st.composite
def short_motions(draw):
    """A few affine segments over a small theta range that may backtrack.

    A segment's tilt change is either moderate, zero (an exact retrace when
    the next segment turns back), or so small that a hairpin's two strands
    sit 0.04-0.4, 0.5-2 or 10-100 x SIMPLE_TOL apart one SIMPLE_LENGTH from
    its tip: against a retraced strand, a turn of 0.02-0.2, 0.25-1 or 5-50
    DELTA from a full reversal, below, inside and above the band that
    test_is_simple_matches_all_pairs_reference skips.
    """
    beta0 = draw(st.floats(0.4, PI - 0.4))   # four steps of 0.1 stay in [0, pi]
    n = draw(st.integers(1, 4))
    theta_segs, beta_segs = [], []
    theta, beta = 0.0, beta0
    for k in range(n):
        dth = draw(st.floats(0.01, 0.15)) * draw(st.sampled_from([1.0, -1.0]))
        near = st.one_of(st.floats(0.04, 0.4), st.floats(0.5, 2.0),
                         st.floats(10.0, 100.0)).map(
            lambda f: f * SIMPLE_TOL / SIMPLE_LENGTH * abs(dth) * math.sin(beta0))
        dbeta = draw(st.one_of(st.floats(-0.1, 0.1), st.just(0.0), near,
                               near.map(lambda x: -x)))
        t0, t1 = k / n, (k + 1) / n
        theta_segs.append(AffineSegment(t0, t1, theta, dth * n))
        beta_segs.append(AffineSegment(t0, t1, beta, dbeta * n))
        theta, beta = theta + dth, beta + dbeta
    return MotionPath(ScalarPath.from_segments(theta_segs),
                      ScalarPath.from_segments(beta_segs), Radii(1.0, 1.0))


def hairpin():
    """A hooked hairpin: out along beta = 1 to theta 1/8, up 2^-20 along a
    meridian, back to theta 1/16 while dropping to 0.5 x SIMPLE_TOL above
    the outgoing strand. Its end touches the outgoing strand 1/16 rad from
    the junctions: a pair of points far apart along the curve, and a pair
    of chords 47 apart in the sampled polygon."""
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1 / 3, 0.0, 0.375),
                                      AffineSegment(1 / 3, 2 / 3, 0.125, 0.0),
                                      AffineSegment(2 / 3, 1.0, 0.125, -0.1875)])
    rise, gap = 2.0 ** -20, 0.5 * SIMPLE_TOL
    beta = ScalarPath.from_segments([AffineSegment(0.0, 1 / 3, 1.0, 0.0),
                                     AffineSegment(1 / 3, 2 / 3, 1.0, 3.0 * rise),
                                     AffineSegment(2 / 3, 1.0, 1.0 + rise, 3.0 * (gap - rise))])
    return MotionPath(theta, beta, Radii(1.0, 1.0))


def test_hairpin_touches_only_across_far_chords():
    # the example below guards a touch far along the curve from any
    # junction, which no junction turn explains
    curve = regularize(hairpin())
    touching = _touching_pairs(curve, SIMPLE_TOL)
    assert touching
    assert not is_simple(curve)


def _pieces_cross(curve):
    """Whether two pieces that do not meet at a junction cross in the
    (theta, beta) chart: a true crossing of the curve. The sampled polygon
    can miss one, its chords passing at different depths below the sphere
    (a chord of SIMPLE_LENGTH sags 2e-6)."""
    ends = [((p.th0, p.b0), p.at(p.t1)) for p in curve.pieces]

    def side(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    return any(side(a, b, c) * side(a, b, d) < 0 and side(c, d, a) * side(c, d, b) < 0
               for (k, (a, b)), (m, (c, d)) in combinations(enumerate(ends), 2)
               if m - k >= 2)


def short_hairpin(turn):
    """Out 1/32 rad along beta = 2.6875, where a 16-step piece has chords of
    SIMPLE_LENGTH / 5, and back 1/64 rad at the angle turn from a full
    reversal, rising."""
    beta, back = 2.6875, 1.0 / 64.0
    return affine_lap([0.0, 2.0 * back, back],
                      [beta, beta, beta + math.tan(turn) * math.sin(beta) * back])


def closed_retrace(beta):
    """Out 1/100 rad along the latitude beta and straight back: a closed
    curve of length sin(beta) / 50, whose two strands coincide."""
    return affine_lap([0.0, 0.01, 0.0], [beta, beta, beta])


@pytest.mark.parametrize("beta,simple", [(0.40625, True), (0.4375, False)])
def test_a_closed_retrace_touches_only_past_twice_simple_length(beta, simple):
    # no two points of a closed curve no longer than 2 L lie more than L
    # apart the shorter way round, so its reversals touch nothing
    curve = regularize(closed_retrace(beta))
    assert (curve.total_length > 2.0 * SIMPLE_LENGTH) is not simple
    assert is_simple(curve) is simple
    assert _all_pairs_simple(curve) is simple


@settings(max_examples=60, deadline=None)
@given(short_motions())
@example(hairpin())
@example(short_hairpin(5.0 * DELTA))
@example(closed_retrace(0.40625))
def test_is_simple_matches_all_pairs_reference(path):
    # off the delta band a turn near reversal touches in both; inside it
    # the sampled answer turns on the sample step, which is no rule. The
    # reference polygon is sampled at a step of at most SIMPLE_LENGTH, a
    # quarter of sphere's caps, so the band stays [DELTA / 4, 4 DELTA];
    # is_simple reads the pieces, which the step does not change
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sphere, "MAX_SAMPLE_STEP", SIMPLE_LENGTH)
        mp.setattr(sphere, "_KAPPA_STEP", sphere._KAPPA_STEP / 4.0)
        curve = regularize(path)
    turns = [PI - abs(j.alpha) for j in curve.junctions]
    if any(DELTA / 4.0 <= turn <= 4.0 * DELTA for turn in turns):
        return
    if _pieces_cross(curve):
        assert not is_simple(curve)
    else:
        assert is_simple(curve) == _all_pairs_simple(curve)


def hairpin_turn(turn):
    """An open hairpin: out along beta = 1 to theta 1/2, then back to theta
    1/4 at the angle turn from a full reversal, rising."""
    theta = ScalarPath.from_segments([AffineSegment(0.0, 0.5, 0.0, 1.0),
                                      AffineSegment(0.5, 1.0, 0.5, -0.5)])
    rise = math.tan(turn) * math.sin(1.0) * 0.25
    beta = ScalarPath.from_segments([AffineSegment(0.0, 0.5, 1.0, 0.0),
                                     AffineSegment(0.5, 1.0, 1.0, 2.0 * rise)])
    return MotionPath(theta, beta, Radii(1.0, 1.0))


@pytest.mark.parametrize("turn,simple", [(0.5 * DELTA, False), (2.0 * DELTA, True),
                                         (0.0, False)],
                         ids=["half_delta", "twice_delta", "retrace"])
def test_a_turn_within_delta_of_reversal_touches(turn, simple):
    curve = regularize(hairpin_turn(turn))
    (junction,) = curve.junctions
    assert PI - abs(junction.alpha) == pytest.approx(turn, rel=1e-6, abs=1e-15)
    assert is_simple(curve) is simple
    # the search over pairs of pieces, which reads no junction turn, finds
    # the same touch between points just over SIMPLE_LENGTH / 2 out
    with np.errstate(all="ignore"):
        assert regions._touches(curve, SIMPLE_TOL) is not simple


def thin_band(gap):
    """A closed band: out along beta = 1 to theta 1, up gap along a
    meridian, back along beta = 1 + gap, and down gap."""
    theta = ScalarPath.from_segments([AffineSegment(0.0, 0.25, 0.0, 4.0),
                                      AffineSegment(0.25, 0.5, 1.0, 0.0),
                                      AffineSegment(0.5, 0.75, 1.0, -4.0),
                                      AffineSegment(0.75, 1.0, 0.0, 0.0)])
    beta = ScalarPath.from_segments([AffineSegment(0.0, 0.25, 1.0, 0.0),
                                     AffineSegment(0.25, 0.5, 1.0, 4.0 * gap),
                                     AffineSegment(0.5, 0.75, 1.0 + gap, 0.0),
                                     AffineSegment(0.75, 1.0, 1.0 + gap, -4.0 * gap)])
    return MotionPath(theta, beta, Radii(1.0, 1.0))


@pytest.mark.parametrize("gap,simple", [(1e-7, True), (1e-8, True), (3e-9, True),
                                        (5e-10, False)])
def test_thin_band_is_simple_only_above_tol(gap, simple):
    # the meridian legs are shorter than SIMPLE_LENGTH, so the two long
    # strands are neighbours; they touch only where they lie within tol
    path = thin_band(gap)
    assert is_simple(regularize(path)) is simple
    if simple:
        line = geometric_phase_line(path)
        assert geometric_phase_area(path) == pytest.approx(line, abs=1e-9)
        assert geometric_phase_curvature(path) == pytest.approx(line, abs=1e-9)


@pytest.mark.parametrize("name", ["i", "iii", "vi"])
def test_a_curve_shorter_than_tol_measures_only_near_pairs(name, monkeypatch):
    # at eps = 1e-20 the clamp circle lies within 1e-19 of the pole: no two
    # of its points are SIMPLE_LENGTH apart along the curve, so it touches
    # nothing; the search halves only the longer stretch of a pair, so it
    # never cuts up the clamp circle and stays small
    measured = []
    closest = regions._closest

    def counted(rx, ry, p, q):
        measured.append(rx.size)
        return closest(rx, ry, p, q)

    monkeypatch.setattr(regions, "_closest", counted)
    curve = regularize(gallery(name), 1e-20)
    assert is_simple(curve)
    assert len(measured) <= 32 and max(measured) <= 64


UNIT = 2e-3   # chart unit of the polylines below: SIMPLE_LENGTH / 2


def polyline_motion(points):
    """An open motion through the chart points (theta, beta) = UNIT (x, y)
    + (0, pi/2), one affine piece per segment, equal in time."""
    xy = UNIT * np.asarray(points, dtype=float)
    n = len(xy) - 1
    theta, beta = [], []
    for k in range(n):
        (x0, y0), (x1, y1) = xy[k], xy[k + 1]
        theta.append(AffineSegment(k / n, (k + 1) / n, x0, (x1 - x0) * n))
        beta.append(AffineSegment(k / n, (k + 1) / n, PI / 2.0 + y0, (y1 - y0) * n))
    return MotionPath(ScalarPath.from_segments(theta), ScalarPath.from_segments(beta),
                      Radii(1.0, 1.0))


def crossing_polyline(i, j, m, cross=True):
    """m segments along y = 0 up to segment i, then a loop whose segment j
    runs down x = i + 1/2 across segment i (or stops short of it, the tail
    running left 0.25 UNIT above it). The crossing points lie at least 2.5
    UNIT apart along the curve."""
    points = [(x, 0.0) for x in range(i + 2)]
    up = (j - i - 2) // 2                  # loop: up, one step left, down
    down = j - i - 2 - up
    points += [(i + 1.0, float(y)) for y in range(1, up + 1)]
    points += [(i + 0.5, up - (up - 0.5) * k / down) for k in range(down + 1)]
    if cross:   # segment j and a tail straight down
        points += [(i + 0.5, -0.5 - y) for y in range(m - j)]
    else:       # segment j stops above y = 0; the tail runs left above it
        points += [(i + 0.5 - x, 0.25) for x in range(m - j)]
    assert len(points) == m + 1
    return polyline_motion(points)


# (i, j, m) are the run edges of the sampled search this check replaced,
# which cut the chords into runs of 8; here each segment is a piece, and the
# crossing must be found wherever it falls among the units and in the sweep
@pytest.mark.parametrize("i,j,m", [
    (7, 23, 32),      # runs 0 and 2, both run ends
    (8, 24, 32),      # runs 1 and 3, both run starts
    (7, 22, 32),      # runs 0 and 2, the last near offset
    (8, 26, 27),      # the last, partial run
    (0, 17, 18),      # three runs, the fewest with far pairs
    (1, 11, 15),      # fewer than 16 chords
    (0, 4, 7),        # fewer than 8 chords
])
@pytest.mark.parametrize("cross", [True, False])
def test_is_simple_at_run_boundaries(i, j, m, cross):
    curve = regularize(crossing_polyline(i, j, m, cross))
    assert len(curve.pieces) == m
    assert is_simple(curve) is not cross


def lap_spiral(beta0, separation):
    """Two open azimuthal laps whose tilt rises by `separation` per lap."""
    theta = ScalarPath.from_segments([AffineSegment(0.0, 0.5, 0.0, 2 * TWO_PI),
                                      AffineSegment(0.5, 1.0, TWO_PI, 2 * TWO_PI)])
    beta = ScalarPath.from_segments([
        AffineSegment(0.0, 0.5, beta0, 2 * separation),
        AffineSegment(0.5, 1.0, beta0 + separation, 2 * separation)])
    return MotionPath(theta, beta, Radii(1.0, 1.0))


@pytest.mark.parametrize("beta0", [PI / 2.0, 0.4, 2.9])
@pytest.mark.parametrize("separation,simple", [(1.5e-9, True), (5e-10, False),
                                               (0.0, False)])
def test_two_lap_spiral_is_simple_only_above_tol(beta0, separation, simple):
    assert is_simple(regularize(lap_spiral(beta0, separation))) is simple


@pytest.mark.parametrize("separation,simple", [(1.5e-9, True), (5e-10, False)])
def test_a_spiral_touches_inside_its_units(separation, simple):
    # one piece of 2.1 laps is cut into 9 units of 1.47 rad each, so the
    # strands a lap apart lie side by side inside units, not at their ends
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, 2.1 * TWO_PI)])
    beta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 1.0, 2.1 * separation)])
    curve = regularize(MotionPath(theta, beta, Radii(1.0, 1.0)))
    assert len(curve.pieces) == 1
    assert is_simple(curve) is simple


@pytest.mark.parametrize("gap,simple", [(5e-10, False), (3e-9, True)])
def test_a_tip_touches_a_slanted_strand_where_sin_beta_is_small(gap, simple):
    # a "<" whose tip lies gap from a strand slanting through (0.015, 0.1),
    # 5e-9 from it in theta at gap 5e-10: a chart that does not scale theta
    # by the smaller sin(beta) puts the pair above tol and drops it
    tip = 0.015 - gap / math.sin(0.1)
    path = affine_lap([0.0, 0.105, 1.015, -0.985, tip - 0.26, tip, tip - 0.26],
                      [0.05, 0.4, 0.6, 0.6, 0.14, 0.1, 0.06])
    assert is_simple(regularize(path, 1e-3)) is simple


def two_pole_visits():
    """A closed lap at beta = 1 that drops along a meridian onto the south
    pole at theta pi/2 and at pi + 1/2, each time moving 1/2 rad in theta
    there and climbing back along another meridian."""
    knots = [(0.0, 1.0), (PI / 2.0, 1.0), (PI / 2.0, 0.0), (PI / 2.0 + 0.5, 0.0),
             (PI / 2.0 + 0.5, 1.0), (PI + 0.5, 1.0), (PI + 0.5, 0.0),
             (PI + 1.0, 0.0), (PI + 1.0, 1.0), (TWO_PI, 1.0)]
    n = len(knots) - 1
    theta = ScalarPath.from_segments([
        AffineSegment(k / n, (k + 1) / n, knots[k][0], (knots[k + 1][0] - knots[k][0]) * n)
        for k in range(n)])
    beta = ScalarPath.from_segments([
        AffineSegment(k / n, (k + 1) / n, knots[k][1], (knots[k + 1][1] - knots[k][1]) * n)
        for k in range(n)])
    return MotionPath(theta, beta, Radii(1.0, 1.0))


@pytest.mark.parametrize("eps,simple", [(EPS, True), (1e-9, True), (1e-12, False),
                                        (1e-20, False)])
def test_two_visits_to_a_pole_touch_below_tol(eps, simple):
    # the clamp arcs of the two visits lie at least 2 sin(pi/4) eps apart
    # and more than a quarter lap apart along the curve
    assert is_simple(regularize(two_pole_visits(), eps)) is simple


@pytest.mark.parametrize("radii", [TABLE_RADII, COIN_RADII])
def test_gallery_and_random_laps_need_no_halving(radii, monkeypatch):
    # every pair of units is settled by its first bounds, so the chart
    # distance, computed only for pairs still open, is never needed; the
    # search is called directly, since the certificate decides most laps
    measured = []
    monkeypatch.setattr(regions, "_closest", lambda *args: measured.append(args))
    rng = np.random.default_rng(20260823)
    paths = [gallery(name, radii) for name in EXPECTED_COUNTS]
    paths += [random_closed_motion(rng) for _ in range(8)]
    for path in paths:
        for eps in (EPS, EPS / 2.0):
            with np.errstate(all="ignore"):
                assert not regions._touches(regularize(path, eps), SIMPLE_TOL)
    assert not measured


def near_pole(offset):
    """A tilt offset from a pole, either one."""
    return st.tuples(offset, st.booleans()).map(lambda x: PI - x[0] if x[1] else x[0])


@st.composite
def monotone_curves(draw):
    """(path, eps): theta monotone in 1-5 affine pieces, a closed lap or an
    open arc sweeping 0.05-1.2 laps. Tilt knots anywhere, on a pole, or
    1e-14-1e-1 from one; a piece may turn 1e-12-1e-6 of the lap only, which
    makes it steep (|beta'/theta'| up to about 1e12); eps log-uniform in
    [1e-12, pi/8)."""
    n = draw(st.integers(1, 5))
    closed = n > 1 and draw(st.booleans())
    sweep = 1.0 if closed else draw(st.floats(0.05, 1.2))
    fracs = [draw(st.one_of(st.floats(0.5, 2.0), st.floats(1e-12, 1e-6)))
             for _ in range(n)]
    direction = draw(st.sampled_from([1.0, -1.0])) * TWO_PI * sweep
    theta = [0.0]
    for f in fracs[:-1]:
        theta.append(theta[-1] + direction * f / sum(fracs))
    theta.append(direction)
    tilt = st.one_of(st.floats(0.0, PI), st.sampled_from([0.0, PI]),
                     near_pole(st.floats(-14.0, -1.0).map(lambda x: 10.0 ** x)))
    beta = [draw(tilt) for _ in range(n + 1)]
    if closed:
        beta[-1] = beta[0]
    eps = 10.0 ** draw(st.floats(-12.0, math.log10(PI / 8.0),
                                 exclude_max=True))
    return affine_lap(theta, beta), eps


@settings(max_examples=100, deadline=None)
@given(monotone_curves())
def test_a_certified_curve_has_no_touch_and_no_reversal(drawn):
    # the certificate's claim, checked against the search it skips. The
    # search reads arc length only to tell points more than SIMPLE_LENGTH
    # apart, so the curve is sampled at MAX_SAMPLE_STEP throughout: at
    # small eps the finer step near the clamp circles would need more than
    # MAX_PIECE_SAMPLES samples
    path, eps = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sphere, "_KAPPA_STEP", math.inf)
        curve = regularize(path, eps)
    with np.errstate(all="ignore"):
        if regions._certified(curve, SIMPLE_TOL):
            assert not regions._reverses(curve, SIMPLE_TOL)
            assert not regions._touches(curve, SIMPLE_TOL)


def steep_tent(rise):
    """A lap at beta = 1 with a tent at theta 1: up 0.1 and back down
    while theta advances by rise each way, so |beta'/theta'| = 0.1 / rise
    and the tip turns 2 atan(sin(1.1) rise / 0.1) short of a reversal."""
    return affine_lap([0.0, 1.0, 1.0 + rise, 1.0 + 2.0 * rise, TWO_PI],
                      [1.0, 1.0, 1.1, 1.0, 1.0])


@pytest.mark.parametrize("rise,simple", [(1e-8, False), (1e-3, True)])
def test_a_steep_tent_is_left_to_the_search(rise, simple):
    # at |beta'/theta'| = 1e7 the tip turns 1.8e-7 < DELTA from a reversal,
    # so its strands touch; the certificate's reach, SIMPLE_LENGTH / 1e7,
    # is too short to clear it, and the search finds the touch. At 1e2 the
    # certificate clears the lap
    curve = regularize(steep_tent(rise))
    turn = PI - max(abs(j.alpha) for j in curve.junctions)
    assert (turn < DELTA) is not simple
    assert regions._certified(curve, SIMPLE_TOL) is simple
    assert is_simple(curve) is simple


def _relaid(curve, rows):
    """The curve with a fresh cache and g laid out as (3, n) rows seen
    through their transpose (rows=True) or as a C-ordered (n, 3) array."""
    g = np.ascontiguousarray(curve.g.T).T if rows else np.ascontiguousarray(curve.g)
    return replace(curve, g=g, _cache={})


@pytest.mark.parametrize("radii", [TABLE_RADII, COIN_RADII])
def test_both_layouts_of_g_give_the_same_regions(radii):
    # regularize stores g as the transposed view of a (3, n) buffer
    for name in EXPECTED_COUNTS:
        curve = regularize(gallery(name, radii))
        assert curve.g.T.flags.c_contiguous
        c_ordered = _relaid(curve, rows=False)
        assert c_ordered.g.flags.c_contiguous
        assert is_simple(c_ordered) and is_simple(curve)
        assert classify_poles(c_ordered) == classify_poles(curve)
        assert region_areas(c_ordered) == region_areas(curve)
    spiral = regularize(double_lap_spiral())
    assert not is_simple(_relaid(spiral, rows=False)) and not is_simple(spiral)


def _fan_sum(p, lift):
    """One fan of the closed polygon through the columns of p (3, n), summed
    on its own: atan2(p_x q_y - p_y q_x, lift_p lift_q + p_x q_x + p_y q_y)
    over the chords p -> q, the next column taken by np.roll."""
    q = np.roll(p, -1, axis=1)
    num = p[0] * q[1] - p[1] * q[0]
    return float(np.sum(np.arctan2(num, lift * np.roll(lift, -1)
                                   + (p[0] * q[0] + p[1] * q[1]))))


@pytest.mark.parametrize("radii", [TABLE_RADII, COIN_RADII])
def test_fused_fans_equal_the_separate_fan_sums(radii):
    # the four fans of classify_poles come from one pass over their chords;
    # each equals its fan summed on its own
    rng = np.random.default_rng(20260823)
    paths = [gallery(name, radii) for name in EXPECTED_COUNTS]
    paths += [random_closed_motion(rng) for _ in range(8)]
    for path in paths:
        curve = regularize(path)
        p = curve.g.T
        r2 = p[0] * p[0] + p[1] * p[1]
        far = r2 / (1.0 + np.abs(p[2]))
        up = np.where(p[2] < 0.0, far, 1.0 + p[2])
        down = np.where(p[2] > 0.0, far, 1.0 - p[2])
        two = sphere._coarse_grid(curve.arcs, 2)
        four = sphere._coarse_grid(curve.arcs, 4)
        separate = (2.0 * _fan_sum(p, up), -2.0 * _fan_sum(p, down),
                    2.0 * _fan_sum(p[:, two], up[two]),
                    2.0 * _fan_sum(p[:, four], up[four]))
        assert regions._fans(p, r2, curve.arcs) == separate


@pytest.mark.parametrize("beta0", [1.0, 2.5])
def test_area_error_falls_64_fold_per_halved_step(beta0, monkeypatch):
    # the Romberg area of the latitude circle at beta0 against its cap
    # 2 pi (1 + cos beta0), with 32, 64, 128 and 256 equal steps: sixth
    # order, so each halving divides the error by 2^6
    lap = MotionPath(ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, TWO_PI)]),
                     ScalarPath.from_segments([ConstantSegment(0.0, 1.0, beta0)]),
                     Radii(1.0, 1.0))
    errors = []
    for steps in (32, 64, 128, 256):
        monkeypatch.setattr(sphere, "_piece_steps", lambda p, n=steps: n)
        a_plus, _ = region_areas(regularize(lap))
        errors.append(abs(a_plus - TWO_PI * (1.0 + math.cos(beta0))))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(60.0 < r < 68.0 for r in ratios), (errors, ratios)


def pole_to_pole_spiral():
    """One lap in theta while the tilt falls from 2.8 to 0.2, then back up
    a meridian: a simple closed curve whose first piece sweeps 2 pi in
    theta across most of the sphere."""
    theta = ScalarPath.from_segments([AffineSegment(0.0, 0.5, 0.0, 2.0 * TWO_PI),
                                      ConstantSegment(0.5, 1.0, TWO_PI)])
    beta = ScalarPath.from_segments([AffineSegment(0.0, 0.5, 2.8, -5.2),
                                     AffineSegment(0.5, 1.0, 0.2, 5.2)])
    return MotionPath(theta, beta, TABLE_RADII)


def test_curvature_parts_keep_both_orders_at_rounding_level():
    # the spiral's integrand has poles 0.40 off the real beta axis at the
    # poles of the sphere; the graded parts keep 16 and 24 nodes together
    path = pole_to_pole_spiral()
    line = geometric_phase_line(path)
    assert geometric_phase_curvature(path) == pytest.approx(line, abs=1e-12)
    assert geometric_phase_area(path) == pytest.approx(line, abs=1e-11)


def test_a_16_24_node_gap_raises_quadrature_failure(monkeypatch):
    # one part per piece: on the spiral's first piece the two rules differ
    # by about 4e-10
    monkeypatch.setattr(regions, "_graded_spans", lambda pieces: [
        (p.t0, p.t1, p.b0, p.dth, p.db) for p in pieces])
    with pytest.raises(QuadratureFailure,
                       match=r"orders 16 and 24 differ by \d\.\d{3}e-10 on "
                             r"\[0\.0, 0\.5\]") as info:
        curvature_integral(regularize(pole_to_pole_spiral()))
    assert info.value.tol == 1e-11
    assert info.value.value > info.value.tol
