"""Left/right region analysis: simplicity, pole counts, areas."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geophase import (DEFAULT_EPSILON, AffineSegment, MotionPath, Radii,
                      ScalarPath, classify_poles, curvature_integral,
                      extrapolated_region_report, is_simple, regularize,
                      region_areas, turning_angle_sum)
from geophase import regions
from geophase.regions import SIMPLE_TOL
from geophase.sphere import MAX_SAMPLE_STEP, RegularizedCurve
from geophase.errors import CurveNotClosed, CurveNotSimple, WindingInconsistent
from conftest import (COIN_RADII, TABLE_RADII, closed_motions, gallery,
                      gauss_bonnet_area, pole_sides)

PI = math.pi
TWO_PI = 2.0 * PI
EPS = DEFAULT_EPSILON

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
    # the Richardson-corrected polygon area misses the cap by at most
    # 1.8e-11 (iv), the Richardson-corrected boundary integral by at most
    # 1.2e-10 (i, iii)
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


def _curve_segments(curve):
    """Chord segments (P, Q) per smooth arc, with sequential position ids."""
    starts, ends = [], []
    for i0, i1 in curve.arcs:
        if i1 - i0 >= 2:
            starts.append(curve.g[i0:i1 - 1])
            ends.append(curve.g[i0 + 1:i1])
    if not starts:
        return np.empty((0, 3)), np.empty((0, 3))
    return np.vstack(starts), np.vstack(ends)


def _touching_pairs(curve, tol=SIMPLE_TOL):
    """Non-adjacent chord pairs that are not at least tol apart, by the
    exact distance of every pair."""
    P, Q = _curve_segments(curve)
    m = P.shape[0]
    i, j = np.triu_indices(m, 2)
    if curve.closed:
        keep = j - i != m - 1
        i, j = i[keep], j[keep]
    d = regions._segment_pair_distance(P[i], Q[i], P[j], Q[j])
    touching = ~(d >= tol)
    return set(zip(i[touching].tolist(), j[touching].tolist()))


def _all_pairs_simple(curve, tol=SIMPLE_TOL):
    """Reference for is_simple: the exact distance of every non-adjacent
    chord pair."""
    return not _touching_pairs(curve, tol)


@st.composite
def short_motions(draw):
    """A few affine segments over a small theta range that may backtrack.

    A segment's tilt change is either moderate, zero (an exact retrace when
    the next segment turns back), or so small that a hairpin's two strands
    sit 0.5-2 x SIMPLE_TOL apart one sample step from its tip.
    """
    beta0 = draw(st.floats(0.3, PI - 0.3))
    n = draw(st.integers(1, 4))
    theta_segs, beta_segs = [], []
    theta, beta = 0.0, beta0
    for k in range(n):
        dth = draw(st.floats(0.01, 0.15)) * draw(st.sampled_from([1.0, -1.0]))
        near = st.floats(0.5, 2.0).map(
            lambda f: f * SIMPLE_TOL / MAX_SAMPLE_STEP * abs(dth) * math.sin(beta0))
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
    the outgoing strand. Its end sample sits 5e-10 from a sample of the
    first arc, 47 chords away: a far pair, and in its grid cell the later
    run is listed first."""
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1 / 3, 0.0, 0.375),
                                      AffineSegment(1 / 3, 2 / 3, 0.125, 0.0),
                                      AffineSegment(2 / 3, 1.0, 0.125, -0.1875)])
    rise, gap = 2.0 ** -20, 0.5 * SIMPLE_TOL
    beta = ScalarPath.from_segments([AffineSegment(0.0, 1 / 3, 1.0, 0.0),
                                     AffineSegment(1 / 3, 2 / 3, 1.0, 3.0 * rise),
                                     AffineSegment(2 / 3, 1.0, 1.0 + rise, 3.0 * (gap - rise))])
    return MotionPath(theta, beta, Radii(1.0, 1.0))


def test_hairpin_touches_only_across_far_chords():
    # the example below guards the far-pair search only while its touch is
    # a far pair; a change of the sampling rule could move it
    curve = regularize(hairpin())
    touching = _touching_pairs(curve, SIMPLE_TOL)
    assert touching
    assert all(j - i >= 2 * regions._RUN for i, j in touching)
    assert not is_simple(curve)


@settings(max_examples=60, deadline=None)
@given(short_motions())
@example(hairpin())
def test_is_simple_matches_all_pairs_reference(path):
    curve = regularize(path)
    assert is_simple(curve) == _all_pairs_simple(curve)


@pytest.mark.parametrize("snap", [False, True])
def test_box_pairs_match_all_pairs_overlap(snap):
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 80))
        lo = rng.random((n, 3))
        ext = 0.01 + 0.2 * rng.random((n, 3))
        if snap:  # corners on the grid edges
            lo, ext = np.round(lo, 2), np.round(ext, 2)
        hi = lo + ext
        i, j = regions._box_pairs(lo, hi)
        a, b = np.triu_indices(n, 1)
        overlap = np.all((lo[a] <= hi[b]) & (lo[b] <= hi[a]), axis=1)
        assert sorted(zip(i.tolist(), j.tolist())) == list(zip(a[overlap].tolist(),
                                                              b[overlap].tolist()))


def test_box_pairs_of_tiny_boxes_spread_wide():
    # 200 boxes of extent 1e-9 over a unit cube, a quarter of them placed
    # on top of another box; a grid with cells of the box extent would need
    # 1e9 edges per axis
    rng = np.random.default_rng(11)
    lo = rng.random((200, 3))
    lo[150:] = lo[rng.integers(0, 150, 50)] + 5e-10 * rng.random((50, 3))
    hi = lo + 1e-9
    i, j = regions._box_pairs(lo, hi)
    a, b = np.triu_indices(200, 1)
    overlap = np.all((lo[a] <= hi[b]) & (lo[b] <= hi[a]), axis=1)
    assert overlap.sum() >= 50
    assert sorted(zip(i.tolist(), j.tolist())) == list(zip(a[overlap].tolist(),
                                                          b[overlap].tolist()))


RUN = regions._RUN
UNIT = 1e-6   # planar unit of the polylines below: 1000 x SIMPLE_TOL


def polyline_curve(points):
    """An open one-arc curve through the planar points (x, y), in UNITs,
    carried onto the sphere near (1, 0, 0) by central projection. Only g,
    arcs and closed, which is all is_simple reads, are meaningful. Chord
    sag at this scale is about 1e-13, so chords that cross in the plane
    touch on the sphere and strands half a unit apart stay 5e-7 apart."""
    xy = UNIT * np.asarray(points, dtype=float)
    g = np.column_stack([np.ones(len(xy)), xy])
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    zeros = np.zeros(len(g))
    return RegularizedCurve(
        epsilon=EPS, t=np.linspace(0.0, 1.0, len(g)), s=zeros, theta=zeros,
        beta_eps=zeros, g=g, phi=zeros, kappa_g=zeros, arcs=((0, len(g)),),
        junctions=(), total_length=0.0, closed=False)


def crossing_polyline(i, j, m, cross=True):
    """m chords along y = 0 up to chord i, then a loop whose chord j runs
    down x = i + 1/2 across chord i (or stops short of it). The crossing
    pair (i, j) is the only touching pair."""
    points = [(x, 0.0) for x in range(i + 2)]
    up = (j - i - 2) // 2                  # loop: up, one step left, down
    down = j - i - 2 - up
    points += [(i + 1.0, float(y)) for y in range(1, up + 1)]
    points += [(i + 0.5, up - (up - 0.5) * k / down) for k in range(down + 1)]
    if cross:   # chord j and a tail straight down
        points += [(i + 0.5, -0.5 - y) for y in range(m - j)]
    else:       # chord j stops above y = 0; the tail runs left above it
        points += [(i + 0.5 - x, 0.25) for x in range(m - j)]
    assert len(points) == m + 1
    return polyline_curve(points)


def retrace_polyline():
    """20 chords right, 5 back along them, then 20 up: every touching pair
    lies 2 to 11 chords apart, inside the near offsets."""
    points = ([(x, 0.0) for x in range(21)] + [(x, 0.0) for x in range(19, 14, -1)]
              + [(15.0, float(y)) for y in range(1, 21)])
    return polyline_curve(points)


def test_retrace_touches_at_near_offsets_only():
    curve = retrace_polyline()
    offsets = {j - i for i, j in _touching_pairs(curve)}
    assert min(offsets) == 2 and max(offsets) < 2 * RUN
    assert len(curve) - 1 >= 2 * RUN
    assert not is_simple(curve) and not _all_pairs_simple(curve)


@pytest.mark.parametrize("name", ["i", "iii", "vi"])
def test_a_curve_shorter_than_tol_measures_only_near_pairs(name, monkeypatch):
    # at eps = 1e-20 the clamp circle, thousands of chords, lies within
    # 1e-19 of the pole: its far pairs would number tens of millions
    measured = []
    distance = regions._segment_pair_distance

    def counted(p1, q1, p2, q2):
        measured.append(len(p1))
        return distance(p1, q1, p2, q2)

    monkeypatch.setattr(regions, "_segment_pair_distance", counted)
    curve = regularize(gallery(name), 1e-20)
    assert not is_simple(curve)
    assert len(measured) == 1 and measured[0] <= 2 * RUN * len(curve)


@pytest.mark.parametrize("i,j,m", [
    (RUN - 1, 3 * RUN - 1, 4 * RUN),      # runs 0 and 2, both run ends
    (RUN, 3 * RUN, 4 * RUN),              # runs 1 and 3, both run starts
    (RUN - 1, 3 * RUN - 2, 4 * RUN),      # runs 0 and 2, the last near offset
    (RUN, 3 * RUN + 2, 3 * RUN + 3),      # the last, partial run
    (0, 2 * RUN + 1, 2 * RUN + 2),        # three runs, the fewest with far pairs
    (1, RUN + 3, 2 * RUN - 1),            # fewer than 2 RUN chords
    (0, 4, 7),                            # fewer than RUN chords
])
@pytest.mark.parametrize("cross", [True, False])
def test_is_simple_at_run_boundaries(i, j, m, cross):
    curve = crossing_polyline(i, j, m, cross)
    assert len(curve) - 1 == m
    assert _touching_pairs(curve) == ({(i, j)} if cross else set())
    assert is_simple(curve) == _all_pairs_simple(curve) == (not cross)


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


@pytest.mark.parametrize("cross", [True, False])
def test_hand_built_polylines_read_the_same_as_rows(cross):
    for curve in (crossing_polyline(RUN, 3 * RUN, 4 * RUN, cross),
                  crossing_polyline(0, 4, 7, cross), retrace_polyline()):
        assert curve.g.flags.c_contiguous
        assert is_simple(_relaid(curve, rows=True)) == is_simple(curve)
