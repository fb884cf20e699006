"""The rotation-angle engine: all geometric-phase routes and reconciliation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geophase import (DEFAULT_EPSILON, AffineSegment, ConstantSegment,
                      MotionPath, Radii, SampledSegment, ScalarPath,
                      Tolerances, berry_holonomy, classify_poles,
                      concatenate_paths, dynamical_phase,
                      geometric_phase_area, geometric_phase_baumkuchen,
                      geometric_phase_curvature, geometric_phase_line,
                      is_simple, monopole_holonomy, regularize,
                      reverse_path, simulate_rolling, total_rotation)
from geophase import gauge, phases, regions, sphere
from geophase.errors import CurveNotClosed, MethodDisagreement
from geophase.sphere import cached_regularize
from conftest import (COIN_RADII, FROZEN, TABLE_RADII, affine_lap,
                      backtracking_sampled_path, closed_motions,
                      eps_extrapolate, gallery, schedule_at)
from test_acceptance import random_closed_motion

PI = math.pi
TWO_PI = 2.0 * PI


def tent_path():
    """One lap with a tilt that rises and falls; nothing clamps."""
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, TWO_PI)])
    beta = ScalarPath.from_segments([
        AffineSegment(0.0, 0.5, PI / 3.0, 4.0 / 3.0),
        AffineSegment(0.5, 1.0, PI / 3.0 + 2.0 / 3.0, -4.0 / 3.0),
    ])
    return MotionPath(theta, beta, Radii(1.0, 1.0))


@pytest.mark.parametrize("name", list(FROZEN))
def test_dynamical_phase_scales_with_radius_ratio(name):
    swept, *_ = FROZEN[name]
    assert dynamical_phase(gallery(name, TABLE_RADII)) == pytest.approx(
        2.0 * swept, abs=1e-12)
    assert dynamical_phase(gallery(name, COIN_RADII)) == pytest.approx(
        swept, abs=1e-12)


@pytest.mark.parametrize("name", list(FROZEN))
def test_line_phase_matches_closed_forms(name):
    delta_g = FROZEN[name][3]
    assert geometric_phase_line(gallery(name)) == pytest.approx(
        delta_g, abs=1e-12)


def test_line_phase_is_radius_free():
    for radii in (COIN_RADII, TABLE_RADII, Radii(3.0, 2.0)):
        assert geometric_phase_line(gallery("v", radii)) == pytest.approx(
            PI / 2.0, abs=1e-12)


def test_line_phase_antisymmetry_and_additivity():
    path = tent_path()
    value = geometric_phase_line(path)
    assert geometric_phase_line(reverse_path(path)) == pytest.approx(
        -value, abs=1e-12)
    assert geometric_phase_line(concatenate_paths(path, path)) == pytest.approx(
        2.0 * value, abs=1e-12)


def test_baumkuchen_is_exact_on_constant_tilt():
    bounds = geometric_phase_baumkuchen(gallery("i"), 4)
    assert bounds.lower == pytest.approx(TWO_PI, abs=1e-12)
    assert bounds.centre == pytest.approx(TWO_PI, abs=1e-12)
    assert bounds.upper == pytest.approx(TWO_PI, abs=1e-12)
    # piecewise-constant tilt: exact already at N=4 thanks to knot refinement
    bounds = geometric_phase_baumkuchen(gallery("v"), 4)
    assert bounds.centre == pytest.approx(PI / 2.0, abs=1e-12)
    assert bounds.lower <= PI / 2.0 + 1e-12
    assert bounds.upper >= PI / 2.0 - 1e-12


def test_baumkuchen_brackets_and_converges():
    path = tent_path()
    exact = geometric_phase_line(path)
    widths = []
    for n in (10, 100, 1000):
        bounds = geometric_phase_baumkuchen(path, n)
        assert bounds.lower - 1e-12 <= exact <= bounds.upper + 1e-12
        widths.append(bounds.upper - bounds.lower)
    assert widths[0] > widths[1] > widths[2] > 0.0
    # first-order bracket: width shrinks like 1/N
    assert widths[2] < 1e-2
    assert widths[0] / widths[2] > 50.0
    assert geometric_phase_baumkuchen(path, 10**6).centre == pytest.approx(
        exact, abs=1e-9)


def merged_mesh_bounds(path, N):
    """(lower, upper) on np.unique(uniform mesh + knots), read back
    through ScalarPath._at: the definition the bounds route follows."""
    mesh = np.unique(np.concatenate([np.linspace(0.0, 1.0, N + 1),
                                     np.asarray(path.knots)]))
    dtheta = np.diff(schedule_at(path.theta, mesh)[0])
    beta = schedule_at(path.beta, mesh)[0]
    b_left, b_right = beta[:-1], beta[1:]
    cos_hi = np.cos(np.minimum(b_left, b_right))
    cos_lo = np.cos(np.maximum(b_left, b_right))
    pos = dtheta >= 0.0
    return (float(np.sum(np.where(pos, cos_lo, cos_hi) * dtheta)),
            float(np.sum(np.where(pos, cos_hi, cos_lo) * dtheta)))


@pytest.mark.parametrize("N", [1, 2, 3, 7, 1000])
def test_baumkuchen_matches_the_merged_mesh_definition(N):
    path = backtracking_sampled_path()
    bounds = geometric_phase_baumkuchen(path, N)
    got = (bounds.lower, bounds.upper)
    np.testing.assert_allclose(got, merged_mesh_bounds(path, N),
                               rtol=0.0, atol=1e-12)


def test_baumkuchen_matches_the_merged_mesh_on_random_motions():
    rng = np.random.default_rng(20260824)
    for _ in range(10):
        path = random_closed_motion(rng)
        bounds = geometric_phase_baumkuchen(path, 10**6)
        np.testing.assert_allclose((bounds.lower, bounds.upper),
                                   merged_mesh_bounds(path, 10**6),
                                   rtol=0.0, atol=1e-12)


def _lap_with_tilt(*segments):
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, -TWO_PI)])
    return MotionPath(theta, ScalarPath.from_segments(list(segments)),
                      Radii(1.0, 1.0))


ON_NODE = 3 * (1.0 / 7)   # node 3 of np.linspace(0, 1, 8), bit for bit


@pytest.mark.parametrize("segments,N", [
    # a piece with beta' == 0
    ((ConstantSegment(0.0, 0.4, 1.0), AffineSegment(0.4, 1.0, 1.0, 1.5)),
     1000),
    # pieces [0.3001, 0.3004] and [0.3004, 0.3007] hold no uniform node
    ((SampledSegment(0.0, 1.0, np.array([0.0, 0.3001, 0.3004, 0.3007, 1.0]),
                     np.array([0.5, 2.5, 0.7, 1.9, 1.1])),), 1000),
    # a knot exactly on a uniform node
    ((AffineSegment(0.0, ON_NODE, 0.4, 2.0),
      AffineSegment(ON_NODE, 1.0, 0.4 + 2.0 * ON_NODE, -1.0)), 7),
    # one uniform interval: no piece holds an inner node
    ((SampledSegment(0.0, 1.0, np.array([0.0, 0.3001, 0.3004, 1.0]),
                     np.array([0.5, 2.5, 0.7, 1.1])),), 1),
], ids=["flat-tilt", "no-inner-node", "knot-on-node", "N=1"])
def test_baumkuchen_edge_pieces_match_the_merged_mesh(segments, N):
    assert ON_NODE == np.linspace(0.0, 1.0, 8)[3]
    path = _lap_with_tilt(*segments)
    bounds = geometric_phase_baumkuchen(path, N)
    np.testing.assert_allclose((bounds.lower, bounds.upper),
                               merged_mesh_bounds(path, N),
                               rtol=0.0, atol=1e-12)


def test_baumkuchen_route_reads_the_bracket_centre():
    # on the first 32 simple random laps the centre at the default N = 1e6
    # lies within 1.1e-11 of line; the left-endpoint sum lay 1.2e-5 off
    rng = np.random.default_rng(20260823)
    accepted = 0
    while accepted < 32:
        path = random_closed_motion(rng)
        if not is_simple(regularize(path)):
            continue
        accepted += 1
        values = total_rotation(path, methods=("baumkuchen",)).delta_g_by_method
        assert abs(values["baumkuchen"] - values["line"]) <= 1e-9


def test_baumkuchen_rejects_empty_mesh():
    with pytest.raises(ValueError):
        geometric_phase_baumkuchen(gallery("i"), 0)


def test_baumkuchen_rejects_a_mesh_finer_than_the_floats():
    # past 2**53 the nodes k / N stop being distinct floats
    with pytest.raises(ValueError, match=r"2\*\*53"):
        geometric_phase_baumkuchen(gallery("vi"), 10**24)
    assert geometric_phase_baumkuchen(gallery("vi"), 2**53).centre == \
        pytest.approx(-1.5 * PI, abs=1e-9)


def test_eps_extrapolation_recovers_affine_functions_of_cap_height():
    # f(eps) = c0 + c1 (1 - cos eps) must extrapolate to c0 exactly
    c0, c1, eps = 0.7, -2.3, DEFAULT_EPSILON
    f = lambda e: c0 + c1 * (1.0 - math.cos(e))
    assert eps_extrapolate(eps, f(eps), f(eps / 2.0)) == pytest.approx(
        c0, abs=1e-12)


@pytest.mark.parametrize("name", list(FROZEN))
def test_area_route_matches_frozen_values(name):
    delta_g = FROZEN[name][3]
    assert geometric_phase_area(gallery(name)) == pytest.approx(
        delta_g, abs=1e-5)


@pytest.mark.parametrize("name", list(FROZEN))
def test_curvature_route_matches_frozen_values(name):
    delta_g = FROZEN[name][3]
    assert geometric_phase_curvature(gallery(name)) == pytest.approx(
        delta_g, abs=1e-5)


def test_area_route_without_extrapolation_shows_the_clamp_bias():
    # tilt pinned at 0 rides the clamp circle; the bias is the clipped cap,
    # which eps_limit adds back as the sliver
    eps = DEFAULT_EPSILON
    path = gallery("i")
    curve = cached_regularize(path, eps)
    i_plus, _ = classify_poles(curve)
    at_eps = regions.region_areas(curve)[0] - TWO_PI * i_plus
    assert at_eps == pytest.approx(TWO_PI * math.cos(eps), abs=2e-6)
    assert phases.eps_limit(path, curve, at_eps) == geometric_phase_area(path)
    assert geometric_phase_area(path) == pytest.approx(TWO_PI, abs=1e-5)


def test_area_route_is_epsilon_robust():
    for eps in (DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0):
        assert geometric_phase_area(gallery("vi"), eps=eps) == pytest.approx(
            -1.5 * PI, abs=1e-5)


@pytest.mark.parametrize("name", ["iv", "vi"])
def test_area_route_reads_no_curvature_or_junction_angle(name, monkeypatch):
    """With the curvature integral, the junction-angle sum and the sampled
    kappa_g all garbage, the area route still matches line and the
    curvature route, which reads them, moves."""
    path = gallery(name)
    line = geometric_phase_line(path)
    curvature = geometric_phase_curvature(path)
    # the routes import these from regions when they run
    monkeypatch.setattr(regions, "curvature_integral", lambda curve: 1e3)
    monkeypatch.setattr(regions, "turning_angle_sum", lambda curve: -7.0)
    cached_regularize(path, DEFAULT_EPSILON).kappa_g[:] = np.nan
    assert geometric_phase_area(path) == pytest.approx(
        line, abs=Tolerances().analytic)
    assert abs(geometric_phase_curvature(path) - curvature) > 1.0


@pytest.mark.parametrize("name", ["iv", "vi"])
def test_no_route_reads_the_tangent_angle(name):
    """phi is computed on first read, and no route reads it: with the
    sampled phi all NaN, every route keeps its value bit for bit."""
    path = gallery(name, TABLE_RADII)
    before = total_rotation(path, phases.METHOD_NAMES)
    curve = cached_regularize(path, DEFAULT_EPSILON)
    assert "phi" not in vars(curve)
    curve.phi[:] = np.nan
    after = total_rotation(path, phases.METHOD_NAMES)
    assert after.delta_g_by_method == before.delta_g_by_method
    assert after.region == before.region


def test_closed_curve_required():
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, PI)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, PI / 2.0)])
    path = MotionPath(theta, beta, Radii(1.0, 1.0))
    with pytest.raises(CurveNotClosed):
        geometric_phase_area(path)
    with pytest.raises(CurveNotClosed):
        geometric_phase_curvature(path)


def test_total_rotation_reconciles_all_methods():
    result = total_rotation(gallery("vi", TABLE_RADII),
                            methods=("line", "baumkuchen", "area", "curvature",
                                     "monopole", "berry", "oracle"),
                            baumkuchen_n=10**5, oracle_steps=1_000)
    assert set(result.delta_g_by_method) == {
        "line", "baumkuchen", "area", "curvature", "monopole", "berry",
        "oracle"}
    assert result.n == -1
    assert result.delta_d == pytest.approx(-4.0 * PI, abs=1e-12)
    assert result.delta_total == pytest.approx(-5.5 * PI, abs=1e-9)
    for name, value in result.delta_g_by_method.items():
        assert value == pytest.approx(-1.5 * PI, abs=1e-3), name
    assert result.max_discrepancy < 1e-3
    assert result.region is not None
    assert result.warnings == ()


def test_total_rotation_rejects_unknown_method():
    with pytest.raises(ValueError):
        total_rotation(gallery("ii"), methods=("line", "psychic"))


def test_total_rotation_flags_disagreement_under_tight_tolerances():
    # the bounds route's centre at N = 1000 lies 5.0e-6 off the line value
    # on the first random-crosscheck motion; a 1e-9 budget turns that
    # residue into a hard failure
    path = random_closed_motion(np.random.default_rng(20260823))
    with pytest.raises(MethodDisagreement):
        total_rotation(path, methods=("line", "baumkuchen"),
                       tolerances=Tolerances(analytic=1e-9), baumkuchen_n=1000)


def test_total_rotation_oracle_entry_is_comparable():
    result = total_rotation(gallery("ii"), methods=("line", "oracle"),
                            oracle_steps=1_000)
    assert result.delta_g_by_method["oracle"] == pytest.approx(
        result.delta_g_by_method["line"], abs=1e-4)


def test_disagreement_carries_the_finished_result():
    # a one-interval mesh leaves the bounds route 4.352e-2 off the line and
    # area values on the tent lap
    with pytest.raises(MethodDisagreement) as info:
        total_rotation(tent_path(), methods=("line", "baumkuchen", "area"),
                       baumkuchen_n=1)
    result = info.value.result
    bad = [r for r in result.discrepancies if not r["ok"]]
    assert [(r["first"], r["second"]) for r in bad] == [
        ("line", "baumkuchen"), ("baumkuchen", "area")]
    row = bad[0]
    assert row["tolerance"] == Tolerances().analytic
    assert row["difference"] == pytest.approx(4.352e-2, abs=1e-5)
    assert row["difference"] == abs(result.delta_g_by_method["line"]
                                    - result.delta_g_by_method["baumkuchen"])
    assert result.max_discrepancy == max(r["difference"] for r in bad)
    # the area value and the region report come from one solid angle
    region = result.region
    assert result.delta_g_by_method["area"] == pytest.approx(
        region.A_plus - TWO_PI * region.I_plus, abs=1e-12)
    worst = max(bad, key=lambda r: r["difference"])
    assert f"{worst['first']} vs {worst['second']} differ by" in str(info.value)


@pytest.mark.parametrize("nan_route", ["area", "curvature"])
def test_max_discrepancy_is_nan_whatever_the_row_order(nan_route, monkeypatch):
    # a NaN curvature's first row comes after the finite line-area row
    monkeypatch.setattr(phases, f"geometric_phase_{nan_route}",
                        lambda path, eps: float("nan"))
    with pytest.raises(MethodDisagreement) as info:
        total_rotation(gallery("ii"), methods=("line", "area", "curvature"))
    assert math.isnan(info.value.result.max_discrepancy)


def test_route_failures_are_recorded_not_raised():
    # two laps with a tilt tent cross themselves: the clamped-curve routes
    # refuse, the line and bounds routes still compare
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, 2 * TWO_PI)])
    beta = ScalarPath.from_segments([
        AffineSegment(0.0, 0.5, PI / 2.0, 1.0),
        AffineSegment(0.5, 1.0, PI / 2.0 + 0.5, -1.0),
    ])
    path = MotionPath(theta, beta, Radii(1.0, 1.0))
    result = total_rotation(path, methods=("baumkuchen", "area", "curvature"),
                            baumkuchen_n=10**4)
    assert set(result.delta_g_by_method) == {"line", "baumkuchen"}
    assert {name: type(exc).__name__ for name, exc in result.errors.items()} == {
        "area": "CurveNotSimple", "curvature": "CurveNotSimple"}
    assert result.region is None
    assert [(r["first"], r["second"]) for r in result.discrepancies] == [
        ("line", "baumkuchen")]


def test_line_only_has_nothing_to_compare():
    result = total_rotation(gallery("ii"), methods=("line",))
    assert result.discrepancies == ()
    assert result.max_discrepancy is None
    assert result.errors == {}


# ---------------------------------------------------------------------------
# one clamp level plus the exact clipped sliver


@pytest.mark.parametrize("name", list(FROZEN))
def test_total_rotation_asks_for_eps_half_only_where_the_clamp_bites(
        name, monkeypatch):
    """No route asks for a second clamp level: every clamped curve and
    clamped piece list is requested at eps alone, where the clamp bites
    (i, iii, v, vi) and where it does not (ii, iv)."""
    asked = set()

    def spy(fn):
        def wrapper(path, eps):
            asked.add(eps)
            return fn(path, eps)
        return wrapper

    for module, attr in ((sphere, "cached_regularize"),
                         (gauge, "clamped_affine_pieces")):
        monkeypatch.setattr(module, attr, spy(getattr(module, attr)))
    total_rotation(gallery(name),
                   methods=("line", "area", "curvature", "monopole", "berry"))
    assert asked == {DEFAULT_EPSILON}


@pytest.mark.parametrize("name", list(FROZEN))
def test_the_routes_leave_arc_length_unread(name):
    # no route reads s or total_length on the gallery or on a pool lap, so
    # regularize never builds them
    paths = [gallery(name, radii) for radii in (TABLE_RADII, COIN_RADII)]
    paths.append(random_closed_motion(np.random.default_rng(20260823)))
    for path in paths:
        total_rotation(path, methods=("line", "area", "curvature"))
        fields = vars(cached_regularize(path, DEFAULT_EPSILON))
        assert "s" not in fields and "total_length" not in fields


def clamp_circle_hairpin(mirror, negate, reverse):
    """A lap whose tilt rises to 4.2e-12 below the north pole at t = 1/2
    while theta backs off to -0.7815 and then turns forward: clamped at eps
    = 4.99e-3 the curve runs back and forth along the clamp circle, whose
    two clamped pieces meet in an exact reversal. mirror moves it to the
    south cap, negate flips theta, reverse runs it backwards."""
    theta = [0.0, -0.7815, TWO_PI]
    beta = [1.2397, PI - 4.2e-12, 1.2397]
    if negate:
        theta = [-x for x in theta]
    if mirror:
        beta = [PI - b for b in beta]
    lap = affine_lap(theta, beta)
    lap = MotionPath(lap.theta, lap.beta, TABLE_RADII)
    return reverse_path(lap) if reverse else lap


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("reverse", [False, True])
def test_a_reversal_on_the_clamp_circle_turns_with_the_raw_corner(
        mirror, negate, reverse):
    # the junction of the two clamp-circle pieces turns by +-pi, signed as
    # the raw corner turns; counting every reversal as +pi put curvature
    # 2 pi off line on half of these
    path = clamp_circle_hairpin(mirror, negate, reverse)
    result = total_rotation(path, methods=("line", "area", "curvature",
                                           "monopole", "berry"), eps=4.99e-3)
    values = result.delta_g_by_method
    assert result.errors == {}
    assert abs(values["curvature"] - values["line"]) <= 1e-9


CLAMPED_ROUTES = {"area": geometric_phase_area,
                  "curvature": geometric_phase_curvature}
# monopole and berry run on the raw motion, with no eps to vary
ROUTES = {**CLAMPED_ROUTES, "monopole": monopole_holonomy,
          "berry": berry_holonomy}


@pytest.mark.parametrize("dip,examples", [(False, 10), (True, 5)])
def test_reversal_negates_and_radii_leave_delta_g(dip, examples):
    """Both eps branches: the time-reversed motion has the opposite
    geometric phase, and other radii leave it unchanged; the oracle's
    geometric part stays within its tolerance of line at radius ratios
    a/b and b/a, a/b log-uniform in [1, 1e2]."""

    @settings(max_examples=examples, deadline=None)
    @given(closed_motions(dip), st.floats(0.0, 2.0))
    def check(path, exponent):
        rescaled = MotionPath(path.theta, path.beta, Radii(2.5, 0.5))
        reverse = reverse_path(path)
        for name, route in ROUTES.items():
            value = route(path)
            assert route(reverse) == pytest.approx(-value, abs=1e-9), name
            assert route(rescaled) == value, name
        line = geometric_phase_line(path)
        for ratio in (10.0 ** exponent, 10.0 ** -exponent):
            scaled = MotionPath(path.theta, path.beta, Radii(ratio, 1.0))
            oracle = simulate_rolling(scaled).delta_oracle - dynamical_phase(scaled)
            assert oracle == pytest.approx(line, abs=Tolerances().oracle), ratio

    check()


# three affine pieces whose tilt corner sits 0.049 from the north pole,
# inside the clamp band, where extrapolating in 1 - cos(eps) from eps and
# eps/2 misses line by 1.2e-3
V_DIP_LAP = affine_lap([0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0, TWO_PI],
                       [PI - 0.049, 1.0, 2.0, PI - 0.049])


@settings(max_examples=25, deadline=None)
@given(closed_motions(dip=True))
@example(V_DIP_LAP)
def test_clamped_routes_agree_with_line_on_dips(path):
    line = geometric_phase_line(path)
    for name, route in ROUTES.items():
        assert route(path) == pytest.approx(line, abs=Tolerances().analytic), name


EPS_LEVELS = (PI / 10.0, PI / 16.0, PI / 32.0)


def _eps_spread(path):
    return {name: np.ptp([route(path, eps=eps) for eps in EPS_LEVELS])
            for name, route in CLAMPED_ROUTES.items()}


@pytest.mark.parametrize("name", list(FROZEN))
def test_delta_g_does_not_depend_on_eps_on_the_gallery(name):
    for route, spread in _eps_spread(gallery(name)).items():
        assert spread <= 1e-6, route


@settings(max_examples=10, deadline=None)
@given(closed_motions(dip=True) | closed_motions())
def test_delta_g_does_not_depend_on_eps(path):
    for route, spread in _eps_spread(path).items():
        assert spread <= 1e-6, route


@settings(max_examples=30, deadline=None)
@given(closed_motions(dip=True) | closed_motions())
def test_area_and_curvature_keep_fourth_order_accuracy(path):
    # the Romberg area and the Gauss-Legendre curvature integral lie within
    # 9.8e-13 and 2.3e-15 of the line value on 600 generated laps; 1e-8
    # leaves room for rounding but not for a sampling step that gives the
    # accuracy back
    line = geometric_phase_line(path)
    for eps in (DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0):
        assert geometric_phase_area(path, eps) == pytest.approx(line, abs=1e-8)
        assert geometric_phase_curvature(path, eps) == pytest.approx(line, abs=1e-8)


@pytest.mark.parametrize("eps", [1e-6, 1e-4])
@pytest.mark.parametrize("name", ["i", "v"])
def test_clamped_routes_agree_with_line_at_small_eps(name, eps):
    """With the clamped curve eps from a pole, the two pole fans still agree."""
    path = gallery(name)
    line = geometric_phase_line(path)
    for route_name, route in CLAMPED_ROUTES.items():
        assert route(path, eps=eps) == pytest.approx(
            line, abs=Tolerances().analytic), route_name


@pytest.mark.parametrize("eps", [1e-7, 1e-20, 1e-100])
@pytest.mark.parametrize("name", ["i", "iii", "v", "vi"])
def test_area_and_curvature_hold_at_every_documented_eps(name, eps):
    """Below eps = 1e-9 the clamp circle is shorter than the simplicity
    check's L = SIMPLE_LENGTH and joins its neighbours without touching
    them, and the pole clearance is checked against eps / 2. The monopole
    route does not clamp, so eps cannot put its nodes on an excluded ray."""
    result = total_rotation(gallery(name, TABLE_RADII),
                            ("line", "area", "curvature", "monopole"), eps=eps)
    assert result.errors == {}
    values = result.delta_g_by_method
    for route in ("area", "curvature", "monopole"):
        assert values[route] == pytest.approx(values["line"], abs=1e-9), route


@pytest.mark.parametrize("gap", [5e-10, 9e-10])
def test_a_lap_closed_within_the_closure_tolerance_runs_every_route(gap):
    """theta ends gap past one turn and beta gap above its start, so
    topology_report calls the lap closed while its Gauss vector ends up to
    1.3e-9 from where it began; the curve has to count as closed too."""
    path = MotionPath(
        ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, TWO_PI + gap)]),
        ScalarPath.from_segments([AffineSegment(0.0, 1.0, PI / 2.0, gap)]),
        TABLE_RADII)
    routes = ("area", "curvature", "monopole", "berry")
    result = total_rotation(path, ("line",) + routes)
    assert result.errors == {}
    values = result.delta_g_by_method
    for route in routes:
        assert values[route] == pytest.approx(values["line"], abs=1e-12), route


@pytest.mark.parametrize("name", list(FROZEN))
def test_the_monopole_route_ignores_eps(name):
    path = gallery(name, TABLE_RADII)
    at = [total_rotation(path, ("line", "monopole"), eps=eps)
          .delta_g_by_method["monopole"] for eps in (PI / 16.0, 1e-100)]
    assert at[0] == at[1]


def test_line_keeps_its_digits_on_a_nearly_flat_tilt_piece():
    # the middle piece's tilt moves by one ulp; as a plain difference,
    # sin(b1) - sin(b0) lost every digit there and line was off by 4e-2
    b, end = 2.935425635697963, 3.043417883165112
    knots = [0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0, TWO_PI]
    nearly = affine_lap(knots, [end, b, math.nextafter(b, 0.0), end])
    flat = affine_lap(knots, [end, b, b, end])
    assert nearly.beta.rates[1] != 0.0
    assert geometric_phase_line(nearly) == pytest.approx(
        geometric_phase_line(flat), abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(closed_motions(dip=True) | closed_motions())
def test_running_a_motion_twice_doubles_delta_g(path):
    double = concatenate_paths(path, path)
    for route in (geometric_phase_line, monopole_holonomy, berry_holonomy):
        assert route(double) == pytest.approx(2.0 * route(path), abs=1e-6), (
            route.__name__)


def test_a_stationary_motion_gets_zero_from_every_route():
    # theta stays 0 and the tilt 1: a closed motion whose curve is one
    # point, which encloses nothing and has no tangent to turn
    path = MotionPath(ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 0.0)]),
                      ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)]),
                      TABLE_RADII)
    routes = ("line", "baumkuchen", "area", "curvature", "monopole", "berry")
    result = total_rotation(path, routes)
    assert result.errors == {}
    assert result.delta_g_by_method == dict.fromkeys(routes, 0.0)
    assert (result.region.I_plus, result.region.A_plus) == (0, 0.0)


def _laps_past_the_cap(per_lap):
    """The fewest whole laps whose count, per_lap a lap, passes
    MAX_PIECE_SAMPLES."""
    return math.floor(sphere.MAX_PIECE_SAMPLES / per_lap) + 1


# a latitude lap at tilt 1 repeated past the cap of the sampled curve (its
# step rule, _piece_steps) and past the cap of the transport intervals
# (berry_holonomy's rule)
_STEP = min(sphere.MAX_SAMPLE_STEP, sphere._KAPPA_STEP * math.sin(1.0))
_CAPPED_LAPS = {
    "curve": (_laps_past_the_cap(TWO_PI * math.sin(1.0) / _STEP),
              ("area", "curvature")),
    "transport": (_laps_past_the_cap(TWO_PI / gauge._TRANSPORT_STEP),
                  ("area", "curvature", "berry")),
}


@pytest.mark.parametrize("cap", list(_CAPPED_LAPS))
def test_total_rotation_records_the_size_caps_per_route(cap):
    # every route runs on a valid motion; one past a size cap records
    # TooManySamples with the count it needed, and none raises ValueError
    laps, capped = _CAPPED_LAPS[cap]
    path = MotionPath(
        ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, TWO_PI * laps)]),
        ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)]), TABLE_RADII)
    result = total_rotation(path, phases.METHOD_NAMES)
    for name in capped:
        error = result.errors[name]
        assert type(error).__name__ == "TooManySamples", name
        assert error.value > error.tol == sphere.MAX_PIECE_SAMPLES, name
    line = result.delta_g_by_method["line"]
    assert result.delta_g_by_method["monopole"] == pytest.approx(line, abs=1e-9)
