"""Left/right region analysis: simplicity, pole counts, areas."""

import math

import pytest

from geophase import (DEFAULT_EPSILON, AffineSegment, MotionPath, Radii,
                      ScalarPath, classify_poles, curvature_integral,
                      default_seed, is_simple, regularize, region_areas,
                      region_report, turning_angle_sum)
from geophase import regions, total_rotation
from geophase.errors import CurveNotClosed, CurveNotSimple, DegenerateArc
from conftest import gallery

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
        got_p, got_m, _ = classify_poles(regularize(gallery(name)))
        assert (got_p, got_m) == (ip, im), name
        assert got_p + got_m == 2


def test_pole_counts_stable_under_smaller_clamp():
    for name in EXPECTED_COUNTS:
        path = gallery(name)
        full = classify_poles(regularize(path, EPS))[:2]
        half = classify_poles(regularize(path, EPS / 2.0))[:2]
        assert full == half, name


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
    curve = regularize(gallery(name))
    a_gb, a_gb_minus = region_areas(curve, "gauss_bonnet")
    a_cap, _ = region_areas(curve, "cap_formula")
    # the boundary-integral route carries the curvature quadrature bias
    assert a_gb == pytest.approx(a_plus_eps, abs=2e-6)
    assert a_cap == pytest.approx(a_plus_eps, abs=1e-12)
    assert a_gb + a_gb_minus == pytest.approx(4.0 * PI, abs=1e-12)


def test_monte_carlo_area_close_to_gauss_bonnet():
    for name in ("ii", "iv", "v", "vi"):
        curve = regularize(gallery(name))
        a_gb, _ = region_areas(curve, "gauss_bonnet")
        a_mc, a_mc_minus = region_areas(curve, "monte_carlo",
                                        samples=200_000, seed=default_seed())
        assert a_mc == pytest.approx(a_gb, abs=0.05), name
        assert a_mc + a_mc_minus == pytest.approx(4.0 * PI, abs=1e-12)


def test_monte_carlo_is_deterministic_for_a_seed():
    curve = regularize(gallery("v"))
    one = region_areas(curve, "monte_carlo", samples=50_000, seed=123)
    two = region_areas(curve, "monte_carlo", samples=50_000, seed=123)
    other = region_areas(curve, "monte_carlo", samples=50_000, seed=124)
    assert one == two
    assert one != other


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
    report = region_report(regularize(gallery("vi")))
    assert report.simple
    assert (report.I_plus, report.I_minus) == (1, 1)
    assert report.area_method == "gauss_bonnet"
    assert report.A_plus + report.A_minus == pytest.approx(4.0 * PI, abs=1e-12)


def test_default_seed_reads_environment(monkeypatch):
    monkeypatch.delenv("GEOPHASE_SEED", raising=False)
    base = default_seed()
    monkeypatch.setenv("GEOPHASE_SEED", "12345")
    assert default_seed() == 12345
    monkeypatch.delenv("GEOPHASE_SEED")
    assert default_seed() == base


def test_degenerate_classification_raises_degenerate_arc(monkeypatch):
    monkeypatch.setattr(regions, "_arc_crossings", lambda curve, a, b: None)
    with pytest.raises(DegenerateArc):
        classify_poles(regularize(gallery("ii")))
    result = total_rotation(gallery("ii"), methods=("line", "area"))
    assert isinstance(result.errors["area"], DegenerateArc)
    assert set(result.delta_g_by_method) == {"line"}
