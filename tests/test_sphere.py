"""Tilt-vector geometry: frames, clamping, curvature, cusps, offsets."""

import math

import numpy as np
import pytest

from geophase import (DEFAULT_EPSILON, AffineSegment, ConstantSegment,
                      MotionPath, Radii, SampledSegment, ScalarPath,
                      curvature_integral, detect_cusps, frame_vectors,
                      gauss_vector, offset_length, offset_length_derivative,
                      regularize)
from geophase import sphere
from geophase.errors import CurveHasCusps, EpsilonOutOfRange
from conftest import clamp_path, gallery

PI = math.pi
TWO_PI = 2.0 * PI


def test_gauss_vector_landmarks():
    np.testing.assert_allclose(gauss_vector(0.0, 0.0), [0.0, 0.0, -1.0],
                               atol=1e-15)
    np.testing.assert_allclose(gauss_vector(0.0, PI), [0.0, 0.0, 1.0],
                               atol=1e-15)
    np.testing.assert_allclose(gauss_vector(0.0, PI / 2.0), [1.0, 0.0, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(gauss_vector(PI / 2.0, PI / 2.0),
                               [0.0, 1.0, 0.0], atol=1e-15)


def test_frame_orthonormal_at_many_random_points():
    rng = np.random.default_rng(42)
    n = 1_000_000
    th = rng.uniform(-10.0, 10.0, n)
    be = rng.uniform(0.0, PI, n)
    e1, e2, e3 = frame_vectors(th, be)
    for v in (e1, e2, e3):
        np.testing.assert_allclose(np.einsum("ij,ij->i", v, v), 1.0,
                                   atol=1e-12)
    for u, v in ((e1, e2), (e1, e3), (e2, e3)):
        assert np.max(np.abs(np.einsum("ij,ij->i", u, v))) < 1e-12
    # right-handed: e1 x e2 = e3 and cyclic
    assert np.max(np.linalg.norm(np.cross(e1, e2) - e3, axis=1)) < 1e-12
    assert np.max(np.linalg.norm(np.cross(e2, e3) - e1, axis=1)) < 1e-12
    assert np.max(np.linalg.norm(np.cross(e3, e1) - e2, axis=1)) < 1e-12
    assert np.max(np.linalg.norm(gauss_vector(th, be) - e3, axis=1)) < 1e-12


def test_metric_matches_finite_differences():
    # |dg|^2 = sin(beta)^2 dtheta^2 + dbeta^2
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(300):
        t0 = rng.uniform(0.0, 2.0 * TWO_PI)
        b0 = rng.uniform(0.2, PI - 0.2)
        dt, db = rng.normal(size=2)
        gdot = (gauss_vector(t0 + h * dt, b0 + h * db)
                - gauss_vector(t0 - h * dt, b0 - h * db)) / (2.0 * h)
        lhs = float(gdot @ gdot)
        rhs = math.sin(b0) ** 2 * dt * dt + db * db
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_epsilon_domain():
    with pytest.raises(EpsilonOutOfRange):
        regularize(gallery("i"), eps=0.0)
    with pytest.raises(EpsilonOutOfRange):
        regularize(gallery("i"), eps=PI / 8.0 + 0.01)


def test_clamp_path_limits_beta():
    eps = DEFAULT_EPSILON
    clamped = clamp_path(gallery("v"), eps)
    ts = np.linspace(0.0, 1.0, 1001)
    be = clamped.beta.values(ts)
    assert float(be.min()) >= eps - 1e-12
    assert float(be.max()) <= PI - eps + 1e-12


@pytest.mark.parametrize("name,length", [
    ("i", TWO_PI * math.sin(DEFAULT_EPSILON)),
    ("ii", TWO_PI),
    ("iii", TWO_PI * math.sin(DEFAULT_EPSILON)),
    ("iv", TWO_PI * math.sin(PI / 3.0)),
])
def test_latitude_circle_lengths(name, length):
    curve = regularize(gallery(name))
    assert curve.closed
    assert curve.total_length == pytest.approx(length, abs=1e-9)


def test_sampling_density_cap():
    curve = regularize(gallery("vi"))
    chord = np.linalg.norm(np.diff(curve.g, axis=0), axis=1)
    # adjacent samples subtend well under 1e-2 rad everywhere
    assert float(chord.max()) < 1e-2


def test_geodesic_curvature_on_latitudes_and_meridians():
    curve = regularize(gallery("iv"))   # latitude beta0 = pi/3, theta rising
    mid = len(curve.t) // 2
    assert curve.kappa_g[mid] == pytest.approx(
        -1.0 / math.tan(PI / 3.0), rel=1e-6)

    # pure meridian sweep: a great-circle arc, kappa_g = 0
    theta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 0.0)])
    beta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.5, 2.0)])
    arc = regularize(MotionPath(theta, beta, Radii(1.0, 1.0)))
    assert abs(arc.kappa_g[len(arc.t) // 2]) < 1e-9


def test_cusp_detection_on_square_wave_motions():
    for name, signs in (("v", [1, 1, 1, 1]), ("vi", [-1, 1, 1, -1])):
        curve = regularize(gallery(name))
        cusps = detect_cusps(curve)
        assert len(cusps) == 4
        for cusp, sign in zip(cusps, signs):
            assert cusp.alpha == pytest.approx(sign * PI / 2.0, abs=1e-9)
    assert detect_cusps(regularize(gallery("ii"))) == ()


def test_backtracking_curve_has_pi_cusps():
    theta = ScalarPath.from_segments([AffineSegment(0.0, 0.5, 0.0, TWO_PI),
                                      AffineSegment(0.5, 1.0, PI, -TWO_PI)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, PI / 2.0)])
    curve = regularize(MotionPath(theta, beta, Radii(1.0, 1.0)))
    cusps = detect_cusps(curve)
    assert len(cusps) == 2
    for cusp in cusps:
        assert cusp.alpha == pytest.approx(PI, abs=1e-9)


def test_turning_identity_per_sample_step():
    # d(phi) = kappa_g ds + cos(beta) d(theta) along every smooth sub-arc
    for name in ("i", "ii", "iii", "iv", "v", "vi"):
        curve = regularize(gallery(name))
        worst = 0.0
        for i0, i1 in curve.arcs:
            dphi = np.diff(curve.phi[i0:i1])
            ds = np.diff(curve.s[i0:i1])
            dth = np.diff(curve.theta[i0:i1])
            kg = curve.kappa_g[i0:i1]
            cb = np.cos(curve.beta_eps[i0:i1])
            mid_k = 0.5 * (kg[:-1] + kg[1:])
            mid_c = 0.5 * (cb[:-1] + cb[1:])
            resid = dphi - mid_k * ds - mid_c * dth
            if resid.size:
                worst = max(worst, float(np.max(np.abs(resid))))
        assert worst < 1e-6, f"{name}: worst step residual {worst:.3e}"


def sampled_cusp_path():
    """Backtracking theta and a tilt that dips into both clamp caps, both
    as sampled segments, so cusps and clamp cuts fall inside them."""
    theta = ScalarPath.from_segments([SampledSegment(
        0.0, 1.0, np.array([0.0, 0.3, 0.6, 1.0]),
        np.array([0.0, 2.0, 1.0, TWO_PI]))])
    beta = ScalarPath.from_segments([SampledSegment(
        0.0, 1.0, np.array([0.0, 0.2, 0.5, 0.8, 1.0]),
        np.array([0.05, 1.4, 0.9, 3.1, 0.05]))])
    return MotionPath(theta, beta, Radii(1.0, 1.0))


@pytest.mark.parametrize("eps", [DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0])
def test_junction_indices_point_at_the_junction(eps):
    for path in (gallery("v"), gallery("vi"), sampled_cusp_path()):
        curve = regularize(path, eps)
        assert len(curve.junctions) >= 4
        for j in curve.junctions:
            assert curve.t[j.in_index] == j.t
            np.testing.assert_allclose(curve.g[j.in_index],
                                       curve.g[j.out_index],
                                       rtol=0.0, atol=1e-12)


def test_regularize_is_idempotent():
    eps = DEFAULT_EPSILON
    path = gallery("vi")
    direct = regularize(path, eps)
    again = regularize(clamp_path(path, eps), eps)
    assert direct.total_length == pytest.approx(again.total_length, abs=1e-12)
    np.testing.assert_allclose(direct.g, again.g, atol=1e-12)


def test_offset_length_matches_latitude_formula():
    curve = regularize(gallery("iv"))   # latitude circle at beta0 = pi/3
    for q in (0.05, 0.01, -0.02):
        expected = TWO_PI * (math.sin(PI / 3.0) - q * math.cos(PI / 3.0))
        assert offset_length(curve, q) == pytest.approx(expected, abs=1e-7)
    assert offset_length(curve, 0.0) == pytest.approx(curve.total_length)


def test_offset_length_on_equator_is_stationary():
    curve = regularize(gallery("ii"))
    assert offset_length(curve, 0.1) == pytest.approx(TWO_PI, abs=1e-6)
    assert offset_length_derivative(curve) == pytest.approx(0.0, abs=1e-8)


def test_offset_derivative_equals_curvature_integral():
    for name in ("i", "ii", "iii", "iv"):
        curve = regularize(gallery(name))
        lhs = offset_length_derivative(curve)
        rhs = curvature_integral(curve)
        assert lhs == pytest.approx(rhs, abs=1e-5 * max(abs(rhs), 1.0))


def test_offset_length_derivative_equals_the_four_call_formula():
    # the shared tangents and d(nu)/ds give the very same four lengths
    curve = regularize(gallery("iv"))
    h = 1e-3
    d_h = (offset_length(curve, +h) - offset_length(curve, -h)) / (2.0 * h)
    d_h2 = (offset_length(curve, +h / 2) - offset_length(curve, -h / 2)) / h
    assert offset_length_derivative(curve, h) == (4.0 * d_h2 - d_h) / 3.0


def test_offset_refuses_cusped_curves():
    curve = regularize(gallery("v"))
    with pytest.raises(CurveHasCusps):
        offset_length(curve, 0.01)
    with pytest.raises(CurveHasCusps):
        offset_length_derivative(curve)


# sweeps that float spacing still resolves (spacing at most 1.5e-11) but
# that need more than MAX_PIECE_SAMPLES samples
@pytest.mark.parametrize("slope", [2e4, 1e5])
def test_absurd_sweeps_are_refused_before_sampling(slope, monkeypatch):
    linspace = np.linspace

    def guarded(start, stop, num, *args, **kwargs):
        assert num <= sphere.MAX_PIECE_SAMPLES + 1, num
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(sphere.np, "linspace", guarded)
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, slope)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)])
    path = MotionPath(theta, beta, Radii(1.0, 1.0))
    with pytest.raises(ValueError, match=r"piece \[0.0, 1.0\] needs .* samples"):
        regularize(path)
