"""Monopole potentials and two-level eigenstate holonomies."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geophase import (DEFAULT_EPSILON, MINUS_PATCH, PLUS_PATCH, GaugePatch,
                      berry_holonomy, curl_check, geometric_phase_line,
                      monopole_holonomy, monopole_potential,
                      patch_circulation)
from geophase import gauge, sphere
from geophase.errors import (CurveNotClosed, GaugeInconsistency,
                             OnSingularAxis, QuadratureFailure, TooManySamples)
from geophase.quadrature import adaptive_simpson
from geophase.gauge import AXIS_CLEARANCE
from geophase.sphere import MAX_PIECE_SAMPLES, clamped_affine_pieces
from conftest import COIN_RADII, FROZEN, TABLE_RADII, closed_motions, gallery
from test_acceptance import random_closed_motion

PI = math.pi
TWO_PI = 2.0 * PI


def hamiltonian(theta, beta):
    return np.array([
        [-math.cos(beta), math.sin(beta) * np.exp(-1j * theta)],
        [math.sin(beta) * np.exp(1j * theta), math.cos(beta)],
    ])


def berry_state(sign, theta, beta):
    """The +1 eigenstate of hamiltonian(theta, beta) in the plus gauge
    (singular at beta = 0) or the minus gauge (singular at beta = pi). Its
    connection is the monopole potential; gauge.berry_holonomy transports
    the state without fixing a gauge."""
    half = 0.5 * beta
    if sign > 0:
        return np.array([math.sin(half), np.exp(1j * theta) * math.cos(half)])
    return np.array([np.exp(-1j * theta) * math.sin(half), math.cos(half)])


def berry_connection(sign, theta, beta, dtheta, dbeta, h=1e-4):
    """<psi|d psi> along (dtheta, dbeta), from central differences of the
    states at steps h and h/2 combined by Richardson extrapolation."""
    here = berry_state(sign, theta, beta)

    def central(k):
        fwd = berry_state(sign, theta + k * dtheta, beta + k * dbeta)
        bwd = berry_state(sign, theta - k * dtheta, beta - k * dbeta)
        return complex(np.vdot(here, (fwd - bwd) / (2.0 * k)))

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def test_patch_constants():
    assert PLUS_PATCH.sign == 1
    assert MINUS_PATCH.sign == -1
    with pytest.raises(ValueError):
        GaugePatch(0)


def test_potential_closed_form_points():
    np.testing.assert_allclose(monopole_potential(PLUS_PATCH, [1.0, 0.0, 0.0]),
                               [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(monopole_potential(MINUS_PATCH, [1.0, 0.0, 0.0]),
                               [0.0, -1.0, 0.0], atol=1e-15)
    # on the regular half-axis the potential vanishes
    np.testing.assert_allclose(monopole_potential(PLUS_PATCH, [0.0, 0.0, 2.0]),
                               [0.0, 0.0, 0.0], atol=1e-15)


def test_patch_difference_is_an_azimuth_gradient():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.normal(size=3)
        rho2 = x[0] ** 2 + x[1] ** 2
        if rho2 < 1e-4:
            continue
        diff = (monopole_potential(PLUS_PATCH, x)
                - monopole_potential(MINUS_PATCH, x))
        grad_theta = np.array([-x[1], x[0], 0.0]) / rho2
        np.testing.assert_allclose(diff, 2.0 * grad_theta, atol=1e-12)


def test_excluded_axis_raises():
    with pytest.raises(OnSingularAxis) as info:
        monopole_potential(PLUS_PATCH, [0.0, 0.0, -1.0])
    assert (info.value.value, info.value.tol) == (0.0, AXIS_CLEARANCE)
    with pytest.raises(OnSingularAxis) as info:
        monopole_potential(MINUS_PATCH, [0.0, 0.0, 1.0])
    assert (info.value.value, info.value.tol) == (0.0, AXIS_CLEARANCE)
    with pytest.raises(OnSingularAxis) as info:
        monopole_potential(PLUS_PATCH, [0.0, 0.0, 0.0])
    assert (info.value.value, info.value.tol) == (None, None)


def test_batched_potential_equals_the_per_point_results():
    # an empty batch, as a curve in one hemisphere leaves one patch, too
    rng = np.random.default_rng(19)
    for points, patch in product((rng.normal(size=(4, 25, 3)), np.empty((0, 3))),
                                 (PLUS_PATCH, MINUS_PATCH)):
        batch = monopole_potential(patch, points)
        assert batch.shape == points.shape
        for index in np.ndindex(points.shape[:-1]):
            assert np.array_equal(batch[index],
                                  monopole_potential(patch, points[index]))


def test_one_bad_point_fails_the_batch():
    # the error carries the worst angle from the excluded ray and the
    # clearance it failed; the origin has no angle
    points = np.random.default_rng(23).normal(size=(10, 3))
    points[6] = [0.0, 0.0, -1.0]
    with pytest.raises(OnSingularAxis, match="within 0.00e") as info:
        monopole_potential(PLUS_PATCH, points)
    assert (info.value.value, info.value.tol) == (0.0, AXIS_CLEARANCE)
    monopole_potential(MINUS_PATCH, points)
    points[3] = [3e-10, 0.0, 1.0]
    with pytest.raises(OnSingularAxis, match="within 3.00e-10 rad of the north") as info:
        monopole_potential(MINUS_PATCH, points)
    assert info.value.value == pytest.approx(3e-10, rel=1e-12)
    assert info.value.tol == AXIS_CLEARANCE
    points[8] = 0.0
    with pytest.raises(OnSingularAxis, match="origin") as info:
        monopole_potential(MINUS_PATCH, points)
    assert (info.value.value, info.value.tol) == (None, None)


def test_curl_is_the_radial_unit_field():
    pts = [np.array([0.8, -0.3, 0.4]), np.array([-1.2, 0.5, -0.9]),
           np.array([0.1, 1.4, 0.6])]
    for x in pts:
        r = np.linalg.norm(x)
        for patch in (PLUS_PATCH, MINUS_PATCH):
            got = curl_check(patch, x, h=1e-4)
            np.testing.assert_allclose(got, x / r**3, atol=1e-6)


def test_curl_convergence_is_second_order():
    x = np.array([0.9, 0.2, -0.7])
    exact = x / np.linalg.norm(x) ** 3
    e1 = np.linalg.norm(curl_check(PLUS_PATCH, x, 1e-3) - exact)
    e2 = np.linalg.norm(curl_check(PLUS_PATCH, x, 5e-4) - exact)
    assert e1 / e2 == pytest.approx(4.0, abs=0.5)


@pytest.mark.parametrize("name", list(FROZEN))
def test_monopole_holonomy_matches_line_values(name):
    assert monopole_holonomy(gallery(name)) == pytest.approx(
        FROZEN[name][3], abs=1e-9)


@pytest.mark.parametrize("name", list(FROZEN))
def test_patch_circulations_differ_by_the_winding_flux(name):
    path = gallery(name)
    n = FROZEN[name][4]
    diff = (patch_circulation(path, PLUS_PATCH)
            - patch_circulation(path, MINUS_PATCH))
    assert diff == pytest.approx(4.0 * PI * n, abs=1e-10)


def test_monopole_holonomy_needs_closure():
    from geophase import AffineSegment, ConstantSegment, MotionPath, Radii, ScalarPath
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, PI)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, PI / 2.0)])
    with pytest.raises(CurveNotClosed):
        monopole_holonomy(MotionPath(theta, beta, Radii(1.0, 1.0)))


def test_berry_state_is_a_unit_plus_eigenvector():
    rng = np.random.default_rng(11)
    for _ in range(100):
        th = rng.uniform(-6.0, 6.0)
        be = rng.uniform(0.05, PI - 0.05)
        for sign in (+1, -1):
            psi = berry_state(sign, th, be)
            assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(hamiltonian(th, be) @ psi, psi,
                                       atol=1e-12)
        plus = berry_state(+1, th, be)
        minus = berry_state(-1, th, be)
        np.testing.assert_allclose(plus, np.exp(1j * th) * minus, atol=1e-12)


def test_connection_equals_potential_pullback():
    # <psi|dpsi> = (i/2) A . dg with the matching patch, at random points;
    # the beta part of the displacement adds nothing to either side
    rng = np.random.default_rng(17)
    for _ in range(500):
        th = rng.uniform(-6.0, 6.0)
        be = rng.uniform(0.1, PI - 0.1)
        dth = rng.uniform(-2.0, 2.0)
        dbe = rng.uniform(-2.0, 2.0)
        g = np.array([math.sin(be) * math.cos(th),
                      math.sin(be) * math.sin(th), -math.cos(be)])
        gdot = np.array([
            dbe * math.cos(be) * math.cos(th) - dth * math.sin(be) * math.sin(th),
            dbe * math.cos(be) * math.sin(th) + dth * math.sin(be) * math.cos(th),
            dbe * math.sin(be)])
        for sign, patch in ((+1, PLUS_PATCH), (-1, MINUS_PATCH)):
            pullback = float(monopole_potential(patch, g) @ gdot)
            conn = berry_connection(sign, th, be, dth, dbe)
            assert conn == pytest.approx(0.5j * pullback, abs=1e-10)


@pytest.mark.parametrize("name", list(FROZEN))
def test_berry_holonomy_matches_line_values(name):
    assert berry_holonomy(gallery(name)) == pytest.approx(
        FROZEN[name][3], abs=1e-6)


def test_berry_transport_matches_the_line_integral():
    paths = [gallery(name, radii) for radii in (TABLE_RADII, COIN_RADII)
             for name in FROZEN]
    rng = np.random.default_rng(20261017)
    paths += [random_closed_motion(rng) for _ in range(10)]
    for path in paths:
        assert berry_holonomy(path) == pytest.approx(
            geometric_phase_line(path), abs=1e-9)


def test_berry_transport_is_sixth_order(monkeypatch):
    # iv's one piece sweeps 2 pi: 16, 32 and 63 intervals, so the error
    # falls by 2**6 = 64 and then by (63/32)**6 = 58; measured 60 and 57
    path = gallery("iv", TABLE_RADII)
    line = geometric_phase_line(path)
    errors = []
    for step in (0.4, 0.2, 0.1):
        monkeypatch.setattr(gauge, "_TRANSPORT_STEP", step)
        errors.append(abs(berry_holonomy(path) - line))
    assert errors[0] / errors[1] == pytest.approx(64.0, abs=8.0)
    assert errors[1] / errors[2] == pytest.approx(58.3, abs=8.0)


def test_gauge_inconsistency_carries_the_transport_miss_and_the_tolerance(
        monkeypatch):
    # the miss is >= 0, so a negative tolerance always trips the check
    monkeypatch.setattr(gauge, "_MISS_TOL", -1.0)
    with pytest.raises(GaugeInconsistency, match="misses the curve") as info:
        berry_holonomy(gallery("vi"))
    exc = info.value
    assert exc.tol == -1.0
    assert 0.0 <= exc.value < 1e-9
    assert f"by {exc.value:.3e} " in str(exc)


def test_a_transport_rate_without_sin_beta_trips_the_miss_check(monkeypatch):
    def unscaled(e1, e2, dtheta, dbeta):
        return -dbeta * e1 + dtheta * e2

    monkeypatch.setattr(gauge, "_transport_rate", unscaled)
    with pytest.raises(GaugeInconsistency) as info:
        berry_holonomy(gallery("vi"))
    assert info.value.tol == 1e-6
    assert info.value.value > info.value.tol


def test_a_sweep_past_the_interval_cap_raises_before_transporting():
    # ten thousand laps need 1.3e6 transport intervals
    from geophase import AffineSegment, ConstantSegment, MotionPath, Radii, ScalarPath
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, 2e4 * PI)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)])
    with pytest.raises(TooManySamples, match="the transport needs 1256638 "
                       "intervals, more than MAX_PIECE_SAMPLES") as info:
        berry_holonomy(MotionPath(theta, beta, Radii(1.0, 1.0)))
    assert info.value.value == math.ceil(2e4 * PI / gauge._TRANSPORT_STEP)
    assert info.value.tol == MAX_PIECE_SAMPLES


def simpson_circulation(pieces, sign=None):
    """The circulation by adaptive Simpson on the scalar integrand, piece by
    piece: an independent reference for the Gauss-Legendre sums. With sign
    None each point takes the patch regular on its hemisphere and adds the
    Wu-Yang transition term -s theta'."""
    total = 0.0
    for piece in pieces:
        if not piece.moving:
            continue

        def integrand(t, p=piece):
            th, b = p.at(t)
            sb, cb = math.sin(b), math.cos(b)
            sth, cth = math.sin(th), math.cos(th)
            g = np.array([sb * cth, sb * sth, -cb])
            g_dot = np.array([p.db * cb * cth - p.dth * sb * sth,
                              p.db * cb * sth + p.dth * sb * cth,
                              p.db * sb])
            s = sign or (1 if g[2] > 0.0 else -1)
            value = float(monopole_potential(GaugePatch(s), g) @ g_dot)
            return value if sign else value - s * p.dth

        total += adaptive_simpson(integrand, piece.t0, piece.t1, 1e-11)
    return total


@pytest.mark.parametrize("eps", [DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0])
@pytest.mark.parametrize("name", list(FROZEN))
def test_gauss_legendre_circulation_matches_simpson(name, eps):
    path = gallery(name)
    for sign in (+1, -1):
        assert patch_circulation(path, GaugePatch(sign), eps) == pytest.approx(
            simpson_circulation(clamped_affine_pieces(path, eps), sign), abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(closed_motions(dip=True) | closed_motions())
def test_gauss_legendre_circulation_matches_simpson_on_random_motions(path):
    for eps in (DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0):
        for sign in (+1, -1):
            assert patch_circulation(path, GaugePatch(sign), eps) == pytest.approx(
                simpson_circulation(clamped_affine_pieces(path, eps), sign),
                abs=1e-12)


@pytest.mark.parametrize("radii", [TABLE_RADII, COIN_RADII])
@pytest.mark.parametrize("name", list(FROZEN))
def test_switched_circulation_matches_simpson_on_the_raw_pieces(name, radii):
    # i and iii run through both poles, where a single patch has its ray
    path = gallery(name, radii)
    assert monopole_holonomy(path) == pytest.approx(
        simpson_circulation(path.affine_pieces), abs=1e-12)


def test_disagreeing_quadrature_orders_raise(monkeypatch):
    monkeypatch.setattr(sphere, "_QUAD_TOL", -1.0)
    with pytest.raises(QuadratureFailure,
                       match=r"orders 16 and 24 differ by \d\.\d{3}e[+-]\d\d ") as info:
        monopole_holonomy(gallery("vi"))
    assert 0.0 <= info.value.value < 1e-11
    assert info.value.tol == -1.0
