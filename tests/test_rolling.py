"""Rigid-body rolling oracle: rate solve, propagation, closure."""

import math

import numpy as np
import pytest

from geophase import (AffineSegment, ConstantSegment, MotionPath, Radii,
                      ScalarPath, dynamical_phase, geometric_phase_line,
                      rigid_configuration, simulate_rolling, solve_body_rates)
from geophase.errors import ClosureMismatch, DriftExceeded
from conftest import TABLE_RADII, gallery

PI = math.pi
TWO_PI = 2.0 * PI


def test_rigid_configuration_landmarks():
    cfg = rigid_configuration(0.0, PI / 2.0, Radii(1.0, 1.0))
    np.testing.assert_allclose(cfg.center, [1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(cfg.contact, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(cfg.normal, [1.0, 0.0, 0.0], atol=1e-15)

    cfg = rigid_configuration(0.0, PI / 2.0, Radii(2.0, 1.0))
    np.testing.assert_allclose(cfg.center, [2.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(cfg.contact, [2.0, 0.0, 0.0], atol=1e-15)

    # fully flipped disc tucked inside: center crosses the origin
    cfg = rigid_configuration(PI, PI, Radii(2.0, 1.0))
    np.testing.assert_allclose(cfg.center, [-1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(cfg.normal, [0.0, 0.0, 1.0], atol=1e-12)


def test_body_rates_spin_about_the_tilt_axis():
    # spin rate about g is -(a/b + cos beta) theta'
    omega, spin, residual = solve_body_rates(gallery("ii"), 0.3)
    assert spin == pytest.approx(-TWO_PI, abs=1e-9)
    assert residual < 1e-10
    g = np.array([math.cos(0.3 * TWO_PI), math.sin(0.3 * TWO_PI), 0.0])
    assert float(omega @ g) == pytest.approx(spin, abs=1e-9)

    omega, spin, residual = solve_body_rates(gallery("i"), 0.5)
    assert spin == pytest.approx(-2.0 * TWO_PI, abs=1e-9)
    assert residual < 1e-10

    # radii (2, 1): a/b doubles the gearing term, cos(pi/2) kills the other
    _, spin, _ = solve_body_rates(gallery("ii", TABLE_RADII), 0.3)
    assert spin == pytest.approx(-2.0 * TWO_PI, abs=1e-9)


def test_body_rates_vanish_when_parked():
    theta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 0.0)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)])
    omega, spin, residual = solve_body_rates(
        MotionPath(theta, beta, Radii(1.0, 1.0)), 0.4)
    np.testing.assert_allclose(omega, 0.0, atol=1e-15)
    assert spin == 0.0
    assert residual == 0.0


@pytest.mark.parametrize("name,steps,tol", [
    ("i", 10000, 1e-5), ("ii", 4000, 1e-5), ("iii", 4000, 1e-5),
    ("v", 20000, 1e-4), ("vi", 20000, 1e-4),
])
def test_simulation_recovers_the_total_rotation(name, steps, tol):
    path = gallery(name)
    expected = dynamical_phase(path) + geometric_phase_line(path)
    trace = simulate_rolling(path, steps=steps)
    assert trace.delta_oracle == pytest.approx(expected, abs=tol)
    assert float(np.max(trace.noslip_residuals)) < 1e-9
    assert trace.orientations.shape == (len(trace.t), 3, 3)
    np.testing.assert_allclose(trace.orientations[0], np.eye(3), atol=1e-15)


def test_simulation_is_radius_independent_in_the_geometric_part():
    for radii in (Radii(1.0, 1.0), Radii(3.0, 2.0)):
        path = gallery("v", radii)
        trace = simulate_rolling(path, steps=20_000)
        geometric = trace.delta_oracle - dynamical_phase(path)
        assert geometric == pytest.approx(PI / 2.0, abs=1e-4)


def test_simulation_convergence_is_second_order():
    path = gallery("iv", TABLE_RADII)
    expected = dynamical_phase(path) + geometric_phase_line(path)
    errors = [abs(simulate_rolling(path, steps=n).delta_oracle - expected)
              for n in (1000, 2000, 4000)]
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)
    assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.5)


def test_final_orientation_is_a_twist_about_the_start_axis():
    # after a closed motion the only residual freedom is a rotation about
    # the initial tilt axis; the closure check inside simulate_rolling
    # verifies both the axis and the twist angle, so surviving it with a
    # tight budget is the assertion
    for name, radii in (("iv", TABLE_RADII), ("v", Radii(3.0, 2.0))):
        simulate_rolling(gallery(name, radii), steps=50_000,
                         closure_tol=1e-4)


def test_unreasonable_drift_budget_trips_the_guard():
    with pytest.raises(DriftExceeded):
        simulate_rolling(gallery("ii"), steps=5000, drift_tol=1e-18)


def test_unreasonable_closure_budget_trips_the_guard():
    with pytest.raises(ClosureMismatch):
        simulate_rolling(gallery("ii"), steps=5000, closure_tol=1e-15)


def test_step_budget_must_resolve_every_segment():
    with pytest.raises(ValueError):
        simulate_rolling(gallery("v"), steps=20)


def test_open_motions_are_simulated_without_closure_check():
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, PI)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, PI / 2.0)])
    path = MotionPath(theta, beta, Radii(1.0, 1.0))
    trace = simulate_rolling(path, steps=4000)
    expected = dynamical_phase(path) + geometric_phase_line(path)
    assert trace.delta_oracle == pytest.approx(expected, abs=1e-5)


@pytest.mark.parametrize("name", ["iv", "vi"])
def test_every_orientation_stays_orthonormal(name):
    trace = simulate_rolling(gallery(name), steps=100_000)
    R = trace.orientations
    gram = np.swapaxes(R, -1, -2) @ R
    assert float(np.max(np.abs(gram - np.eye(3)))) < 1e-9


def test_equator_lap_with_equal_radii_returns_to_the_identity():
    # spin -(a/b + cos beta) theta' = -2 pi per unit time about a normal
    # that sweeps once round: the disc ends where it started
    trace = simulate_rolling(gallery("ii"), steps=100_000)
    np.testing.assert_allclose(trace.orientations[-1], np.eye(3), atol=1e-6)
