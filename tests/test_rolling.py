"""Rigid-body rolling oracle: rate solve, propagation, closure."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from geophase import (AffineSegment, ConstantSegment, MotionPath, Radii,
                      SampledSegment, ScalarPath, build_path, dynamical_phase,
                      geometric_phase_line, reverse_path, simulate_rolling,
                      total_rotation)
from geophase import rolling
from geophase.errors import ClosureMismatch, DriftExceeded, TooManySamples
from geophase.sphere import frame_vectors, gauss_vector
from conftest import (COIN_RADII, TABLE_RADII, THREE_PIECE_LAP,
                      backtracking_sampled_path, closed_motions, gallery,
                      schedule_at)

PI = math.pi
TWO_PI = 2.0 * PI


def solve_body_rates(path, t):
    """(omega, spin about g, no-slip residual) at one instant, from the
    constraint rows and the normal solve that simulate_rolling runs."""
    (theta, dtheta), (beta, dbeta) = schedule_at(path.theta, t), schedule_at(path.beta, t)
    rows, rhs, g = rolling._constraint_rows(theta, beta, dtheta, dbeta,
                                            path.radii.a / path.radii.b)
    omega, residual = rolling._normal_solve(rows, rhs)
    omega = np.array(omega)[:, 0]
    return omega, float(omega @ np.array(g)[:, 0]), float(residual[0])


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


def test_simulation_convergence_is_sixth_order():
    # iv at radii 2,1 turns at most 3 * 2 pi = 6 pi rad: steps 10, 20 and 40
    # give 64, 128 and 252 intervals, so the error falls by 2**6 = 64 and
    # then by (252 / 128)**6 = 58.3; measured 60 and 56, band +- 8
    path = gallery("iv", TABLE_RADII)
    expected = dynamical_phase(path) + geometric_phase_line(path)
    traces = [simulate_rolling(path, steps=n) for n in (10, 20, 40)]
    assert [trace.steps for trace in traces] == [3 * 64, 3 * 128, 3 * 252]
    errors = [abs(trace.delta_oracle - expected) for trace in traces]
    assert errors[0] / errors[1] == pytest.approx(64.0, abs=8.0)
    assert errors[1] / errors[2] == pytest.approx((252 / 128) ** 6, abs=8.0)


@pytest.mark.parametrize("radii", [TABLE_RADII, COIN_RADII])
@pytest.mark.parametrize("name", ["i", "ii", "iii", "iv", "v", "vi"])
def test_default_steps_match_the_line_route_on_the_gallery(name, radii):
    path = gallery(name, radii)
    expected = dynamical_phase(path) + geometric_phase_line(path)
    assert abs(simulate_rolling(path).delta_oracle - expected) <= 1e-7


@pytest.mark.parametrize("name", ["ii", "iv", "vi"])
def test_default_steps_hold_at_large_radius_ratios(name):
    # the grid follows the rotation bound, which grows with a/b: at a/b =
    # 100 the old time grid was off by about 1 (0.94 on ii)
    for radii in (Radii(100.0, 1.0), Radii(1.0, 100.0)):
        path = gallery(name, radii)
        expected = dynamical_phase(path) + geometric_phase_line(path)
        assert simulate_rolling(path).delta_oracle == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("laps", [1, 5, 20, 50])
def test_default_steps_hold_over_many_laps(laps):
    # a latitude lap at tilt 1 and radii 2,1, repeated: the time grid gave
    # MethodDisagreement at 20 laps and ClosureMismatch at 50
    path = MotionPath(
        ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, TWO_PI * laps)]),
        ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)]), TABLE_RADII)
    expected = dynamical_phase(path) + geometric_phase_line(path)
    assert simulate_rolling(path).delta_oracle == pytest.approx(expected, abs=1e-6)


def test_final_orientation_is_a_twist_about_the_start_axis(monkeypatch):
    # after a closed motion the only residual freedom is a rotation about
    # the initial tilt axis; the closure check inside simulate_rolling
    # verifies both the axis and the twist angle, so surviving it with a
    # tight budget is the assertion
    monkeypatch.setattr(rolling, "_CLOSURE_TOL", 1e-4)
    for name, radii in (("iv", TABLE_RADII), ("v", Radii(3.0, 2.0))):
        simulate_rolling(gallery(name, radii), steps=2_500)


def test_unreasonable_drift_budget_trips_the_guard(monkeypatch):
    monkeypatch.setattr(rolling, "DRIFT_TOL", 1e-18)
    with pytest.raises(DriftExceeded) as info:
        simulate_rolling(gallery("ii"), steps=5000)
    assert info.value.tol == 1e-18
    assert info.value.value > info.value.tol


def test_unreasonable_closure_budget_trips_the_guard(monkeypatch):
    monkeypatch.setattr(rolling, "_CLOSURE_TOL", 1e-15)
    with pytest.raises(ClosureMismatch) as info:
        simulate_rolling(gallery("ii"), steps=5000)
    assert info.value.tol == 1e-15
    assert info.value.value > info.value.tol


def test_too_many_intervals_are_refused_before_any_allocation(monkeypatch):
    # 10**11 steps ask for 3.3e10 intervals, hundreds of GiB of arrays; the
    # interval arrays start with np.repeat, which must never be reached
    path = gallery("vi")

    def refuse(*args, **kwargs):
        raise AssertionError("the interval arrays were allocated")

    monkeypatch.setattr(np, "repeat", refuse)
    with pytest.raises(TooManySamples, match="MAX_PIECE_SAMPLES"):
        simulate_rolling(path, steps=10**11)
    # an integer past the float range is refused before any float arithmetic
    with pytest.raises(ValueError, match="float range"):
        simulate_rolling(path, 10**400)
    # steps has no ceiling of its own: one step past three per capped
    # interval is a grid past the cap like any other
    with pytest.raises(TooManySamples, match="MAX_PIECE_SAMPLES"):
        simulate_rolling(path, steps=3 * rolling.MAX_PIECE_SAMPLES + 1)


def test_a_slow_lap_runs_past_three_million_steps():
    # theta' = 0.01 at radii 1,1 turns the body by at most 0.02 rad, so
    # 3,000,001 steps per radian ask for 4 ceil(0.02 * 3000001 / 12) =
    # 20,004 intervals, far inside the cap
    path = MotionPath(
        ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, 0.01)]),
        ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)]), Radii(1.0, 1.0))
    trace = simulate_rolling(path, steps=3 * rolling.MAX_PIECE_SAMPLES + 1)
    assert trace.steps == 3 * 20_004
    expected = dynamical_phase(path) + geometric_phase_line(path)
    assert trace.delta_oracle == pytest.approx(expected, abs=1e-12)


def test_an_oracle_grid_past_the_cap_is_recorded_before_any_allocation(
        monkeypatch):
    # 159,155 steps pass the argument check, but the three thirds of the
    # lap ask for 1,000,008 intervals (conftest.THREE_PIECE_LAP):
    # total_rotation records TooManySamples for the oracle, and the interval
    # arrays are never allocated
    def refuse(*args, **kwargs):
        raise AssertionError("the interval arrays were allocated")

    path = build_path(THREE_PIECE_LAP)
    monkeypatch.setattr(np, "repeat", refuse)
    result = total_rotation(path, ("line", "oracle"), oracle_steps=159_155)
    error = result.errors["oracle"]
    assert isinstance(error, TooManySamples)
    assert error.value == 1_000_008
    assert error.value > error.tol == rolling.MAX_PIECE_SAMPLES
    # the message prints the count itself, visibly past the cap
    needed = re.search(r"the oracle needs (\d+) intervals, more than "
                       r"MAX_PIECE_SAMPLES = (\d+)", str(error))
    assert int(needed[1]) == 1_000_008 and int(needed[2]) == error.tol


def test_rates_are_the_least_squares_solution_of_orthonormal_rows():
    # in units of the rolling radius the rows are e2, -e1, g and 0 at every
    # ratio a / b, so A^T A = I and A^T rhs solves the least-squares problem
    rng = np.random.default_rng(13)
    n = 512
    theta, beta = rng.uniform(-7.0, 7.0, n), rng.uniform(0.0, PI, n)
    dtheta, dbeta = rng.normal(0.0, 6.0, n), rng.normal(0.0, 6.0, n)
    dtheta[:16] = dbeta[:16] = 0.0   # stationary instants
    ratio = 10.0 ** rng.uniform(-2.0, 2.0, n)
    rows, rhs, _ = rolling._constraint_rows(theta, beta, dtheta, dbeta, ratio)
    A = np.moveaxis(np.array(rows), -1, 0)   # (n, 4, 3)
    b = np.array(rhs).T                       # (n, 4)
    gram = np.swapaxes(A, -1, -2) @ A
    assert float(np.max(np.abs(gram - np.eye(3)))) <= 1e-14
    omega, residual = rolling._normal_solve(rows, rhs)
    omega = np.array(omega).T
    scale = (1.0 + ratio) * (np.abs(dtheta) + np.abs(dbeta))
    for k in range(n):
        expected = np.linalg.lstsq(A[k], b[k], rcond=None)[0]
        assert np.all(np.abs(omega[k] - expected) <= 1e-12 * scale[k]), k
    np.testing.assert_array_equal(omega[:16], 0.0)
    np.testing.assert_array_equal(residual[:16], 0.0)
    assert np.all(residual <= 1e-12 * scale)


def test_every_piece_gets_the_minimum_number_of_intervals():
    # steps=20 asks for about 7 intervals in all; each of motion v's pieces
    # still gets its own floor of intervals
    path = gallery("v")
    trace = simulate_rolling(path, steps=20)
    starts = np.flatnonzero(np.diff(trace.t) == 0.0) + 1   # knots repeat
    nodes = np.diff(np.concatenate([[0], starts, [trace.t.size]]))
    assert nodes.size == len(path.affine_pieces)
    assert np.all(nodes - 1 >= rolling._MIN_STEPS_PER_SEGMENT)
    assert trace.steps == 3 * int(np.sum(nodes - 1))
    expected = dynamical_phase(path) + geometric_phase_line(path)
    assert trace.delta_oracle == pytest.approx(expected, abs=1e-4)


def test_a_finely_sampled_tilt_matches_the_line_route_at_default_steps():
    # 400 knots: every short piece gets at least the floor of intervals
    knots = np.linspace(0.0, 1.0, 400)
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, TWO_PI)])
    beta = ScalarPath.from_segments([SampledSegment(
        0.0, 1.0, knots, 1.3 + 0.6 * np.sin(3.0 * TWO_PI * knots))])
    path = MotionPath(theta, beta, TABLE_RADII)
    expected = dynamical_phase(path) + geometric_phase_line(path)
    assert simulate_rolling(path).delta_oracle == pytest.approx(expected, abs=1e-6)


def test_open_motions_are_simulated_without_closure_check():
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, PI)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, PI / 2.0)])
    path = MotionPath(theta, beta, Radii(1.0, 1.0))
    trace = simulate_rolling(path, steps=4000)
    expected = dynamical_phase(path) + geometric_phase_line(path)
    assert trace.delta_oracle == pytest.approx(expected, abs=1e-5)


@pytest.mark.parametrize("name", ["iv", "vi"])
def test_every_orientation_stays_orthonormal(name):
    trace = simulate_rolling(gallery(name), steps=5_000)
    R = trace.orientations
    gram = np.swapaxes(R, -1, -2) @ R
    assert float(np.max(np.abs(gram - np.eye(3)))) < 1e-9


def test_equator_lap_with_equal_radii_returns_to_the_identity():
    # spin -(a/b + cos beta) theta' = -2 pi per unit time about a normal
    # that sweeps once round: the disc ends where it started
    trace = simulate_rolling(gallery("ii"), steps=5_000)
    np.testing.assert_allclose(trace.orientations[-1], np.eye(3), atol=1e-6)


def _stacked_constraint_rows(theta, beta, dtheta, dbeta, a, b):
    """Reference: the constraint systems as stacked (n, 4, 3) np.cross rows."""
    e1, e2, g = frame_vectors(theta, beta)
    st, ct = np.sin(theta), np.cos(theta)
    sb, cb = np.sin(beta), np.cos(beta)
    g_dot = np.stack([dbeta * cb * ct - dtheta * sb * st,
                      dbeta * cb * st + dtheta * sb * ct,
                      dbeta * sb], axis=-1)
    ring = a + b * cb
    c_dot = np.stack([-b * sb * dbeta * ct - ring * st * dtheta,
                      -b * sb * dbeta * st + ring * ct * dtheta,
                      b * cb * dbeta], axis=-1)
    d = -b * e2
    rows = np.stack([np.cross(g, e1), np.cross(g, e2),
                     np.cross(d, e1), np.cross(d, e2)], axis=-2)
    rhs = np.stack([np.einsum('...i,...i->...', g_dot, e1),
                    np.einsum('...i,...i->...', g_dot, e2),
                    -np.einsum('...i,...i->...', c_dot, e1),
                    -np.einsum('...i,...i->...', c_dot, e2)], axis=-1)
    return rows, rhs, g


def _stacked_rodrigues(omega, dt):
    """Reference: exp(dt * hat(omega)) as I + sin K + (1 - cos) K @ K."""
    phi = np.linalg.norm(omega, axis=1) * dt
    safe = np.where(phi > 0.0, np.linalg.norm(omega, axis=1), 1.0)
    u = omega / safe[:, None]
    zeros = np.zeros_like(phi)
    K = np.stack([
        np.stack([zeros, -u[:, 2], u[:, 1]], axis=-1),
        np.stack([u[:, 2], zeros, -u[:, 0]], axis=-1),
        np.stack([-u[:, 1], u[:, 0], zeros], axis=-1)], axis=-2)
    eye = np.broadcast_to(np.eye(3), K.shape)
    return (eye + np.sin(phi)[:, None, None] * K
            + (1.0 - np.cos(phi))[:, None, None] * (K @ K))


def test_constraint_rows_match_the_stacked_cross_products():
    rng = np.random.default_rng(11)
    theta, beta = rng.uniform(-7.0, 7.0, 64), rng.uniform(0.0, PI, 64)
    dtheta, dbeta = rng.normal(0.0, 6.0, 64), rng.normal(0.0, 6.0, 64)
    dtheta[0] = dbeta[0] = 0.0   # a stationary instant
    # the rows come in units of the rolling radius: a / b and b = 1
    rows, rhs, g = rolling._constraint_rows(theta, beta, dtheta, dbeta, 1.7 / 0.8)
    ref_rows, ref_rhs, ref_g = _stacked_constraint_rows(theta, beta, dtheta,
                                                        dbeta, 1.7 / 0.8, 1.0)
    np.testing.assert_allclose(np.moveaxis(np.array(rows), -1, 0), ref_rows,
                               rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(np.array(rhs).T, ref_rhs, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(np.array(g).T, ref_g, rtol=0.0, atol=1e-13)


def _as_matrices(q):
    """(n, 3, 3) rotation matrices of (4, n) quaternions."""
    return np.moveaxis(rolling._matrices(q), -1, 0)


def test_rodrigues_steps_match_the_stacked_skew_form():
    rng = np.random.default_rng(12)
    omega = rng.normal(0.0, 20.0, (64, 3))
    omega[0] = 0.0   # a zero rate is the identity
    dt = rng.uniform(1e-5, 0.2, 64)
    got = _as_matrices(rolling._rodrigues_steps(tuple((omega * dt[:, None]).T)))
    np.testing.assert_allclose(got, _stacked_rodrigues(omega, dt),
                               rtol=0.0, atol=1e-13)
    np.testing.assert_array_equal(got[0], np.eye(3))


def _qmul(p, q):
    """Hamilton product p q of quaternions given per component (w, x, y, z)."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0)


def _sequential_products(S):
    """Reference: Q[:, 0] = 1 and Q[:, k] = S[:, k-1] ... S[:, 0], by the
    real Hamilton product one step at a time."""
    Q = [(1.0, 0.0, 0.0, 0.0)]
    for step in S.T:
        Q.append(_qmul(step, Q[-1]))
    return np.array(Q).T


@pytest.mark.parametrize("steps", [
    0, 1,            # no product, or the one step alone
    2, 3,            # one level of pair products, an even and an odd count
    15, 99,          # odd counts split unevenly at every level
    16, 100,
    14, 98,
    1000,
    31, 32, 33,      # at a power of 2, and one on either side
    1023, 1024,
    32 ** 2 + 1,
    32 ** 3 + 1,
    6, 7, 8,
    62, 63, 64,
    8 ** 3 + 1,
    8 ** 4 + 1,
])
def test_blocked_prefix_products_match_a_sequential_product(steps):
    # the log-depth scan on Cayley-Klein pairs against the sequential real
    # product of the same steps, and against the matrix product of the
    # independent skew-form steps
    rng = np.random.default_rng(steps)
    omega = rng.normal(0.0, 3.0, (steps, 3))
    dt = rng.uniform(0.0, 1.0, steps)
    S = rolling._rodrigues_steps(tuple((omega * dt[:, None]).T))
    got = rolling._quaternions(rolling._compose(rolling._pairs(S)))
    assert got.shape == (4, steps + 1)
    np.testing.assert_allclose(got, _sequential_products(S), rtol=0.0, atol=1e-12)
    expected = [np.eye(3)]
    for step in _stacked_rodrigues(omega, dt):
        expected.append(step @ expected[-1])
    np.testing.assert_allclose(_as_matrices(got), np.array(expected),
                               rtol=0.0, atol=1e-12)


def _fornberg_weights(offsets):
    """Weights w with sum_j w[j] f(offsets[j]) ~ f'(0), exact for
    polynomials of degree below len(offsets)."""
    offsets = np.asarray(offsets, dtype=float)
    vandermonde = offsets[None, :] ** np.arange(offsets.size)[:, None]
    return np.linalg.solve(vandermonde, np.eye(offsets.size)[1])


def _turn(path, lo, hi):
    """(|beta'| + (a/b + 1) |theta'|)(hi - lo): the oracle's bound on the
    body's rotation over [lo, hi], inside one affine piece."""
    mid = 0.5 * (lo + hi)
    ratio = path.radii.a / path.radii.b
    dtheta, dbeta = schedule_at(path.theta, mid)[1], schedule_at(path.beta, mid)[1]
    return (abs(float(dbeta)) + (ratio + 1.0) * abs(float(dtheta))) * (hi - lo)


def _turn_of(path):
    """The rotation bound of the whole motion, piece by piece."""
    bounds = np.array(path.knots)
    bounds[0], bounds[-1] = 0.0, 1.0
    return sum(_turn(path, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))


def _whole_array_oracle(path, steps):
    """Reference: the Magnus oracle over whole arrays, piece by piece, with
    the schedule from conftest.schedule_at, the sixth-order three-node
    Magnus rotation vector from np.cross, the orientations by the
    sequential real Hamilton product, seven-point stencil weights solved
    from Vandermonde systems, Boole's rule written out per piece and the
    spin from the Hamilton product 2 vec(qdot conj(q)). Returns
    (quaternions, no-slip residuals, spin rates, delta_oracle)."""
    bounds = np.array(path.knots)
    bounds[0], bounds[-1] = 0.0, 1.0
    grids, spacings = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        m = max(rolling._MIN_STEPS_PER_SEGMENT,
                4 * math.ceil(_turn(path, lo, hi) * steps / 12.0))
        spacings.append((hi - lo) / m)
        grids.append(lo + spacings[-1] * np.arange(m + 1))
        grids[-1][-1] = hi
    h = np.concatenate([np.full(g.size - 1, step) for g, step in zip(grids, spacings)])
    tm = np.concatenate([g[:-1] for g in grids]) + 0.5 * h
    rates, residuals = [], []
    off = math.sqrt(15.0) / 10.0 * h
    for node in (tm - off, tm, tm + off):
        (theta, dtheta), (beta, dbeta) = (schedule_at(path.theta, node),
                                          schedule_at(path.beta, node))
        rows, rhs, _ = rolling._constraint_rows(theta, beta, dtheta, dbeta,
                                                path.radii.a / path.radii.b)
        omega, noslip = rolling._normal_solve(rows, rhs)
        rates.append(np.array(omega).T)
        residuals.append(noslip)
    w1, w2, w3 = rates
    h = h[:, None]
    a1 = h * w2
    a2 = math.sqrt(15.0) / 3.0 * h * (w3 - w1)
    a3 = 10.0 / 3.0 * h * (w3 - 2.0 * w2 + w1)
    c1 = np.cross(a1, a2)
    c2 = -np.cross(a1, 2.0 * a3 + c1) / 60.0
    magnus = a1 + a3 / 12.0 + np.cross(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    q_unique = _sequential_products(rolling._rodrigues_steps(tuple(magnus.T)))

    qs, spins, delta, done = [], [], 0.0, 0
    for g, step in zip(grids, spacings):
        m = g.size - 1
        q = q_unique[:, done:done + m + 1]
        done += m
        dq = np.empty_like(q)
        for j in range(m + 1):
            lo = min(max(j - 3, 0), m - 6)
            window = np.arange(lo, lo + 7)
            dq[:, j] = q[:, window] @ _fornberg_weights(window - j) / step
        rate = _qmul(dq, (q[0], -q[1], -q[2], -q[3]))[1:]
        # the ends of a piece take its own one-sided limits of the schedule
        inside = np.clip(g, g[0] + 0.25 * step, g[-1] - 0.25 * step)
        beta, dbeta = schedule_at(path.beta, inside)
        theta, dtheta = schedule_at(path.theta, inside)
        beta, theta = beta + dbeta * (g - inside), theta + dtheta * (g - inside)
        spin = 2.0 * np.einsum("ki,ik->k", gauss_vector(theta, beta), np.array(rate))
        delta -= 2.0 * step / 45.0 * (
            7.0 * (spin[0] + spin[-1]) + 32.0 * (spin[1::4].sum() + spin[3::4].sum())
            + 12.0 * spin[2::4].sum() + 14.0 * spin[4:-1:4].sum())
        qs.append(q)
        spins.append(spin)
    return (np.concatenate(qs, axis=1), np.max(residuals, axis=0),
            np.concatenate(spins), delta)


@pytest.mark.parametrize("evaluations,chunk", [
    (rolling._CHUNK - 1, rolling._CHUNK), (rolling._CHUNK, rolling._CHUNK),
    (rolling._CHUNK + 1, rolling._CHUNK), (100_000, rolling._CHUNK),
    (1000, 1), (1000, 5), (1000, 64),   # many chunks and a short last one
])
def test_chunked_oracle_matches_a_whole_array_reference(evaluations, chunk,
                                                        monkeypatch):
    # sampled schedules whose knots are off the step grid and do not line
    # up between the two schedules; steps count rate evaluations per radian
    # of the rotation bound, so about `evaluations` of them in all
    monkeypatch.setattr(rolling, "_CHUNK", chunk)
    path = backtracking_sampled_path()
    steps = round(evaluations / _turn_of(path))
    trace = simulate_rolling(path, steps=steps)
    assert abs(trace.steps - evaluations) <= 12 * len(path.affine_pieces)
    q, noslip, spin, delta = _whole_array_oracle(path, steps)
    np.testing.assert_allclose(trace.quaternions, q, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(trace.noslip_residuals, noslip,
                               rtol=0.0, atol=1e-13)
    # finite differences scale rounding in q by 1/dt
    np.testing.assert_allclose(trace.spin_rates, spin, rtol=0.0, atol=1e-10)
    assert trace.delta_oracle == pytest.approx(delta, abs=1e-12)


def test_a_schedule_starting_just_after_zero_is_covered():
    # segments may start up to TILE_TOL after 0; the grid still starts at 0
    # and its first interval lies before the first knot
    theta = ScalarPath.from_segments([AffineSegment(1e-13, 0.5, 0.0, 6.0),
                                      AffineSegment(0.5, 1.0, 3.0, -2.0)])
    beta = ScalarPath.from_segments([ConstantSegment(1e-13, 1.0, 1.0)])
    path = MotionPath(theta, beta, TABLE_RADII)
    # the first piece turns at most (2 + 1) 6 * 0.5 = 9 rad, which gives
    # 4 ceil(9 * 56 / 12) = 168 intervals
    trace = simulate_rolling(path, steps=56)
    q, noslip, spin, delta = _whole_array_oracle(path, 56)
    # the first piece is stretched back to 0: no sliver interval before 1e-13
    assert trace.t[0] == 0.0 and trace.t[1] == 0.5 / 168
    np.testing.assert_allclose(trace.quaternions, q, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(trace.spin_rates, spin, rtol=0.0, atol=1e-10)
    assert trace.delta_oracle == pytest.approx(delta, abs=1e-12)


def test_oracle_matches_the_line_route_on_sampled_schedules():
    path = backtracking_sampled_path()
    expected = dynamical_phase(path) + geometric_phase_line(path)
    assert simulate_rolling(path).delta_oracle == pytest.approx(expected, abs=1e-6)


@settings(max_examples=5, deadline=None)
@given(closed_motions())
def test_oracle_geometric_part_is_odd_in_time_and_radius_free(path):
    def geometric(p):
        return simulate_rolling(p).delta_oracle - dynamical_phase(p)

    value = geometric(path)
    assert geometric(reverse_path(path)) == pytest.approx(-value, abs=1e-6)
    rescaled = MotionPath(path.theta, path.beta, Radii(2.5, 0.5))
    assert geometric(rescaled) == pytest.approx(value, abs=1e-6)
