"""End-to-end acceptance checks.

One test per advertised guarantee, at the advertised tolerance. Each test
prints nothing on success; `pytest -v` shows exactly one pass/fail line per
guarantee.
"""

import math
import time

import numpy as np
import pytest

from geophase import (DEFAULT_EPSILON, MINUS_PATCH, PLUS_PATCH, AffineSegment,
                      MotionPath, Radii, RouteTrack, ScalarPath, curl_check,
                      curvature_integral, dynamical_phase,
                      geometric_phase_area, geometric_phase_baumkuchen,
                      geometric_phase_curvature, geometric_phase_line,
                      berry_holonomy, classify_poles, is_simple,
                      monopole_holonomy, offset_length,
                      offset_length_derivative, patch_circulation,
                      region_areas, regularize, route_foucault,
                      simulate_rolling, topology_report)
from geophase.phases import DEFAULT_STEPS
from conftest import (COIN_RADII, FROZEN, TABLE_RADII, eps_extrapolate,
                      gallery, gauss_bonnet_area, pole_sides)

PI = math.pi
TWO_PI = 2.0 * PI


def test_table_of_rotation_angles():
    """All five columns for every stock motion, against the closed forms."""
    started = time.perf_counter()
    for name, (swept, a_plus, two_pi_ip, delta_g, _) in FROZEN.items():
        path = gallery(name, TABLE_RADII)
        delta_d = dynamical_phase(path)
        assert delta_d == pytest.approx(2.0 * swept, abs=1e-9), name

        line = geometric_phase_line(path)
        assert line == pytest.approx(delta_g, abs=1e-6), name
        centre = geometric_phase_baumkuchen(path, 10_000).centre
        assert centre == pytest.approx(delta_g, abs=1e-6), name
        assert geometric_phase_area(path) == pytest.approx(
            delta_g, abs=1e-3), name
        assert geometric_phase_curvature(path) == pytest.approx(
            delta_g, abs=1e-3), name

        curve = regularize(path)
        i_plus, _ = classify_poles(curve)
        assert TWO_PI * i_plus == pytest.approx(two_pi_ip, abs=1e-12), name
        gb_at_eps = gauss_bonnet_area(curve)
        gb_at_half = gauss_bonnet_area(regularize(path, DEFAULT_EPSILON / 2))
        assert eps_extrapolate(DEFAULT_EPSILON, gb_at_eps, gb_at_half) == \
            pytest.approx(a_plus, abs=1e-3), name

        assert delta_d + line == pytest.approx(2.0 * swept + delta_g,
                                               abs=1e-6), name

    # same-size discs for the first three motions: two turns, one, none
    for name, total in (("i", 2 * TWO_PI), ("ii", TWO_PI), ("iii", 0.0)):
        path = gallery(name, COIN_RADII)
        assert dynamical_phase(path) + geometric_phase_line(path) == \
            pytest.approx(total, abs=1e-6), name

    assert time.perf_counter() - started < 5.0


def test_coin_full_turn_counts():
    """Same-size discs: the rolling coin turns twice, once, not at all."""
    for name, total in (("i", 2 * TWO_PI), ("ii", TWO_PI), ("iii", 0.0)):
        path = gallery(name, COIN_RADII)
        analytic = dynamical_phase(path) + geometric_phase_line(path)
        assert analytic == pytest.approx(total, abs=1e-6), name

        started = time.perf_counter()
        trace = simulate_rolling(path, steps=5_000)
        elapsed = time.perf_counter() - started
        assert trace.delta_oracle == pytest.approx(total, abs=1e-3), name
        assert elapsed < 10.0, f"{name}: oracle took {elapsed:.1f} s"


def test_foucault_sine_law():
    """Stationary drift is 2 pi sin(latitude); an equatorial loop drifts 0."""
    for lat_deg in np.linspace(-90.0, 90.0, 13):
        lat = math.radians(float(lat_deg))
        track = RouteTrack(t_days=np.array([0.0, 1.0]),
                           lon=np.array([0.0, 0.0]),
                           lat=np.array([lat, lat]))
        drift = route_foucault(track).delta_fou
        assert drift == pytest.approx(TWO_PI * math.sin(lat), abs=1e-10)

    equator = RouteTrack(t_days=np.array([0.0, 0.3, 0.7, 1.0]),
                         lon=np.array([0.0, 0.8 * PI, 1.5 * PI, TWO_PI]),
                         lat=np.zeros(4))
    assert route_foucault(equator).delta_fou == pytest.approx(0.0, abs=1e-10)


def random_closed_motion(rng):
    """3 to 8 affine segments, one full azimuthal lap, tilt band kept clear
    of the poles, random radii."""
    n_seg = int(rng.integers(3, 9))
    widths = rng.dirichlet(np.ones(n_seg)) * 0.5 + 0.5 / n_seg
    knots = np.concatenate([[0.0], np.cumsum(widths)])
    knots = knots / knots[-1]
    direction = 1.0 if rng.random() < 0.5 else -1.0
    fracs = rng.dirichlet(np.ones(n_seg)) * 0.5 + 0.5 / n_seg
    theta_vals = np.concatenate([[0.0],
                                 np.cumsum(direction * TWO_PI * fracs)])
    beta_vals = rng.uniform(0.35, PI - 0.35, n_seg + 1)
    beta_vals[-1] = beta_vals[0]
    theta_segs, beta_segs = [], []
    for i in range(n_seg):
        t0, t1 = float(knots[i]), float(knots[i + 1])
        theta_segs.append(AffineSegment(
            t0, t1, float(theta_vals[i]),
            float((theta_vals[i + 1] - theta_vals[i]) / (t1 - t0))))
        beta_segs.append(AffineSegment(
            t0, t1, float(beta_vals[i]),
            float((beta_vals[i + 1] - beta_vals[i]) / (t1 - t0))))
    radii = Radii(float(rng.uniform(0.6, 2.5)), float(rng.uniform(0.6, 2.5)))
    return MotionPath(ScalarPath.from_segments(theta_segs),
                      ScalarPath.from_segments(beta_segs), radii)


@pytest.mark.parametrize("seed", [20260823, 20261017])
def test_the_first_random_laps_are_all_simple(seed):
    """The benchmark pools take every draw of these seeds, so a change of
    the simplicity check that refused one would change the benchmark."""
    rng = np.random.default_rng(seed)
    for k in range(64):
        assert is_simple(regularize(random_closed_motion(rng))), k


def test_method_agreement_on_random_motions():
    """Six independent routes agree within 1e-3 on 50 random closed motions,
    and the rigid-body simulation agrees with their total."""
    rng = np.random.default_rng(20260823)
    accepted = 0
    worst_pairwise = 0.0
    worst_oracle = 0.0
    while accepted < 50:
        path = random_closed_motion(rng)
        assert topology_report(path).closed
        if not is_simple(regularize(path)):
            continue        # only simple instances participate
        accepted += 1

        values = {
            "line": geometric_phase_line(path),
            "baumkuchen": geometric_phase_baumkuchen(path, 10**6).centre,
            "area": geometric_phase_area(path),
            "curvature": geometric_phase_curvature(path),
            "monopole": monopole_holonomy(path),
            "berry": berry_holonomy(path),
        }
        names = list(values)
        for i, m_a in enumerate(names):
            for m_b in names[i + 1:]:
                diff = abs(values[m_a] - values[m_b])
                worst_pairwise = max(worst_pairwise, diff)
                assert diff <= 1e-3, f"{m_a} vs {m_b}: {diff:.3e}"

        trace = simulate_rolling(path, steps=5_000)
        oracle_geometric = trace.delta_oracle - dynamical_phase(path)
        diff = abs(oracle_geometric - values["line"])
        worst_oracle = max(worst_oracle, diff)
        assert diff <= 1e-3, f"oracle vs line: {diff:.3e}"

    assert accepted == 50
    assert worst_pairwise <= 1e-3
    assert worst_oracle <= 1e-3


def test_default_oracle_and_berry_keep_their_accuracy_on_random_laps():
    """At their default step counts the rigid-body oracle stays within 5e-8
    of delta_d + line (worst 2.1e-8 measured) and the Berry transport within
    1e-11 of line on the first 32 simple random laps of seed 20260823."""
    rng = np.random.default_rng(20260823)
    accepted = 0
    while accepted < 32:
        path = random_closed_motion(rng)
        if not is_simple(regularize(path)):
            continue
        accepted += 1
        line = geometric_phase_line(path)
        trace = simulate_rolling(path)
        # DEFAULT_STEPS rate evaluations per radian of the rotation bound
        ratio = path.radii.a / path.radii.b
        turn = sum((abs(db) + (ratio + 1.0) * abs(dth)) * (t1 - t0)
                   for t0, t1, _, dth, _, db in path.affine_pieces)
        assert trace.steps >= DEFAULT_STEPS * turn
        oracle_error = abs(trace.delta_oracle - (dynamical_phase(path) + line))
        assert oracle_error <= 5e-8, f"lap {accepted}: oracle {oracle_error:.3e}"
        berry_error = abs(berry_holonomy(path) - line)
        assert berry_error <= 1e-11, f"lap {accepted}: berry {berry_error:.3e}"


def test_gauge_difference_quantization():
    """The two patch circulations differ by exactly 4 pi n, and the three
    equivalent holonomy expressions agree."""
    for name, frozen in FROZEN.items():
        path = gallery(name)
        n = frozen[4]
        circ_plus = patch_circulation(path, PLUS_PATCH)
        circ_minus = patch_circulation(path, MINUS_PATCH)
        assert circ_plus - circ_minus == pytest.approx(
            4.0 * PI * n, abs=1e-8), name

        forms = (0.5 * (circ_plus + circ_minus),
                 circ_plus - TWO_PI * n,
                 circ_minus + TWO_PI * n)
        assert max(forms) - min(forms) <= 1e-6, name


def test_monopole_curl_convergence():
    """Finite-difference curl equals the radial unit field at second order,
    for both patches, at 100 random off-axis points."""
    rng = np.random.default_rng(6626070)
    for _ in range(100):
        r = rng.uniform(0.5, 2.0)
        polar = rng.uniform(0.3, PI - 0.3)
        azimuth = rng.uniform(0.0, TWO_PI)
        x = r * np.array([math.sin(polar) * math.cos(azimuth),
                          math.sin(polar) * math.sin(azimuth),
                          math.cos(polar)])
        exact = x / np.linalg.norm(x) ** 3
        for patch in (PLUS_PATCH, MINUS_PATCH):
            err_h = np.linalg.norm(curl_check(patch, x, 1e-3) - exact)
            err_half = np.linalg.norm(curl_check(patch, x, 5e-4) - exact)
            assert err_half <= 1e-3 * np.linalg.norm(exact)
            assert err_h / err_half == pytest.approx(4.0, abs=0.5)


def test_offset_length_derivative_matches_curvature():
    """First variation of length under a normal offset equals the geodesic
    curvature integral; latitude circles recover 2 pi cos(beta0)."""
    for name in ("i", "ii", "iii", "iv"):
        curve = regularize(gallery(name))
        lhs = offset_length_derivative(curve)
        rhs = curvature_integral(curve)
        assert abs(lhs - rhs) <= 1e-5 * max(abs(rhs), 1.0), name

    latitude = regularize(gallery("iv"))    # beta0 = pi/3
    for q in (1e-3, 5e-4):
        ratio = (offset_length(latitude, 0.0) - offset_length(latitude, q)) / q
        assert ratio == pytest.approx(TWO_PI * math.cos(PI / 3.0), abs=1e-6)


def test_region_area_identities():
    """Pole counts total two, the two region areas tile the sphere, and for
    one-pole-each-side curves the line integral equals A+ - 2 pi."""
    qualified = 0
    for name, frozen in FROZEN.items():
        path = gallery(name)
        curve = regularize(path)
        i_plus, i_minus = classify_poles(curve)
        assert i_plus + i_minus == 2, name

        gb_plus = gauss_bonnet_area(curve)
        sa_plus, sa_minus = region_areas(curve)
        assert abs(sa_plus + sa_minus - 4.0 * PI) <= 1e-12, name
        # the Romberg polygon area and the Gauss-Legendre boundary
        # quadrature differ by at most 1.1e-12 on the gallery (iv)
        assert abs(sa_plus - gb_plus) <= 2e-6, name

        if (i_plus, i_minus) == (1, 1) and pole_sides(curve)[0]:
            qualified += 1
            raw_line = geometric_phase_line(path)
            gb_half = gauss_bonnet_area(regularize(path, DEFAULT_EPSILON / 2))
            a_plus_limit = eps_extrapolate(DEFAULT_EPSILON, gb_plus, gb_half)
            assert raw_line == pytest.approx(a_plus_limit - TWO_PI,
                                             abs=1e-5), name
    # the polar-free loop fails the pole-count condition and the clockwise
    # lap keeps the north pole on its right, so four stock motions qualify
    assert qualified == 4
