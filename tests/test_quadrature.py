"""Adaptive Simpson integrator."""

import math

import pytest

from geophase.errors import QuadratureFailure
from geophase.quadrature import adaptive_simpson


def test_sine_integral():
    assert adaptive_simpson(math.sin, 0.0, math.pi, 1e-12) == pytest.approx(
        2.0, abs=1e-12)


def test_cubics_are_exact():
    # Simpson's rule is exact through degree three, adaptivity never splits
    value = adaptive_simpson(lambda x: 4.0 * x**3 - x + 2.0, -1.0, 2.0, 1e-13)
    assert value == pytest.approx(15.0 - 1.5 + 6.0, abs=1e-12)


def test_rapidly_varying_integrand():
    value = adaptive_simpson(lambda x: math.exp(-50.0 * x * x), -1.0, 1.0, 1e-12)
    assert value == pytest.approx(math.sqrt(math.pi / 50.0), abs=1e-10)


def test_additivity_over_subintervals():
    f = lambda x: math.cos(3.0 * x) + x
    whole = adaptive_simpson(f, 0.0, 2.0, 1e-12)
    split = (adaptive_simpson(f, 0.0, 0.7, 1e-12)
             + adaptive_simpson(f, 0.7, 2.0, 1e-12))
    assert whole == pytest.approx(split, abs=1e-11)


def test_depth_exhaustion_raises():
    with pytest.raises(QuadratureFailure) as info:
        adaptive_simpson(math.exp, 0.0, 1.0, 1e-15, max_depth=3)
    # the first interval to fail is the leftmost, after three halvings of tol
    assert info.value.tol == 1e-15 / 8.0
    assert info.value.value > info.value.tol
    assert f"residual {info.value.value:.3e} exceeds 1.250e-16" in str(info.value)
    # the message names the depth the caller asked for, not MAX_DEPTH
    assert "not converged at depth 3;" in str(info.value)
