"""Adaptive Simpson quadrature for smooth scalar integrands.

scipy.integrate.quad is the general workhorse, but the phase integrals here
are evaluated piecewise on many tiny smooth intervals where a recursive
Simpson rule with Richardson extrapolation is cheaper and has predictable
failure semantics (bounded recursion depth, explicit error).
"""

from __future__ import annotations

from .errors import QuadratureFailure

MAX_DEPTH = 40


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12,
                     max_depth: int = MAX_DEPTH) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    Raises QuadratureFailure if the interval must be halved more than
    max_depth times without meeting the local error target.
    """
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _recurse(f, a, b, fa, fm, fb, whole, tol, max_depth, max_depth)


def _recurse(f, a, b, fa, fm, fb, whole, tol, depth, max_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise QuadratureFailure(
            f"interval [{a!r}, {b!r}] not converged at depth {max_depth}; "
            f"residual {abs(err) / 15.0:.3e} exceeds {tol:.3e}",
            value=abs(err) / 15.0, tol=tol)
    half = 0.5 * tol
    return (_recurse(f, a, m, fa, flm, fm, left, half, depth - 1, max_depth)
            + _recurse(f, m, b, fm, frm, fb, right, half, depth - 1, max_depth))
