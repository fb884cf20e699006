"""Monopole potentials and two-level-system connections.

Two more independent routes to the geometric phase. The first integrates
the classic unit-charge monopole vector potentials (one gauge patch regular
away from the south ray, one away from the north ray) along the clamped
curve of the tilt vector, each piece by fixed-order Gauss-Legendre
quadrature in one array pass. The second transports the eigenstates of the
two-level Hamiltonian H = [[-cos b, e^{-i th} sin b], [e^{i th} sin b,
cos b]] around the loop and takes, per sample interval, the phase of the
product of its sub-step state overlaps (a discrete Bargmann invariant),
which cannot wrap while the interval turns theta by less than pi. Each
route carries an internal cross-gauge consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GaugeInconsistency, OnSingularAxis, QuadratureFailure
from .motion import TWO_PI, MotionPath
from .sphere import DEFAULT_EPSILON, cached_regularize, clamped_affine_pieces
from .phases import closed_topology, eps_limit

AXIS_CLEARANCE = 1e-9
_QUAD_ORDERS = (16, 24)   # Gauss-Legendre node counts compared per piece
_QUAD_TOL = 1e-11


@dataclass(frozen=True)
class GaugePatch:
    """One of the two monopole gauge patches, labeled by sign = +-1."""

    sign: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError(f"patch sign must be +1 or -1, got {self.sign!r}")

    @property
    def excluded_axis(self) -> str:
        return "south ray z <= -r" if self.sign > 0 else "north ray z >= r"


PLUS_PATCH = GaugePatch(+1)
MINUS_PATCH = GaugePatch(-1)


def monopole_potential(patch: GaugePatch, x) -> np.ndarray:
    """Unit-charge monopole potential of one gauge patch at points x.

    A_sign(x) = sign (-y, x, 0) / (r (r + sign z)); both patches have curl
    e3/r^2, and their difference is twice the azimuth gradient, which is
    what quantizes the holonomy difference to 4 pi n. Finite everywhere
    except the patch's excluded ray. x has shape (..., 3) and so has the
    result; if any point is the origin or lies within 1e-9 angular
    clearance of that ray, OnSingularAxis is raised, naming the worst angle.
    """
    x = np.asarray(x, dtype=float)
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    r = np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    if np.any(r == 0.0):
        raise OnSingularAxis("potential undefined at the origin")
    worst = float(np.min(np.arctan2(np.hypot(x0, x1), -patch.sign * x2)))
    if worst <= AXIS_CLEARANCE:
        raise OnSingularAxis(
            f"point within {worst:.2e} rad of the {patch.excluded_axis}")
    denom = r * (r + patch.sign * x2)
    return (patch.sign * np.stack([-x1, x0, np.zeros_like(x0)], axis=-1)
            / denom[..., None])


def curl_check(patch: GaugePatch, x, h: float) -> np.ndarray:
    """Central-difference curl of the patch potential at x; expect e3/r^2."""
    x = np.asarray(x, dtype=float)
    jac = np.empty((3, 3))
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        jac[i] = (monopole_potential(patch, x + step)
                  - monopole_potential(patch, x - step)) / (2.0 * h)
    return np.array([jac[1, 2] - jac[2, 1],
                     jac[2, 0] - jac[0, 2],
                     jac[0, 1] - jac[1, 0]])


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    return np.polynomial.legendre.leggauss(n)


def _patch_circulation(path: MotionPath, eps: float, sign: int) -> float:
    """Line integral of A_sign along the clamped curve, piece by piece.

    The integrand couples the Cartesian potential to the Cartesian velocity
    of the tilt vector, so this route never touches the cos(beta) d(theta)
    simplification used by the reference method. Every moving piece is
    integrated by Gauss-Legendre rules of both _QUAD_ORDERS in one array
    pass; the clamped tilt spans at most pi on a piece, where both rules
    are at rounding level, so a piece whose two results differ by more
    than _QUAD_TOL raises QuadratureFailure.
    """
    pieces = [p for p in clamped_affine_pieces(path, eps) if p.moving]
    if not pieces:
        return 0.0
    half, th0, dth, b0, db = (np.array(c)[:, None] for c in zip(
        *((0.5 * (p.t1 - p.t0), p.th0, p.dth, p.b0, p.db) for p in pieces)))
    rules = [_gauss_legendre(n) for n in _QUAD_ORDERS]
    dt = half * (1.0 + np.concatenate([x for x, _ in rules]))
    th, b = th0 + dth * dt, b0 + db * dt
    sb, cb = np.sin(b), np.cos(b)
    st, ct = np.sin(th), np.cos(th)
    g = np.stack([sb * ct, sb * st, -cb], axis=-1)
    g_dot = np.stack([db * cb * ct - dth * sb * st,
                      db * cb * st + dth * sb * ct,
                      db * sb], axis=-1)
    f = np.sum(monopole_potential(GaugePatch(sign), g) * g_dot, axis=-1)
    split = rules[0][0].size
    low = half[:, 0] * (f[:, :split] @ rules[0][1])
    high = half[:, 0] * (f[:, split:] @ rules[1][1])
    diff = np.abs(high - low)
    k = int(np.argmax(diff))
    if not diff[k] <= _QUAD_TOL:
        raise QuadratureFailure(
            f"Gauss-Legendre orders {_QUAD_ORDERS[0]} and {_QUAD_ORDERS[1]} "
            f"differ by {diff[k]:.3e} on [{pieces[k].t0!r}, {pieces[k].t1!r}] "
            f"(tolerance {_QUAD_TOL:.1e})",
            value=float(diff[k]), tol=_QUAD_TOL)
    return float(np.sum(high))


def patch_circulation(path: MotionPath, patch: GaugePatch,
                      eps: float = DEFAULT_EPSILON) -> float:
    """Circulation of one patch potential around the clamped closed curve.

    Exposed so callers can probe the raw single-patch integrals, e.g. to
    check that the two patches differ by exactly 4 pi n.
    """
    closed_topology(path)
    return _patch_circulation(path, eps, patch.sign)


def monopole_holonomy(path: MotionPath, eps: float = DEFAULT_EPSILON,
                      tol: float = 1e-6, extrapolate: bool = True) -> float:
    """Geometric phase from the monopole potentials (r = 1).

    Evaluates the averaged-patch circulation and both single-patch forms
    shifted by the 2 pi n winding term; the three must agree within tol
    (GaugeInconsistency otherwise). Each circulation is a Gauss-Legendre
    sum over the moving clamped pieces (see _patch_circulation). Returns
    the averaged form, carried to the eps -> 0 limit unless extrapolate is
    False.
    """
    shift = TWO_PI * closed_topology(path).n
    circ_plus = _patch_circulation(path, eps, +1)
    circ_minus = _patch_circulation(path, eps, -1)
    forms = (0.5 * (circ_plus + circ_minus),
             circ_plus - shift,
             circ_minus + shift)
    spread = max(forms) - min(forms)
    if spread > tol:
        raise GaugeInconsistency(
            f"monopole holonomy forms spread {spread:.3e} at eps={eps:.4f}",
            value=spread, tol=tol)
    return eps_limit(path, forms[0], eps, extrapolate)


# ---------------------------------------------------------------------------
# two-level system


_OVERLAP_REFINE = 8


def _overlap_phase_sums(theta, beta, refine: int = _OVERLAP_REFINE):
    """(gamma_plus, gamma_minus): summed overlap phases of consecutive
    gauge-fixed states in both gauges, loop closed.

    With s = sin(beta/2), c = cos(beta/2) and d = theta' - theta, the
    overlap <psi|psi'> is s s' + e^{i d} c c' in the plus gauge and
    c c' + e^{-i d} s s' in the minus gauge. (theta, beta) are affine
    between samples, so each interval is split into refine sub-steps: the
    phasor c + i s of the sample is rotated by e^{i dbeta / (2 refine)} per
    sub-step, ending on the exact next sample, and d = dtheta / refine.
    The sub-step overlaps are multiplied, one contiguous row per sub-step,
    and one atan2 per interval and gauge takes the phase of the product.
    As s, c >= 0, an overlap's phase lies between 0 and +-d, so an
    interval's phases sum to less than |dtheta|: while |dtheta| < pi the
    product's phase is that sum and cannot wrap. A larger step raises
    GaugeInconsistency. The closure pair last -> first, which carries the
    2 pi n jump, is one uninterpolated overlap.
    """
    if theta.size < 2:
        return 0.0, 0.0
    dtheta = np.diff(theta)
    k = int(np.argmax(np.abs(dtheta)))
    jump = abs(float(dtheta[k]))
    if not jump < np.pi:
        raise GaugeInconsistency(
            f"theta step {jump:.3e} between samples {k} and {k + 1} is not "
            f"below pi, so its overlap product could wrap",
            value=jump, tol=np.pi)
    half = 0.5 * beta
    c_all, s_all = np.cos(half), np.sin(half)
    rot = np.diff(half) / refine
    rc, rs = np.cos(rot), np.sin(rot)
    step = dtheta / refine
    ec, es = np.cos(step), np.sin(step)
    c0, s0 = c_all[:-1], s_all[:-1]
    plus = minus = (1.0, 0.0)
    for j in range(1, refine + 1):
        if j < refine:
            c1, s1 = c0 * rc - s0 * rs, s0 * rc + c0 * rs
        else:
            c1, s1 = c_all[1:], s_all[1:]
        cc, ss = c0 * c1, s0 * s1
        sub_plus = (ss + cc * ec, cc * es)
        sub_minus = (cc + ss * ec, -ss * es)
        plus = _complex_product(plus, sub_plus)
        minus = _complex_product(minus, sub_minus)
        c0, s0 = c1, s1
    close = float(theta[0] - theta[-1])
    cc, ss = c_all[-1] * c_all[0], s_all[-1] * s_all[0]
    gamma_plus = (np.sum(np.arctan2(plus[1], plus[0]))
                  + np.arctan2(cc * np.sin(close), ss + cc * np.cos(close)))
    gamma_minus = (np.sum(np.arctan2(minus[1], minus[0]))
                   + np.arctan2(-ss * np.sin(close), cc + ss * np.cos(close)))
    return float(gamma_plus), float(gamma_minus)


def _complex_product(a, b):
    """(re, im) of the elementwise product of a = (re, im) and b = (re, im)."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def berry_holonomy(path: MotionPath, eps: float = DEFAULT_EPSILON,
                   extrapolate: bool = True, tol: float = 1e-6) -> float:
    """Geometric phase from discrete parallel transport of the eigenstates.

    Works entirely from state overlaps between curve samples (no closed-form
    connection), in both gauges: each sample interval contributes the phase
    of the product of its _OVERLAP_REFINE sub-step overlaps, which equals
    the sum of their phases because the interval turns theta by less than
    pi (see _overlap_phase_sums). The combined form
    gamma_plus + gamma_minus and the single-gauge forms
    2 gamma_plus - 2 pi n, 2 gamma_minus + 2 pi n must agree within tol
    (GaugeInconsistency otherwise). Returns the combined form, carried to
    the eps -> 0 limit unless extrapolate is False.
    """
    shift = TWO_PI * closed_topology(path).n
    curve = cached_regularize(path, eps)
    gamma_plus, gamma_minus = _overlap_phase_sums(curve.theta, curve.beta_eps)
    forms = (gamma_plus + gamma_minus,
             2.0 * gamma_plus - shift,
             2.0 * gamma_minus + shift)
    spread = max(forms) - min(forms)
    if spread > tol:
        raise GaugeInconsistency(
            f"transport holonomy forms spread {spread:.3e} at eps={eps:.4f}",
            value=spread, tol=tol)
    return eps_limit(path, forms[0], eps, extrapolate)
