"""Monopole potentials and two-level-system transport.

Two more independent routes to the geometric phase, both on the raw affine
pieces with nothing clamped. The first integrates the classic unit-charge
monopole vector potentials (one gauge patch regular away from the south
ray, one away from the north ray) in Wu and Yang's bundle form, each node
taking the patch regular on its hemisphere, each piece by fixed-order
Gauss-Legendre quadrature in one array pass, checked against a rule of
higher order. The second carries the eigenstate of the two-level Hamiltonian
H = [[-cos b, e^{-i th} sin b], [e^{i th} sin b, cos b]] around the loop
by Kato's adiabatic transport (Kato, J. Phys. Soc. Jpn. 5 (1950) 435;
Berry, Proc. R. Soc. A 392 (1984) 45): a rotation integrated by sixth-order
Magnus steps, reading the phase off the turn of a transported tangent vector
against the gauge frame. It needs no curve samples, and checks that the
transported normal stays on the curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GaugeInconsistency, OnSingularAxis
from .motion import MotionPath
from .sphere import (DEFAULT_EPSILON, _gauss_legendre_sum, _row_dot,
                     clamped_affine_pieces, frame_rows)
from .phases import closed_topology
from .rolling import _magnus_intervals, _magnus_steps, _matrices

AXIS_CLEARANCE = 1e-9


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

    A_sign(x) = sign (-y, x, 0) / (r (r + sign z)), with r + sign z taken
    as (x^2 + y^2)/(r - sign z) where sign z < 0; both patches have curl
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
    worst = np.min(np.arctan2(np.hypot(x0, x1), -patch.sign * x2), initial=np.inf)
    if worst <= AXIS_CLEARANCE:
        raise OnSingularAxis(
            f"point within {worst:.2e} rad of the {patch.excluded_axis}")
    z = patch.sign * x2
    # where z < 0, r + z would cancel and r + |z| = r - z
    denom = r * np.where(z < 0.0, (x0 * x0 + x1 * x1) / (r + np.abs(z)), r + z)
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


def _circulation(pieces, sign: int | None) -> float:
    """Line integral of a monopole potential along the moving pieces.

    Every node takes A_sign, or with sign None the patch s regular on its
    hemisphere (s = +1 where g_z > 0) plus Wu and Yang's transition term
    -s theta' (A_+ - A_- = 2 d theta; Phys. Rev. D 12 (1975) 3845): one
    smooth integrand, no node within pi/2 of an excluded ray. The Cartesian
    potential meets the tilt vector's Cartesian velocity, never the
    reference method's cos(beta) d(theta). A piece's tilt spans at most pi,
    where the Gauss-Legendre rules of both sphere._QUAD_ORDERS are at
    rounding level; two results more than _QUAD_TOL apart raise
    QuadratureFailure (sphere._gauss_legendre_sum).
    """
    pieces = [p for p in pieces if p.moving]
    if not pieces:
        return 0.0
    t0, t1, th0, dth, b0, db = (np.array(c)[:, None] for c in zip(*pieces))

    def integrand(dt):
        e1, e2, g = frame_rows(th0 + dth * dt, b0 + db * dt)
        turn = dth * e2[2]   # theta' sin(beta): e2's z row is sin(beta)
        g_dot = [db * u + turn * v for u, v in zip(e2, e1)]
        s = np.where(g[2] > 0.0, 1, -1) if sign is None else np.full(turn.shape, sign)
        f = -s * dth if sign is None else np.zeros(turn.shape)
        points = np.stack(g, axis=-1)   # monopole_potential takes (..., 3)
        for patch in (PLUS_PATCH, MINUS_PATCH):
            on = s == patch.sign
            f[on] += _row_dot(monopole_potential(patch, points[on]).T,
                              [v[on] for v in g_dot])
        return f

    return _gauss_legendre_sum(t0[:, 0], t1[:, 0], integrand)


def patch_circulation(path: MotionPath, patch: GaugePatch,
                      eps: float = DEFAULT_EPSILON) -> float:
    """Circulation of one patch potential around the clamped closed curve.

    Exposed so callers can probe the raw single-patch integrals, e.g. to
    check that the two patches differ by exactly 4 pi n.
    """
    closed_topology(path)
    return _circulation(clamped_affine_pieces(path, eps), patch.sign)


def monopole_holonomy(path: MotionPath) -> float:
    """Geometric phase from the monopole potentials (r = 1): the Wu-Yang
    circulation over the raw pieces (_circulation), nothing clamped."""
    closed_topology(path)
    return _circulation(path.affine_pieces, None)


# ---------------------------------------------------------------------------
# two-level system


_TRANSPORT_STEP = 0.05   # most radians of tilt sweep, |dtheta| + |dbeta|, per interval
_MISS_TOL = 1e-6         # bound on the summed transport miss of berry_holonomy


def _transport_rate(theta, beta, dtheta, dbeta):
    """g x gdot = -beta' e1 + theta' sin(beta) e2, shape (3, n): the rate
    whose rotation carries g along the curve and moves tangent vectors only
    along g, which is parallel transport."""
    e1, e2, _ = frame_rows(theta, beta)
    turn = dtheta * e2[2]   # e2's z row is sin(beta)
    return np.array([-dbeta * u + turn * v for u, v in zip(e1, e2)])


def berry_holonomy(path: MotionPath) -> float:
    """Geometric phase from Kato's adiabatic transport of the eigenstate.

    In SU(2) the transport of the +1 eigenstate is the rotation at rate
    g x gdot (_transport_rate). Each moving raw affine piece gets
    max(4, ceil((|theta'| + |beta'|)(t1 - t0) / _TRANSPORT_STEP)) uniform
    intervals, each one sixth-order three-point Gauss Magnus step
    (rolling._magnus_steps). Per interval, e2 at its start is transported
    and its turn against the gauge frame (e1, e2) at its end read by one
    atan2; a turn is at most the interval's sweep, so none wraps, and
    Delta_g is minus their sum. The rate and frame are regular at the
    poles, so nothing is clamped. The transported g must land on g at each
    interval's end; a summed miss above _MISS_TOL = 1e-6 raises
    GaugeInconsistency. More than MAX_PIECE_SAMPLES intervals in all raise
    TooManySamples (rolling._magnus_intervals).
    """
    closed_topology(path)
    pieces = [p for p in path.affine_pieces if p.moving]
    if not pieces:
        return 0.0
    t0, t1, th0, dth, b0, db = np.array(pieces).T
    _, piece, start, h, nodes = _magnus_intervals(
        np.maximum(4, np.ceil((np.abs(dth) + np.abs(db)) * (t1 - t0)
                              / _TRANSPORT_STEP)),
        np.zeros_like(t0), t1 - t0, "the transport")
    th0, dth, b0, db = th0[piece], dth[piece], b0[piece], db[piece]

    def at(since):
        return th0 + dth * since, b0 + db * since

    R = _matrices(_magnus_steps(*(_transport_rate(*at(x), dth, db) for x in nodes), h))
    _, e2, g = frame_rows(*at(start))
    e1_end, e2_end, g_end = frame_rows(*at(start + h))
    moved = [_row_dot(row, e2) for row in R]
    turn = np.arctan2(_row_dot(moved, e1_end), _row_dot(moved, e2_end))
    off_curve = [_row_dot(row, g) - x for row, x in zip(R, g_end)]
    miss = float(np.sum(np.sqrt(_row_dot(off_curve, off_curve))))
    if miss > _MISS_TOL:
        raise GaugeInconsistency(
            f"transported normal misses the curve by {miss:.3e} in sum",
            value=miss, tol=_MISS_TOL)
    return -float(np.sum(turn))
