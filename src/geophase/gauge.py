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
from .sphere import (DEFAULT_EPSILON, _gauss_legendre_sum,
                     clamped_affine_pieces, frame_rows)
from .phases import closed_topology
from .rolling import _GAUSS, _cross, _magnus_intervals, _magnus_steps

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


def _potential(s, x0, x1, x2):
    """The x and y rows of the patch potential A_s at the points
    (x0, x1, x2), s = +-1 per point or for all (the z row is 0): the one
    copy of the formula and of its clearance check. OnSingularAxis carries
    the worst angle from an excluded ray as its value and AXIS_CLEARANCE
    as its tol; at the origin it carries neither."""
    rho2 = x0 * x0 + x1 * x1
    r = np.sqrt(rho2 + x2 * x2)
    if np.any(r == 0.0):
        raise OnSingularAxis("potential undefined at the origin")
    z = s * x2
    angle = np.arctan2(np.sqrt(rho2), -z)
    worst = np.min(angle, initial=np.inf)
    if worst <= AXIS_CLEARANCE:
        sign = np.broadcast_to(s, angle.shape).flat[np.argmin(angle)]
        raise OnSingularAxis(
            f"point within {worst:.2e} rad of the "
            f"{GaugePatch(int(sign)).excluded_axis}",
            value=float(worst), tol=AXIS_CLEARANCE)
    # where z < 0, r + z would cancel and r + |z| = r - z
    denom = r * np.where(z < 0.0, rho2 / (r + np.abs(z)), r + z)
    return -s * x1 / denom, s * x0 / denom


def monopole_potential(patch: GaugePatch, x) -> np.ndarray:
    """Unit-charge monopole potential of one gauge patch at points x.

    A_sign(x) = sign (-y, x, 0) / (r (r + sign z)), with r + sign z taken
    as (x^2 + y^2)/(r - sign z) where sign z < 0; both patches have curl
    e3/r^2, and their difference is twice the azimuth gradient, which is
    what quantizes the holonomy difference to 4 pi n. Finite everywhere
    except the patch's excluded ray. x has shape (..., 3) and so has the
    result; a point at the origin or within AXIS_CLEARANCE = 1e-9 rad of
    that ray raises OnSingularAxis (_potential).
    """
    x = np.asarray(x, dtype=float)
    a0, a1 = _potential(patch.sign, x[..., 0], x[..., 1], x[..., 2])
    return np.stack([a0, a1, np.zeros_like(a0)], axis=-1)


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
    smooth integrand, no node within pi/2 of an excluded ray, and one
    evaluation of the potential over all nodes, s per node. The Cartesian
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
        g_dot = db * e2 + (dth * e2[2]) * e1   # e2's z row is sin(beta)
        s = sign if sign is not None else np.where(g[2] > 0.0, 1.0, -1.0)
        a0, a1 = _potential(s, *g)
        f = a0 * g_dot[0] + a1 * g_dot[1]
        return f if sign is not None else f - s * dth

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


def _transport_rate(e1, e2, dtheta, dbeta):
    """g x gdot = -beta' e1 + theta' sin(beta) e2, per component like e1
    and e2 (frame_rows): the rate whose rotation carries g along the curve
    and moves tangent vectors only along g, which is parallel transport."""
    return -dbeta * e1 + (dtheta * e2[2]) * e2   # e2's z row is sin(beta)


def berry_holonomy(path: MotionPath) -> float:
    """Geometric phase from Kato's adiabatic transport of the eigenstate.

    In SU(2) the transport of the +1 eigenstate is the rotation at rate
    g x gdot (_transport_rate). Each moving raw affine piece gets
    max(4, ceil((|theta'| + |beta'|)(t1 - t0) / _TRANSPORT_STEP)) uniform
    intervals (rolling._magnus_intervals, which raises TooManySamples past
    MAX_PIECE_SAMPLES), each one step of the oracle's SU(2) Magnus step
    (rolling._magnus_steps), with the frame evaluated once at each start,
    Gauss node and end. The step moves e2 and g from the start; the turn of
    the moved e2 against (e1, e2) at the end, one atan2 that never wraps,
    summed and negated is Delta_g. Nothing is clamped: the rate and frame
    are regular at the poles. The moved g must land on g at each end; a
    summed miss above _MISS_TOL = 1e-6 raises GaugeInconsistency.
    """
    closed_topology(path)
    pieces = [p for p in path.affine_pieces if p.moving]
    if not pieces:
        return 0.0
    t0, t1, th0, dth, b0, db = np.array(pieces).T
    # each interval's start, its Gauss nodes and its end
    _, piece, h, since = _magnus_intervals(
        np.maximum(4, np.ceil((np.abs(dth) + np.abs(db)) * (t1 - t0)
                              / _TRANSPORT_STEP)),
        np.zeros_like(t0), t1 - t0, "the transport", (0.0, *_GAUSS, 1.0))
    dth, db = dth[piece], db[piece]
    e1, e2, g = frame = frame_rows(th0[piece] + dth * since, b0[piece] + db * since)
    rate = _transport_rate(e1[:, 1:4], e2[:, 1:4], dth, db)
    step = _magnus_steps(*rate.swapaxes(0, 1), h)
    # e2 and g at each start, per component, rotated by the unit step
    # quaternion (w, u): v + 2 w u x v + 2 u x (u x v)
    w, u = step[0], step[1:]
    v = frame[1:, :, 0].swapaxes(0, 1)
    uv = _cross(u, v)
    moved_e2, moved_g = (v + 2.0 * (w * uv + _cross(u, uv))).swapaxes(0, 1)
    turn = np.arctan2(*np.einsum("kn,fkn->fn", moved_e2, frame[:2, :, 4]))
    off_curve = moved_g - g[:, 4]
    miss = float(np.sum(np.sqrt(np.einsum("kn,kn->n", off_curve, off_curve))))
    if miss > _MISS_TOL:
        raise GaugeInconsistency(
            f"transported normal misses the curve by {miss:.3e} in sum",
            value=miss, tol=_MISS_TOL)
    return -float(np.sum(turn))
