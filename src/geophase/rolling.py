"""Rigid-body oracle for the rolling disc.

Reconstructs the full rotation matrix of the moving disc by integrating the
angular velocity that the no-slip and tangency constraints force at each
instant, then measures the spin about the contact normal directly from the
orientation history. Nothing here uses the surface geometry of the previous
modules beyond the shared frame definitions, which makes the result an
independent check on the phase decomposition.

Geometry: the fixed disc has radius a in the z = 0 plane, centered at the
origin. The moving disc has radius b, touches the fixed rim at
(a cos th, a sin th, 0), and is tilted so its unit normal is the tilt
vector g(th, b). Its center sits at distance b from the contact point along
the direction perpendicular to the rim tangent and to g.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .errors import ClosureMismatch, DriftExceeded, SingularSystem
from .motion import TWO_PI, MotionPath, Radii, topology_report
from .sphere import frame_vectors, gauss_vector

DRIFT_TOL = 1e-6
_MIN_STEPS_PER_SEGMENT = 10
_CLOSURE_TOL = 1e-2


@dataclass(frozen=True)
class RigidConfiguration:
    """Placement of the moving disc at one instant."""

    center: np.ndarray
    contact: np.ndarray
    normal: np.ndarray


def rigid_configuration(theta: float, beta: float, radii: Radii) -> RigidConfiguration:
    a, b = radii.a, radii.b
    center = np.array([(a + b * np.cos(beta)) * np.cos(theta),
                       (a + b * np.cos(beta)) * np.sin(theta),
                       b * np.sin(beta)])
    contact = np.array([a * np.cos(theta), a * np.sin(theta), 0.0])
    return RigidConfiguration(center=center, contact=contact,
                              normal=gauss_vector(theta, beta))


def _constraint_rows(theta, beta, dtheta, dbeta, a, b):
    """Stacked 4x3 constraint systems A w = rhs for arrays of instants.

    Rows 1-2: the normal g is materially attached to the disc, so
    w x g = g', projected on the rim frame (e1, e2). Rows 3-4: the contact
    point is instantaneously at rest, c' + w x (contact - center) = 0,
    projected likewise. Projections avoid the rank deficiency of the raw
    cross-product equations along g.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    dtheta = np.atleast_1d(np.asarray(dtheta, dtype=float))
    dbeta = np.atleast_1d(np.asarray(dbeta, dtype=float))
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
    d = -b * e2  # contact - center

    rows = np.stack([np.cross(g, e1), np.cross(g, e2),
                     np.cross(d, e1), np.cross(d, e2)], axis=-2)
    rhs = np.stack([np.einsum('...i,...i->...', g_dot, e1),
                    np.einsum('...i,...i->...', g_dot, e2),
                    -np.einsum('...i,...i->...', c_dot, e1),
                    -np.einsum('...i,...i->...', c_dot, e2)], axis=-1)
    return rows, rhs, g


def solve_body_rates(path: MotionPath, t: float):
    """Angular velocity of the disc at a single instant.

    Returns (omega, psi_dot, residual): the 3-vector least-squares solution
    of the constraint system, its component along the contact normal, and
    the constraint residual norm. At a stationary instant all constraints
    vanish and omega = 0.
    """
    rows, rhs, g = _constraint_rows(path.theta.value(t), path.beta.value(t),
                                    path.theta.slope(t), path.beta.slope(t),
                                    path.radii.a, path.radii.b)
    A, b_vec = rows[0], rhs[0]
    if max(np.abs(A).max(), np.abs(b_vec).max()) < 1e-12:
        return np.zeros(3), 0.0, 0.0
    omega, _, rank, _ = np.linalg.lstsq(A, b_vec, rcond=None)
    if rank < 3:
        raise SingularSystem(f"constraint system rank {rank} at t={t}")
    residual = float(np.linalg.norm(A @ omega - b_vec))
    return omega, float(omega @ g[0]), residual


@dataclass(frozen=True)
class OracleTrace:
    """Output of the orientation integration."""

    steps: int
    t: np.ndarray
    orientations: np.ndarray
    spin_rates: np.ndarray
    noslip_residuals: np.ndarray
    delta_oracle: float


def _rodrigues_steps(omega, dt):
    """Exact rotation exp(dt * hat(omega)) for each midpoint rate."""
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


def _vex(W):
    """Axial vectors of (stacked) antisymmetric parts."""
    S = 0.5 * (W - np.swapaxes(W, -1, -2))
    return np.stack([S[..., 2, 1], S[..., 0, 2], S[..., 1, 0]], axis=-1)


def simulate_rolling(path: MotionPath, steps: int = 100_000,
                     drift_tol: float = DRIFT_TOL,
                     closure_tol: float = _CLOSURE_TOL) -> OracleTrace:
    """Integrate the disc orientation over the whole motion.

    Midpoint rule: the constraint system is solved at each interval
    midpoint and each step is the exact rotation generated by that rate, so
    the scheme is second order in the step. The orientations are the prefix
    products of the steps, composed by doubling in log2(steps) array passes
    (Blelloch, CMU-CS-90-190). Every orientation's orthonormality drift is
    checked (DriftExceeded above drift_tol, 1e-6 by default); nothing is
    re-orthonormalized. The returned spin history is recovered from finite
    differences of the orientations themselves, not from the solved rates,
    and delta_oracle is minus its time integral. For a closed motion the
    final orientation must be a pure twist about the starting normal by
    minus the dynamical phase mod 2 pi (ClosureMismatch otherwise).
    """
    radii = path.radii
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, steps + 1),
                                     path.knots]))
    counts = np.diff(np.searchsorted(grid, path.knots))
    if counts.size and counts.min() < _MIN_STEPS_PER_SEGMENT:
        raise ValueError(
            f"only {counts.min()} steps on the shortest segment; "
            f"need at least {_MIN_STEPS_PER_SEGMENT}")
    dt = np.diff(grid)
    tm = grid[:-1] + 0.5 * dt

    rows, rhs, g_mid = _constraint_rows(
        path.theta.values(tm), path.beta.values(tm),
        path.theta.slopes(tm), path.beta.slopes(tm),
        radii.a, radii.b)
    # normal equations; the row set {e2, -e1, b g, 0} keeps A^T A uniformly
    # well conditioned (eigenvalues 1, 1, b^2), even at stationary instants
    rows_t = np.swapaxes(rows, -1, -2)
    omega = np.linalg.solve(rows_t @ rows, rows_t @ rhs[..., None])
    noslip = np.linalg.norm((rows @ omega)[..., 0] - rhs, axis=-1)
    omega = omega[..., 0]

    # R[k] = S[k-1] ... S[0]: after the pass with shift s, R[k] holds the
    # product of the (up to) 2s factors ending at k
    R = np.concatenate([np.eye(3)[None], _rodrigues_steps(omega, dt)])
    n_steps = R.shape[0] - 1
    shift = 1
    while shift <= n_steps:
        R[shift:] = R[shift:] @ R[:-shift]
        shift *= 2
    drift = np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max(axis=(1, 2))
    worst = int(np.argmax(drift))
    if drift[worst] > drift_tol:
        raise DriftExceeded(
            f"orthonormality drift {drift[worst]:.3e} after {worst} steps")

    # spin about the instantaneous normal, recovered from the orientations
    theta_grid = path.theta.values(grid)
    beta_grid = path.beta.values(grid)
    g_grid = gauss_vector(theta_grid, beta_grid)
    omega_rec = np.empty((n_steps + 1, 3))
    span = grid[2:] - grid[:-2]
    Rdot = (R[2:] - R[:-2]) / span[:, None, None]
    omega_rec[1:-1] = _vex(Rdot @ np.swapaxes(R[1:-1], -1, -2))
    omega_rec[0] = _vex(((R[1] - R[0]) / dt[0]) @ R[0].T)
    omega_rec[-1] = _vex(((R[-1] - R[-2]) / dt[-1]) @ R[-2].T)
    spin_rates = np.einsum('mi,mi->m', omega_rec, g_grid)
    delta_oracle = -float(np.trapezoid(spin_rates, grid))

    report = topology_report(path)
    if report.closed:
        # After a closed motion the normal and its transported frame return
        # to themselves, so R_N must be a twist about g(0); the twist angle
        # is minus the dynamical part of the spin (mod 2 pi). The geometric
        # part lives in the frame transport and cancels from the residual.
        g0 = g_grid[0]
        axis_err = float(np.linalg.norm(R[-1] @ g0 - g0))
        _, e2_0, _ = frame_vectors(theta_grid[0], beta_grid[0])
        turned = R[-1] @ e2_0
        chi = float(np.arctan2(turned @ np.cross(g0, e2_0), turned @ e2_0))
        twist_expected = -(radii.a / radii.b) * (theta_grid[-1] - theta_grid[0])
        mismatch = abs(_wrap_angle(chi - twist_expected))
        if axis_err > closure_tol or mismatch > closure_tol:
            raise ClosureMismatch(
                f"closed motion: axis error {axis_err:.3e}, "
                f"twist angle mismatch {mismatch:.3e}")

    return OracleTrace(steps=n_steps, t=grid, orientations=R,
                       spin_rates=spin_rates, noslip_residuals=noslip,
                       delta_oracle=delta_oracle)


def _wrap_angle(x: float) -> float:
    return (x + pi) % TWO_PI - pi
