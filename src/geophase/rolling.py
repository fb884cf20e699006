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
from math import isqrt, pi

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


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _constraint_rows(theta, beta, dtheta, dbeta, a, b):
    """Constraint systems A w = rhs for arrays of instants, per component.

    Rows 1-2: the normal g is materially attached to the disc, so
    w x g = g', projected on the rim frame (e1, e2). Rows 3-4: the contact
    point is instantaneously at rest, c' + w x (contact - center) = 0,
    projected likewise. Projections avoid the rank deficiency of the raw
    cross-product equations along g. Returns (rows, rhs, g): rows[r][k] is
    the 1-D array of entry (r, k) of A over the instants, rhs[r] that of the
    right-hand side and g[k] that of the normal.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    dtheta = np.atleast_1d(np.asarray(dtheta, dtype=float))
    dbeta = np.atleast_1d(np.asarray(dbeta, dtype=float))
    e1, e2, g = (v.T for v in frame_vectors(theta, beta))
    st, ct = np.sin(theta), np.cos(theta)
    sb, cb = np.sin(beta), np.cos(beta)

    g_dot = (dbeta * cb * ct - dtheta * sb * st,
             dbeta * cb * st + dtheta * sb * ct,
             dbeta * sb)
    ring = a + b * cb
    c_dot = (-b * sb * dbeta * ct - ring * st * dtheta,
             -b * sb * dbeta * st + ring * ct * dtheta,
             b * cb * dbeta)
    d = -b * e2  # contact - center

    rows = (_cross(g, e1), _cross(g, e2), _cross(d, e1), _cross(d, e2))
    rhs = (_dot(g_dot, e1), _dot(g_dot, e2), -_dot(c_dot, e1), -_dot(c_dot, e2))
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
    A, b_vec = np.array(rows)[:, :, 0], np.array(rhs)[:, 0]
    if max(np.abs(A).max(), np.abs(b_vec).max()) < 1e-12:
        return np.zeros(3), 0.0, 0.0
    omega, _, rank, _ = np.linalg.lstsq(A, b_vec, rcond=None)
    if rank < 3:
        raise SingularSystem(f"constraint system rank {rank} at t={t}")
    residual = float(np.linalg.norm(A @ omega - b_vec))
    return omega, float(omega @ np.array(g)[:, 0]), residual


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
    """Exact rotations exp(dt * hat(omega)), shape (n, 3, 3), for rates
    given per component (omega[k] is the 1-D array of component k)."""
    rate = np.sqrt(_dot(omega, omega))
    phi = rate * dt
    safe = np.where(phi > 0.0, rate, 1.0)
    ux, uy, uz = (w / safe for w in omega)
    s, c = np.sin(phi), 1.0 - np.cos(phi)
    # I + sin(phi) K + (1 - cos(phi)) K^2 with K = hat(u)
    R = np.empty((phi.size, 3, 3))
    R[:, 0, 0] = 1.0 - c * (uy * uy + uz * uz)
    R[:, 1, 1] = 1.0 - c * (ux * ux + uz * uz)
    R[:, 2, 2] = 1.0 - c * (ux * ux + uy * uy)
    R[:, 0, 1] = c * ux * uy - s * uz
    R[:, 1, 0] = c * ux * uy + s * uz
    R[:, 0, 2] = c * ux * uz + s * uy
    R[:, 2, 0] = c * ux * uz - s * uy
    R[:, 1, 2] = c * uy * uz - s * ux
    R[:, 2, 1] = c * uy * uz + s * ux
    return R


def _prefix_products(steps):
    """R[0] = I and R[k] = S[k-1] ... S[0] for stacked steps S (n, 3, 3).

    Blocked two-level scan (Blelloch, CMU-CS-90-190): the n + 1 factors
    [I, S_0, S_1, ...] are cut into blocks of B = ceil(sqrt(n + 1)), padded
    with identities. B - 1 stacked passes form the running products inside
    every block, one carry per block chains the block totals, and one last
    pass applies each block's carry.
    """
    total = steps.shape[0] + 1
    size = isqrt(total - 1) + 1
    blocks = -(-total // size)
    R = np.empty((blocks * size, 3, 3))
    R[0] = np.eye(3)
    R[1:total] = steps
    R[total:] = np.eye(3)
    X = R.reshape(blocks, size, 3, 3)
    for p in range(1, size):
        X[:, p] = X[:, p] @ X[:, p - 1]
    carry = np.empty((blocks, 3, 3))
    carry[0] = np.eye(3)
    for k in range(1, blocks):
        carry[k] = X[k - 1, -1] @ carry[k - 1]
    X[1:] = X[1:] @ carry[1:, None]
    return R[:total]


def _normal_solve(rows, rhs):
    """Least-squares rates of the per-component 4x3 systems, and their
    residual norms (the no-slip residuals).

    The 3x3 normal equations N w = A^T rhs are solved by cofactors. The
    row set {e2, -e1, b g, 0} keeps N = A^T A uniformly well conditioned
    (eigenvalues 1, 1, b^2), even at stationary instants.
    """
    n00, n11, n22, n01, n02, n12 = (
        sum(row[p] * row[q] for row in rows)
        for p, q in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))
    y0, y1, y2 = (sum(row[p] * r for row, r in zip(rows, rhs)) for p in range(3))
    c00, c11, c22 = n11 * n22 - n12 * n12, n00 * n22 - n02 * n02, n00 * n11 - n01 * n01
    c01, c02, c12 = n02 * n12 - n01 * n22, n01 * n12 - n02 * n11, n01 * n02 - n00 * n12
    det = n00 * c00 + n01 * c01 + n02 * c02
    omega = ((c00 * y0 + c01 * y1 + c02 * y2) / det,
             (c01 * y0 + c11 * y1 + c12 * y2) / det,
             (c02 * y0 + c12 * y1 + c22 * y2) / det)
    residual = np.sqrt(sum((_dot(row, omega) - r) ** 2 for row, r in zip(rows, rhs)))
    return omega, residual


def simulate_rolling(path: MotionPath, steps: int = 100_000,
                     drift_tol: float = DRIFT_TOL,
                     closure_tol: float = _CLOSURE_TOL) -> OracleTrace:
    """Integrate the disc orientation over the whole motion.

    Midpoint rule: the constraint system is solved at each interval
    midpoint and each step is the exact rotation generated by that rate, so
    the scheme is second order in the step. Rates, rotations and the spin
    recovery are computed per vector component over all instants at once,
    and the 3x3 normal equations are solved by cofactors. The orientations
    are the prefix products of the steps, composed by a blocked two-level
    scan in about 2 sqrt(steps) array passes (see _prefix_products). Every
    orientation's orthonormality drift is checked (DriftExceeded above
    drift_tol, 1e-6 by default); nothing is re-orthonormalized. The
    returned spin history is recovered from finite differences of the
    orientations themselves, not from the solved rates, and delta_oracle is
    minus its time integral. For a closed motion the final orientation must
    be a pure twist about the starting normal by minus the dynamical phase
    mod 2 pi (ClosureMismatch otherwise).
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

    omega, noslip = _normal_solve(*_constraint_rows(
        path.theta.values(tm), path.beta.values(tm),
        path.theta.slopes(tm), path.beta.slopes(tm),
        radii.a, radii.b)[:2])

    R = _prefix_products(_rodrigues_steps(omega, dt))
    n_steps = R.shape[0] - 1
    # orthonormality drift of every orientation: the six distinct entries
    # of R^T R - I as column dot products
    cols = [R[:, :, k] for k in range(3)]
    drift = np.max([np.abs(np.einsum("ij,ij->i", cols[p], cols[q]) - (p == q))
                    for p, q in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))],
                   axis=0)
    worst = int(np.argmax(drift))
    if drift[worst] > drift_tol:
        raise DriftExceeded(
            f"orthonormality drift {drift[worst]:.3e} after {worst} steps")

    # spin about the instantaneous normal, recovered from the orientations:
    # Rdot by central differences (one-sided at the two ends) against the
    # orientation at the base point, spin = g . vex(Rdot R^T)
    theta_grid = path.theta.values(grid)
    beta_grid = path.beta.values(grid)
    g_grid = gauss_vector(theta_grid, beta_grid)
    lo = np.r_[0, np.arange(n_steps)]
    hi = np.r_[np.arange(1, n_steps + 1), n_steps]
    D = R[hi]
    D -= R[lo]
    B = R[np.r_[np.arange(n_steps), n_steps - 1]]

    def w(i, j):
        return D[:, i, 0] * B[:, j, 0] + D[:, i, 1] * B[:, j, 1] + D[:, i, 2] * B[:, j, 2]

    gx, gy, gz = g_grid.T
    spin_rates = 0.5 * (gx * (w(2, 1) - w(1, 2)) + gy * (w(0, 2) - w(2, 0))
                        + gz * (w(1, 0) - w(0, 1))) / (grid[hi] - grid[lo])
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
