"""Rigid-body oracle for the rolling disc.

Reconstructs the orientation of the moving disc by integrating the angular
velocity that the no-slip and tangency constraints force at each instant,
then measures the spin about the contact normal directly from the
orientation history. Nothing here uses the surface geometry of the previous
modules beyond the shared frame definitions, which makes the result an
independent check on the phase decomposition.

The orientation is a unit quaternion (Euler-Rodrigues parameters; Shoemake,
SIGGRAPH 1985) held per component as a (4, n) array. Each affine piece of
the motion gets its own uniform grid, so no interval straddles a knot, and
each interval is one fourth-order two-point Gauss Magnus step: the rates at
the two Gauss nodes give the step's rotation vector, whose exact half-angle
quaternion is the step. The steps are composed by a blocked recursive scan
(Blelloch, CMU-CS-90-190) with log-depth scans inside blocks of 8 (Hillis &
Steele, CACM 29 (1986) 1170): four whole-array passes per level, 15 in all
for the default 2000 intervals.
Orthonormality drift is read off the norm, | |q|^4 - 1 |, and the spin
comes from fourth-order quaternion differences within each piece, so no
3x3 matrix is formed except on request (OracleTrace.orientations) and for
the closure check on the final orientation. `steps` counts rate
evaluations (constraint solves), two per interval.

Within a piece theta, beta and their slopes are one multiply-add away from
the piece's affine data. Each instant's sines and cosines are taken once
and give the frame, the normal and their derivatives. The pointwise chain
(constraint rows, normal solve) runs in chunks of _CHUNK rate evaluations,
so its temporaries stay in cache.

Geometry: the fixed disc has radius a in the z = 0 plane, centered at the
origin. The moving disc has radius b, touches the fixed rim at
(a cos th, a sin th, 0), and is tilted so its unit normal is the tilt
vector g(th, b). Its center sits at distance b from the contact point along
the direction perpendicular to the rim tangent and to g.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .errors import ClosureMismatch, DriftExceeded
from .motion import TWO_PI, MotionPath, topology_report
from .sphere import MAX_PIECE_SAMPLES, frame_vectors

DEFAULT_STEPS = 4000   # oracle rate evaluations, two per Magnus interval
DRIFT_TOL = 1e-6
_MIN_STEPS_PER_SEGMENT = 10
_CLOSURE_TOL = 1e-2


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
    st, ct = np.sin(theta), np.cos(theta)
    sb, cb = np.sin(beta), np.cos(beta)
    e1 = (-st, ct, 0.0)   # the frame of sphere.frame_vectors, per component
    e2 = (cb * ct, cb * st, sb)
    g = (sb * ct, sb * st, -cb)

    g_dot = (dbeta * cb * ct - dtheta * sb * st,
             dbeta * cb * st + dtheta * sb * ct,
             dbeta * sb)
    ring = a + b * cb
    c_dot = (-b * sb * dbeta * ct - ring * st * dtheta,
             -b * sb * dbeta * st + ring * ct * dtheta,
             b * cb * dbeta)
    d = tuple(-b * e for e in e2)  # contact - center

    rows = (_cross(g, e1), _cross(g, e2), _cross(d, e1), _cross(d, e2))
    rhs = (_dot(g_dot, e1), _dot(g_dot, e2), -_dot(c_dot, e1), -_dot(c_dot, e2))
    return rows, rhs, g


@dataclass(frozen=True)
class OracleTrace:
    """Output of the orientation integration.

    t is the per-piece node grid: the nodes of each affine piece's uniform
    grid in turn, so an interior knot appears twice, as the end of one piece
    and the start of the next. quaternions[:, k] is the orientation at t[k]
    as a quaternion (w, x, y, z) of norm 1 up to rounding (never
    renormalized), and spin_rates[k] the spin about the normal there, read
    from the quaternions of t[k]'s own piece; orientations is the same
    history as (len(t), 3, 3) rotation matrices, built on access. steps
    counts the rate evaluations, two per interval, and noslip_residuals
    holds, per interval, the larger of the constraint residuals at its two
    Gauss nodes. The constraints are solved in units of the rolling radius
    b, so the contact-velocity part of a residual is a velocity divided by
    b (the normal's part is a rate either way).
    """

    steps: int
    t: np.ndarray
    quaternions: np.ndarray
    spin_rates: np.ndarray
    noslip_residuals: np.ndarray
    delta_oracle: float

    @property
    def orientations(self) -> np.ndarray:
        return np.moveaxis(_matrices(self.quaternions), -1, 0)


# scan block length, a power of 2: log2(_BLOCK) Hillis & Steele passes per
# level against more levels of carries (Blelloch)
_BLOCK = 8
_CHUNK = 8192  # rate evaluations per pass of the constraint solve: fits in cache


def _qmul(p, q):
    """Hamilton product p q of quaternions given per component (w, x, y, z)."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0)


def _rodrigues_steps(omega, dt):
    """Exact rotations exp(dt * hat(omega)) as half-angle quaternions
    (cos(phi/2), sin(phi/2) u), shape (4, n), for rates given per component
    (omega[k] is the 1-D array of component k)."""
    rate = np.sqrt(_dot(omega, omega))
    half = 0.5 * rate * dt
    scale = np.sin(half) / np.where(half > 0.0, rate, 1.0)
    S = np.empty((4, half.size))
    S[0] = np.cos(half)
    for k in range(3):
        np.multiply(omega[k], scale, out=S[k + 1])
    return S


def _identities(n):
    """(4, n) identity quaternions, n rounded up to whole scan blocks."""
    Q = np.zeros((4, -(-n // _BLOCK) * _BLOCK))
    Q[0] = 1.0
    return Q


def _scan(Q):
    """In place, Q[:, k] <- Q[:, k] ... Q[:, 1] Q[:, 0]; Q.shape[1] is a
    multiple of _BLOCK.

    Blocked recursive scan (Blelloch, CMU-CS-90-190) with a log-depth scan
    inside each block (Hillis & Steele, CACM 29 (1986) 1170): pass s = 1,
    2, 4, ... multiplies each element by the one s places back, reading the
    values of the previous pass, so log2(_BLOCK) passes form the running
    products inside every block at once. The block totals are scanned by
    the same routine, and one broadcast pass applies each block's carry.
    The passes run on a block-minor copy, so each reads contiguous rows.
    """
    blocks = Q.shape[1] // _BLOCK
    X = np.empty((4, _BLOCK, blocks))   # X[:, p, j] = Q[:, j * _BLOCK + p]
    X[...] = Q.reshape(4, blocks, _BLOCK).transpose(0, 2, 1)
    s = 1
    while s < _BLOCK:
        X[:, s:] = _qmul(X[:, s:], X[:, :-s])
        s *= 2
    if blocks > 1:
        carry = _identities(blocks)
        carry[:, 1:blocks] = X[:, -1, :-1]
        carry = _scan(carry)[:, :blocks]
        X[...] = _qmul(X, carry[:, None, :])
    Q.reshape(4, blocks, _BLOCK)[...] = X.transpose(0, 2, 1)
    return Q


def _compose(steps):
    """Q[:, 0] = 1 and Q[:, k] = S[:, k-1] ... S[:, 0] for step quaternions
    S (4, n); returns (4, n + 1)."""
    total = steps.shape[1] + 1
    Q = _identities(total)
    Q[:, 1:total] = steps
    return _scan(Q)[:, :total]


def _matrices(q):
    """Rotation matrices of quaternions q (4, ...) by the homogeneous
    formula, shape (3, 3, ...). For a quaternion of norm r the result is r^2
    times a rotation, so R^T R - I = (r^4 - 1) I in exact arithmetic."""
    w, x, y, z = q
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    wx, wy, wz = 2.0 * w * x, 2.0 * w * y, 2.0 * w * z
    xy, xz, yz = 2.0 * x * y, 2.0 * x * z, 2.0 * y * z
    return np.array([[ww + xx - yy - zz, xy - wz, xz + wy],
                     [xy + wz, ww - xx + yy - zz, yz - wx],
                     [xz - wy, yz + wx, ww - xx - yy + zz]])


def _normal_solve(rows, rhs):
    """Least-squares rates of the per-component 4x3 systems, and their
    residual norms (the no-slip residuals).

    The 3x3 normal equations N w = A^T rhs are solved by cofactors. The
    row set {e2, -e1, b g, 0} keeps N = A^T A uniformly well conditioned
    (eigenvalues 1, 1, b^2), even at stationary instants. simulate_rolling
    passes the radii in units of the rolling radius (a / b and 1), on
    which the rates depend alone, so N is the identity up to rounding and
    holds no b^2 to overflow.
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


def _magnus_steps(w1, w2, h):
    """Step quaternions (4, len(h)) of R' = hat(w) R over intervals of
    lengths h, from the rates w1 and w2 at the two Gauss nodes of each
    interval, given per component; _compose turns them into orientations.

    Each step is the fourth-order two-point Gauss Magnus step
    Omega = h/2 (w1 + w2) - (sqrt3/12) h^2 (w1 x w2) (Iserles & Norsett,
    Phil. Trans. R. Soc. A 357 (1999) 983; Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470 (2009) 151), taken exactly as the half-angle quaternion
    of exp(hat(Omega)).
    """
    bend = (sqrt(3.0) / 12.0) * h * h
    omega = tuple(0.5 * h * (u + v) - bend * c
                  for u, v, c in zip(w1, w2, _cross(w1, w2)))
    return _rodrigues_steps(omega, 1.0)


def simulate_rolling(path: MotionPath, steps: int = DEFAULT_STEPS,
                     drift_tol: float = DRIFT_TOL,
                     closure_tol: float = _CLOSURE_TOL) -> OracleTrace:
    """Integrate the disc orientation over the whole motion.

    steps counts constraint solves (rate evaluations), two per interval;
    below 1, above 2 * MAX_PIECE_SAMPLES, or asking for more than
    MAX_PIECE_SAMPLES intervals in all, it raises ValueError before
    anything is allocated. Each affine piece of path.affine_pieces
    gets its own uniform grid of an even number of intervals, proportional
    to its length (steps / 2 intervals per unit time) and at least
    _MIN_STEPS_PER_SEGMENT, so no interval straddles a knot; the first piece
    is stretched back to t = 0 and the last on to t = 1, which covers
    schedules that start or end up to TILE_TOL inside [0, 1]. The
    constraint system is solved at the two Gauss nodes of each interval
    (3x3 normal equations by cofactors) and the intervals are stepped by the
    fourth-order Magnus rule of _magnus_steps, so the scheme is
    fourth order in the interval length. The orientation is carried as a
    unit quaternion and the orientations are the prefix products of the
    steps (a blocked recursive scan with Hillis & Steele passes inside each
    block, see _scan). Every orientation's drift
    | |q|^4 - 1 |, which equals max |R^T R - I| of the matrix built from the
    unnormalized quaternion, is checked (DriftExceeded above drift_tol, 1e-6
    by default); nothing is renormalized. The spin history is recovered
    from the quaternions themselves, not from the solved rates, as the
    component along the normal of the rate 2 vec(qdot conj(q)), with qdot
    from fourth-order five-point differences inside each piece (one-sided
    at its two ends; Fornberg, Math. Comp. 51 (1988) 699), and delta_oracle
    is minus its time integral by composite Simpson per piece. For a closed
    motion the final orientation must be a pure twist about the starting
    normal by minus the dynamical phase mod 2 pi (ClosureMismatch
    otherwise).
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    # at least steps / 2 intervals follow, so the cap below would refuse this
    # too; refusing it here keeps an integer past the float range out of it
    if steps > 2 * MAX_PIECE_SAMPLES:
        raise ValueError(f"steps must be at most 2 * MAX_PIECE_SAMPLES = "
                         f"{2 * MAX_PIECE_SAMPLES}, got {steps}")
    radii = path.radii
    t0, _, th0, dth, b0, db = np.array(path.affine_pieces).T
    bounds = np.array(path.knots)
    bounds[0], bounds[-1] = 0.0, 1.0
    counts = np.maximum(2 * np.ceil(np.diff(bounds) * (0.25 * steps)),
                        _MIN_STEPS_PER_SEGMENT)
    if not counts.sum() <= MAX_PIECE_SAMPLES:
        raise ValueError(f"the oracle needs {counts.sum():.3g} intervals, "
                         f"more than MAX_PIECE_SAMPLES = {MAX_PIECE_SAMPLES}")
    counts = counts.astype(int)
    h = np.diff(bounds) / counts
    # interval k is interval local[k] of piece piece[k]; its Gauss nodes sit
    # h / (2 sqrt3) either side of its midpoint, given as times since the
    # piece's own start t0
    piece = np.repeat(np.arange(counts.size), counts)
    n = piece.size
    local = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    hk = h[piece]
    mid = bounds[piece] - t0[piece] + (local + 0.5) * hk
    off = hk / (2.0 * sqrt(3.0))
    # instants [0, n) are the first Gauss nodes, [n, 2n) the second ones
    at = np.concatenate([piece, piece])
    since = np.concatenate([mid - off, mid + off])
    omega = np.empty((3, 2 * n))
    residual = np.empty(2 * n)
    for lo in range(0, 2 * n, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, 2 * n))
        p = at[sl]
        omega[:, sl], residual[sl] = _normal_solve(*_constraint_rows(
            th0[p] + dth[p] * since[sl], b0[p] + db[p] * since[sl],
            dth[p], db[p], radii.a / radii.b, 1.0)[:2])
    noslip = np.maximum(residual[:n], residual[n:])
    q = _compose(_magnus_steps(omega[:, :n], omega[:, n:], hk))
    # orthonormality drift of every orientation: max |R^T R - I| of the
    # matrix _matrices builds from the unnormalized quaternion is | |q|^4 - 1 |
    norm2 = np.einsum("ij,ij->j", q, q)
    drift = np.abs(norm2 * norm2 - 1.0)
    worst = int(np.argmax(drift))
    if drift[worst] > drift_tol:
        raise DriftExceeded(
            f"orthonormality drift {drift[worst]:.3e} after {worst} intervals",
            value=float(drift[worst]), tol=drift_tol)

    # the per-piece node grid: each piece's counts + 1 nodes in turn, so an
    # interior knot appears twice, as the end of one piece and the start of
    # the next, with the orientation it has there both times
    node_piece = np.repeat(np.arange(counts.size), counts + 1)
    first = np.cumsum(counts + 1) - (counts + 1)
    last = first + counts
    j = np.arange(node_piece.size) - first[node_piece]   # node j of its piece
    t = bounds[node_piece] + j * h[node_piece]
    t[last] = bounds[1:]
    qn = q[:, np.arange(node_piece.size) - node_piece]

    # spin about the instantaneous normal, recovered from the orientations:
    # the spatial rate is 2 vec(qdot conj(q)) and the spin its component
    # along g; vec(dq conj(q)) = q0 vec(dq) - dq0 vec(q) - vec(dq) x vec(q)
    dq = _piecewise_differences(qn, first, last)
    since = t - t0[node_piece]
    theta = th0[node_piece] + dth[node_piece] * since
    beta = b0[node_piece] + db[node_piece] * since
    sb = np.sin(beta)
    g = (sb * np.cos(theta), sb * np.sin(theta), -np.cos(beta))
    cross = _cross(dq[1:], qn[1:])
    rate = [qn[0] * dq[k + 1] - dq[0] * qn[k + 1] - cross[k] for k in range(3)]
    spin_rates = _dot(g, rate) / (6.0 * h[node_piece])
    simpson = np.where(j % 2 == 1, 4.0, 2.0)
    simpson[first] = simpson[last] = 1.0
    delta_oracle = -float(np.dot(simpson * h[node_piece], spin_rates)) / 3.0

    report = topology_report(path)
    if report.closed:
        # After a closed motion the normal and its transported frame return
        # to themselves, so R_N must be a twist about g(0); the twist angle
        # is minus the dynamical part of the spin (mod 2 pi). The geometric
        # part lives in the frame transport and cancels from the residual.
        final = _matrices(q[:, -1])
        _, e2_0, g0 = frame_vectors(th0[0], b0[0])
        axis_err = float(np.linalg.norm(final @ g0 - g0))
        turned = final @ e2_0
        chi = float(np.arctan2(turned @ np.cross(g0, e2_0), turned @ e2_0))
        twist_expected = -(radii.a / radii.b) * (path.theta.end_value()
                                                 - path.theta.start_value())
        mismatch = abs(_wrap_angle(chi - twist_expected))
        if axis_err > closure_tol or mismatch > closure_tol:
            raise ClosureMismatch(
                f"closed motion: axis error {axis_err:.3e}, "
                f"twist angle mismatch {mismatch:.3e}",
                value=max(axis_err, mismatch), tol=closure_tol)

    return OracleTrace(steps=2 * n, t=t, quaternions=qn,
                       spin_rates=spin_rates, noslip_residuals=noslip,
                       delta_oracle=delta_oracle)


def _piecewise_differences(x, first, last):
    """12 h times the derivative of x along the last axis, to fourth order,
    for pieces of uniform spacing h that run from first[i] to last[i]
    (inclusive, at least 5 nodes each): the five-point central stencil
    inside each piece and the one-sided fourth-order stencils at its two
    ends (Fornberg, Math. Comp. 51 (1988) 699)."""
    d = np.empty_like(x)
    d[..., 2:-2] = x[..., :-4] - x[..., 4:] + 8.0 * (x[..., 3:-1] - x[..., 1:-3])
    for end, step in ((first, 1), (last, -1)):
        f0, f1, f2, f3, f4 = (x[..., end + step * k] for k in range(5))
        d[..., end] = step * (-25.0 * f0 + 48.0 * f1 - 36.0 * f2
                              + 16.0 * f3 - 3.0 * f4)
        d[..., end + step] = step * (-3.0 * f0 - 10.0 * f1 + 18.0 * f2
                                     - 6.0 * f3 + f4)
    return d


def _wrap_angle(x: float) -> float:
    return (x + pi) % TWO_PI - pi
