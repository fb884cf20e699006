"""Rigid-body oracle for the rolling disc.

Reconstructs the orientation of the moving disc by integrating the angular
velocity that the no-slip and tangency constraints force at each instant,
then measures the spin about the contact normal directly from the
orientation history. Nothing here uses the surface geometry of the previous
modules beyond the shared frame definitions (sphere.frame_rows), which
makes the result an independent check on the phase decomposition.

The orientation is a unit quaternion (Euler-Rodrigues parameters; Shoemake,
SIGGRAPH 1985) held per component as a (4, n) array. Each affine piece of
the motion gets its own uniform grid, so no interval straddles a knot, and
each interval is one sixth-order three-point Gauss Magnus step: the rates at
the three Gauss nodes give the step's rotation vector, whose exact
half-angle quaternion is the step. The steps are composed by a blocked
recursive scan (Blelloch, CMU-CS-90-190) with log-depth scans inside blocks
of 8 (Hillis & Steele, CACM 29 (1986) 1170): four whole-array passes per
level, 11 in all for the 400-odd intervals of the default.
Orthonormality drift is read off the norm, | |q|^4 - 1 |, and the spin
comes from sixth-order quaternion differences within each piece, so no
3x3 matrix is formed except on request (OracleTrace.orientations) and for
the closure check on the final orientation. `steps` counts rate
evaluations (constraint solves), three per interval.

Within a piece theta, beta and their slopes are one multiply-add away from
the piece's affine data. Each instant's sines and cosines are taken once
and give the frame, the normal and their derivatives. The pointwise chain
(constraint rows, rates) runs in chunks of _CHUNK rate evaluations, so its
temporaries stay in cache. In units of the rolling radius the constraint
rows are orthonormal, so the least-squares rates are A^T rhs.

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

from .errors import ClosureMismatch, DriftExceeded, TooManySamples
from .motion import TWO_PI, MotionPath, topology_report
from .phases import DEFAULT_STEPS
from .sphere import MAX_PIECE_SAMPLES, _row_dot, frame_rows

DRIFT_TOL = 1e-6
_MIN_STEPS_PER_SEGMENT = 8   # intervals per piece, a multiple of 4 for Boole
_CLOSURE_TOL = 1e-2


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _constraint_rows(theta, beta, dtheta, dbeta, ratio):
    """Constraint systems A w = rhs for arrays of instants, per component,
    in units of the rolling radius b: ratio is a / b.

    Rows 1-2: the normal g is materially attached to the disc, so
    w x g = g', projected on the rim frame (e1, e2). Rows 3-4: the contact
    point is instantaneously at rest, c' + w x (contact - center) = 0,
    projected likewise. Projections avoid the rank deficiency of the raw
    cross-product equations along g. With contact - center = -e2 the rows
    are e2, -e1, g and 0, orthonormal. Returns (rows, rhs, g): rows[r][k] is
    the 1-D array of entry (r, k) of A over the instants, rhs[r] that of the
    right-hand side and g[k] that of the normal.
    """
    dtheta = np.atleast_1d(np.asarray(dtheta, dtype=float))
    dbeta = np.atleast_1d(np.asarray(dbeta, dtype=float))
    e1, e2, g = frame_rows(np.atleast_1d(theta), np.atleast_1d(beta))
    sb, cb = e2[2], -g[2]   # sin(beta) and cos(beta), the frame's z rows
    st, ct = -e1[0], e1[1]  # and sin(theta), cos(theta) from e1

    g_dot = (dbeta * cb * ct - dtheta * sb * st,
             dbeta * cb * st + dtheta * sb * ct,
             dbeta * sb)
    ring = ratio + cb
    c_dot = (-sb * dbeta * ct - ring * st * dtheta,
             -sb * dbeta * st + ring * ct * dtheta,
             cb * dbeta)
    d = tuple(-e for e in e2)  # contact - center

    rows = (_cross(g, e1), _cross(g, e2), _cross(d, e1), _cross(d, e2))
    rhs = (_row_dot(g_dot, e1), _row_dot(g_dot, e2),
           -_row_dot(c_dot, e1), -_row_dot(c_dot, e2))
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
    counts the rate evaluations, three per interval, and noslip_residuals
    holds, per interval, the largest of the constraint residuals at its
    three Gauss nodes. The constraints are solved in units of the rolling
    radius b, so the contact-velocity part of a residual is a velocity
    divided by b (the normal's part is a rate either way).
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


def _rodrigues_steps(omega):
    """Exact rotations exp(hat(omega)) as half-angle quaternions
    (cos(phi/2), sin(phi/2) u), shape (4, n), for rotation vectors given
    per component (omega[k] is the 1-D array of component k)."""
    rate = np.sqrt(_row_dot(omega, omega))
    half = 0.5 * rate
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

    The rows of _constraint_rows are orthonormal, A^T A = I, so the normal
    equations give w = A^T rhs, at stationary instants too.
    """
    omega = tuple(sum(row[k] * r for row, r in zip(rows, rhs)) for k in range(3))
    residual = np.sqrt(sum((_row_dot(row, omega) - r) ** 2
                           for row, r in zip(rows, rhs)))
    return omega, residual


def _magnus_steps(w1, w2, w3, h):
    """Step quaternions (4, len(h)) of R' = hat(w) R over intervals of
    lengths h, from the rates w1, w2 and w3, each (3, len(h)), at the Gauss
    nodes 1/2 - sqrt15/10, 1/2 and 1/2 + sqrt15/10 of each interval;
    _compose turns them into orientations.

    Each step is the sixth-order three-point Gauss Magnus step (Blanes,
    Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151; Iserles & Norsett, Phil.
    Trans. R. Soc. A 357 (1999) 983), in which the commutator of hat(u) and
    hat(v) is hat(u x v):
    a1 = h w2, a2 = (sqrt15 h / 3)(w3 - w1), a3 = (10 h / 3)(w3 - 2 w2 + w1),
    c1 = a1 x a2, c2 = -(1/60) a1 x (2 a3 + c1),
    Omega = a1 + a3 / 12 + (1/240)(-20 a1 - a3 + c1) x (a2 + c2),
    taken exactly as the half-angle quaternion of exp(hat(Omega)).
    """
    a1 = h * w2
    a2 = (sqrt(15.0) / 3.0) * h * (w3 - w1)
    a3 = (10.0 / 3.0) * h * (w3 - 2.0 * w2 + w1)
    c1 = np.array(_cross(a1, a2))
    c2 = np.array(_cross(a1, 2.0 * a3 + c1)) / -60.0
    bend = np.array(_cross(-20.0 * a1 - a3 + c1, a2 + c2))
    return _rodrigues_steps(a1 + a3 / 12.0 + bend / 240.0)


def _magnus_intervals(counts, lead, length, what):
    """counts[i] uniform Magnus intervals on piece i, over a span of length
    length[i] that starts lead[i] after the piece's start; more than
    MAX_PIECE_SAMPLES in all raise TooManySamples before anything is
    allocated. Returns the integer counts and, per interval, its piece, its
    start, its length h and its three Gauss nodes, 1/2 -+ sqrt15/10 and 1/2
    of the way along, the start and the nodes as times since the piece's
    start."""
    needed = counts.sum()
    if not needed <= MAX_PIECE_SAMPLES:
        raise TooManySamples(f"{what} needs {needed:.0f} intervals, more than "
                             f"MAX_PIECE_SAMPLES = {MAX_PIECE_SAMPLES}",
                             value=float(needed), tol=MAX_PIECE_SAMPLES)
    counts = counts.astype(int)
    piece = np.repeat(np.arange(counts.size), counts)
    h = (length / counts)[piece]
    local = np.arange(piece.size) - np.repeat(np.cumsum(counts) - counts, counts)
    start = lead[piece] + local * h
    off = (0.5 - sqrt(15.0) / 10.0) * h
    return counts, piece, start, h, (start + off, start + 0.5 * h, start + h - off)


def simulate_rolling(path: MotionPath, steps: int = DEFAULT_STEPS) -> OracleTrace:
    """Integrate the disc orientation over the whole motion.

    steps counts constraint solves (rate evaluations), three per interval;
    below 1 or above 3 * MAX_PIECE_SAMPLES it raises ValueError. Each
    affine piece of path.affine_pieces gets its own uniform grid of a
    multiple of 4 intervals, proportional to its length (steps / 3
    intervals per unit time) and at least _MIN_STEPS_PER_SEGMENT, so no
    interval straddles a knot; the first piece is stretched back to t = 0
    and the last on to t = 1, which covers schedules that start or end up
    to TILE_TOL inside [0, 1]. More than MAX_PIECE_SAMPLES intervals in all
    raise TooManySamples before anything is allocated (_magnus_intervals).
    The rates at the three Gauss nodes of each interval are A^T rhs of the
    orthonormal constraint rows, and the intervals are stepped by the
    sixth-order Magnus rule of _magnus_steps, so the scheme is sixth order
    in the interval length. The orientation is carried as a
    unit quaternion and the orientations are the prefix products of the
    steps (a blocked recursive scan with Hillis & Steele passes inside each
    block, see _scan). Every orientation's drift
    | |q|^4 - 1 |, which equals max |R^T R - I| of the matrix built from the
    unnormalized quaternion, is checked (DriftExceeded above DRIFT_TOL =
    1e-6); nothing is renormalized. The spin history is recovered
    from the quaternions themselves, not from the solved rates, as the
    component along the normal of the rate 2 vec(qdot conj(q)), with qdot
    from sixth-order seven-point differences inside each piece (one-sided
    at the three nodes next to each end; Fornberg, Math. Comp. 51 (1988)
    699), and delta_oracle is minus its time integral by composite Boole
    per piece. For a closed motion the final orientation must be a pure
    twist about the starting normal by minus the dynamical phase mod 2 pi,
    within _CLOSURE_TOL = 1e-2 (ClosureMismatch otherwise).
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    # at least steps / 3 intervals follow, more than the interval cap allows;
    # refusing it here keeps an integer past the float range out of the count
    if steps > 3 * MAX_PIECE_SAMPLES:
        raise ValueError(f"steps must be at most 3 * MAX_PIECE_SAMPLES = "
                         f"{3 * MAX_PIECE_SAMPLES}, got {steps}")
    radii = path.radii
    t0, _, th0, dth, b0, db = np.array(path.affine_pieces).T
    bounds = np.array(path.knots)
    bounds[0], bounds[-1] = 0.0, 1.0
    length = np.diff(bounds)
    counts, piece, _, hk, nodes = _magnus_intervals(
        np.maximum(4 * np.ceil(length * (steps / 12.0)), _MIN_STEPS_PER_SEGMENT),
        bounds[:-1] - t0, length, "the oracle")
    h = length / counts
    n = piece.size
    # instants [0, n) are the first Gauss nodes, [n, 2n) the midpoints and
    # [2n, 3n) the last ones
    at = np.concatenate([piece, piece, piece])
    since = np.concatenate(nodes)
    omega = np.empty((3, 3 * n))
    residual = np.empty(3 * n)
    for lo in range(0, 3 * n, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, 3 * n))
        p = at[sl]
        omega[:, sl], residual[sl] = _normal_solve(*_constraint_rows(
            th0[p] + dth[p] * since[sl], b0[p] + db[p] * since[sl],
            dth[p], db[p], radii.a / radii.b)[:2])
    noslip = np.max(residual.reshape(3, n), axis=0)
    w1, w2, w3 = (omega[:, k * n:(k + 1) * n] for k in range(3))
    q = _compose(_magnus_steps(w1, w2, w3, hk))
    # orthonormality drift of every orientation: max |R^T R - I| of the
    # matrix _matrices builds from the unnormalized quaternion is | |q|^4 - 1 |
    norm2 = np.einsum("ij,ij->j", q, q)
    drift = np.abs(norm2 * norm2 - 1.0)
    worst = int(np.argmax(drift))
    if drift[worst] > DRIFT_TOL:
        raise DriftExceeded(
            f"orthonormality drift {drift[worst]:.3e} after {worst} intervals",
            value=float(drift[worst]), tol=DRIFT_TOL)

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
    g = frame_rows(theta, beta)[2]
    cross = _cross(dq[1:], qn[1:])
    rate = [qn[0] * dq[k + 1] - dq[0] * qn[k + 1] - cross[k] for k in range(3)]
    spin_rates = _row_dot(g, rate) / (30.0 * h[node_piece])
    boole = np.array([14.0, 32.0, 12.0, 32.0])[j % 4]
    boole[first] = boole[last] = 7.0
    delta_oracle = -(2.0 / 45.0) * float(np.dot(boole * h[node_piece],
                                                spin_rates))

    report = topology_report(path)
    if report.closed:
        # After a closed motion the normal and its transported frame return
        # to themselves, so R_N must be a twist about g(0); the twist angle
        # is minus the dynamical part of the spin (mod 2 pi). The geometric
        # part lives in the frame transport and cancels from the residual.
        final = _matrices(q[:, -1])
        _, e2_0, g0 = (np.array(v) for v in frame_rows(th0[0], b0[0]))
        axis_err = float(np.linalg.norm(final @ g0 - g0))
        turned = final @ e2_0
        chi = float(np.arctan2(turned @ np.cross(g0, e2_0), turned @ e2_0))
        twist_expected = -(radii.a / radii.b) * (path.theta.end_value()
                                                 - path.theta.start_value())
        mismatch = abs(_wrap_angle(chi - twist_expected))
        if axis_err > _CLOSURE_TOL or mismatch > _CLOSURE_TOL:
            raise ClosureMismatch(
                f"closed motion: axis error {axis_err:.3e}, "
                f"twist angle mismatch {mismatch:.3e}",
                value=max(axis_err, mismatch), tol=_CLOSURE_TOL)

    return OracleTrace(steps=3 * n, t=t, quaternions=qn,
                       spin_rates=spin_rates, noslip_residuals=noslip,
                       delta_oracle=delta_oracle)


# 60 h f'(x_j) from f at x_{j-3} .. x_{j+3}, and at the three nodes next to
# a piece's start from f at its first seven nodes (Fornberg, Math. Comp. 51
# (1988) 699); the end of a piece takes them mirrored, with the sign flipped
_CENTRAL_WEIGHTS = (-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0)
_END_WEIGHTS = ((-147.0, 360.0, -450.0, 400.0, -225.0, 72.0, -10.0),
                (-10.0, -77.0, 150.0, -100.0, 50.0, -15.0, 2.0),
                (2.0, -24.0, -35.0, 80.0, -30.0, 8.0, -1.0))


def _piecewise_differences(x, first, last):
    """60 h times the derivative of x along the last axis, to sixth order,
    for pieces of uniform spacing h that run from first[i] to last[i]
    (inclusive, at least 7 nodes each): the seven-point central stencil
    inside each piece and the one-sided seven-point stencils of
    _END_WEIGHTS at the three nodes next to each of its ends."""
    d = np.zeros_like(x)
    for k, w in enumerate(_CENTRAL_WEIGHTS):
        if w:
            d[..., 3:-3] += w * x[..., k:x.shape[-1] - 6 + k]
    weights = np.array(_END_WEIGHTS)
    reach = np.arange(7)
    for end, step in ((first, 1), (last, -1)):
        near = x[..., end[:, None] + step * reach]       # (..., pieces, 7)
        d[..., end[:, None] + step * reach[:3]] = step * (near @ weights.T)
    return d


def _wrap_angle(x: float) -> float:
    return (x + pi) % TWO_PI - pi
