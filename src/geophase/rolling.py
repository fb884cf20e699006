"""Rigid-body oracle for the rolling disc.

Reconstructs the orientation of the moving disc by integrating the angular
velocity that the no-slip and tangency constraints force at each instant,
then measures the spin about the contact normal directly from the
orientation history. Nothing here uses the surface geometry of the previous
modules beyond the shared frame definitions (sphere.frame_rows), which
makes the result an independent check on the phase decomposition.

The constraint rows, in units of the rolling radius b, are (e2, -e1, g, 0):
orthonormal, so the rates are A^T rhs, which works out to
w = theta' sin(beta) e2 - beta' e1 - (a/b + cos(beta)) theta' g. Since
sin(beta)^2 + (a/b + cos(beta))^2 <= (a/b + 1)^2, the body turns at rate
|w| <= |beta'| + (a/b + 1) |theta'|, a bound constant on each affine piece.
Each piece gets its own uniform grid, so no interval straddles a knot,
with as many intervals as that bound times the piece's length asks for
(simulate_rolling), so a large radius ratio or many laps get a finer grid
rather than larger steps. Each interval is one sixth-order three-point
Gauss Magnus step: the rates at the three Gauss nodes give the step's
rotation vector, whose exact half-angle quaternion is the step
(_magnus_steps, which the two-level transport of gauge shares).

The orientation is a unit quaternion (Euler-Rodrigues parameters;
Shoemake, SIGGRAPH 1985) carried as its Cayley-Klein pair
(w + i x, y + i z), held as a complex (2, n) array, so a quaternion
product is a few complex products (_product). The steps are composed by
a log-depth scan (_compose). Orthonormality drift is read off the norm,
| |q|^4 - 1 |, and the spin comes from sixth-order differences of the
pairs within each piece, so no 3x3 matrix is formed except on request
(OracleTrace.orientations) and for the closure check, which forms the
final one in floats. `steps` counts rate evaluations (constraint solves), three per
interval, per radian of the rotation bound.

Within a piece theta, beta and their slopes are one multiply-add away from
the piece's affine data. Each instant's sines and cosines are taken once
and give the frame and the rows. The pointwise chain (constraint rows,
rates) runs in chunks of _CHUNK rate evaluations, so its temporaries stay
in cache.

Geometry: the fixed disc has radius a in the z = 0 plane, centered at the
origin. The moving disc has radius b, touches the fixed rim at
(a cos th, a sin th, 0), and is tilted so its unit normal is the tilt
vector g(th, b). Its center sits at distance b from the contact point along
the direction perpendicular to the rim tangent and to g.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, dist, pi, sqrt
from operator import mul

import numpy as np

from .errors import ClosureMismatch, DriftExceeded, TooManySamples
from .motion import TWO_PI, MotionPath, topology_report
from .phases import DEFAULT_STEPS
from .sphere import MAX_PIECE_SAMPLES, frame_rows

DRIFT_TOL = 1e-6
_MIN_STEPS_PER_SEGMENT = 8   # intervals per piece, a multiple of 4 for Boole
_CLOSURE_TOL = 1e-2


def _cross(u, v):
    """Cross products u x v of vectors held per component along the first
    axis; the other axes broadcast."""
    return np.array((u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]))


def _constraint_rows(theta, beta, dtheta, dbeta, ratio):
    """Constraint systems A w = rhs for arrays of instants, in units of the
    rolling radius b: ratio is a / b.

    Rows 1-2: the normal g is materially attached to the disc, so
    w x g = g', projected on the rim frame (e1, e2). Rows 3-4: the contact
    point is instantaneously at rest, c' + w x (contact - center) = 0,
    projected likewise. Projections avoid the rank deficiency of the raw
    cross-product equations along g. With contact - center = -e2 the rows
    are e2, -e1, g and 0, orthonormal, read off the frame. Returns arrays
    (rows, rhs, g): rows (4, 3, n), rows[r, k] the entry (r, k) of A over
    the instants; rhs (4, n); g (3, n), the normal.
    """
    dtheta = np.atleast_1d(np.asarray(dtheta, dtype=float))
    dbeta = np.atleast_1d(np.asarray(dbeta, dtype=float))
    e1, e2, g = frame = frame_rows(np.atleast_1d(theta), np.atleast_1d(beta))
    # g' = beta' e2 + theta' sin(beta) e1 and, with the center at
    # contact + e2, c' = (a/b + cos(beta)) theta' e1 - beta' g; e2's z row
    # is sin(beta) and g's is -cos(beta)
    velocity = np.array((dbeta * e2 + (dtheta * e2[2]) * e1,
                         dbeta * g - ((ratio - g[2]) * dtheta) * e1))
    rhs = np.einsum("vk...,fk...->vf...", velocity, frame[:2])
    rows = np.zeros((4,) + e1.shape)
    rows[0], rows[2] = e2, g
    np.negative(e1, out=rows[1])
    return rows, rhs.reshape((4,) + rhs.shape[2:]), g


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


_CHUNK = 8192  # rate evaluations per pass of the constraint solve: fits in cache


def _rodrigues_steps(omega):
    """Exact rotations exp(hat(omega)) as half-angle quaternions
    (cos(phi/2), sin(phi/2) u), shape (4, n), for rotation vectors given
    per component (omega[k] is the 1-D array of component k)."""
    omega = np.asarray(omega)
    rate = np.sqrt(np.einsum("k...,k...->...", omega, omega))
    half = 0.5 * rate
    S = np.empty((4, half.size))
    S[0] = np.cos(half)
    np.multiply(omega, np.sin(half) / np.where(half > 0.0, rate, 1.0), out=S[1:])
    return S


def _pairs(q):
    """Cayley-Klein pairs (w + i x, y + i z) (2, n) of quaternions q (4, n)."""
    return q[0::2] + 1j * q[1::2]


def _quaternions(pairs):
    """Quaternions (w, x, y, z) (4, n) of Cayley-Klein pairs (2, n)."""
    return np.stack((pairs.real, pairs.imag), axis=1).reshape(4, -1)


def _product(p, q, out=None):
    """Quaternion products p q of Cayley-Klein pairs (2, n):
    (a + b j)(c + d j) = (a c - b conj(d)) + (a d + b conj(c)) j."""
    (a, b), (c, d) = p, q
    if out is None:
        out = np.empty((2, a.size), dtype=complex)
    ac, bd, ad, bc = a * c, b * d.conj(), a * d, b * c.conj()
    np.subtract(ac, bd, out=out[0])
    np.add(ad, bc, out=out[1])
    return out


def _compose(steps):
    """Q[:, 0] = 1 and Q[:, k] = S[:, k-1] ... S[:, 0] for Cayley-Klein
    pairs S (2, n); returns (2, n + 1).

    A log-depth scan (Ladner & Fischer, J. ACM 27 (1980) 831): the pair
    products S[:, 2i+1] S[:, 2i] are scanned recursively, which gives every
    even Q, and one more product gives each odd Q[:, 2i+1] = S[:, 2i]
    Q[:, 2i]. Two array products per level, log2(n) levels; neighbours
    share all but a few roundings, so the spin recovery's differences see
    no more than that.
    """
    n = steps.shape[1]
    Q = np.empty((2, n + 1), dtype=complex)
    Q[:, 0] = 1.0, 0.0
    if n == 1:
        Q[:, 1] = steps[:, 0]
    elif n > 1:
        even = _compose(_product(steps[:, 1::2], steps[:, :n - 1:2]))
        Q[:, ::2] = even
        _product(steps[:, ::2], even[:, :(n + 1) // 2], out=Q[:, 1::2])
    return Q


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
    """Least-squares rates (3, n) of the 4x3 systems of _constraint_rows,
    and their residual norms |A w - rhs| (the no-slip residuals).

    The rows are orthonormal, A^T A = I, so the normal equations give
    w = A^T rhs, at stationary instants too; the zero fourth row adds
    nothing to w, and its residual is |rhs[3]|.
    """
    omega = np.einsum("rkn,rn->kn", rows[:3], rhs[:3])
    miss = np.einsum("rkn,kn->rn", rows, omega) - rhs
    return omega, np.sqrt(np.einsum("rn,rn->n", miss, miss))


def _magnus_steps(w1, w2, w3, h):
    """Step quaternions (4, len(h)) of R' = hat(w) R over intervals of
    lengths h, from the rates w1, w2 and w3, each (3, len(h)), at the Gauss
    nodes 1/2 - sqrt15/10, 1/2 and 1/2 + sqrt15/10 of each interval; the
    one SU(2) step of the oracle (_compose) and the Berry transport.

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
    c1 = _cross(a1, a2)
    c2 = _cross(a1, 2.0 * a3 + c1) / -60.0
    bend = _cross(-20.0 * a1 - a3 + c1, a2 + c2)
    return _rodrigues_steps(a1 + a3 / 12.0 + bend / 240.0)


# the Gauss nodes of an interval, as fractions of its length
_GAUSS = (0.5 - sqrt(15.0) / 10.0, 0.5, 0.5 + sqrt(15.0) / 10.0)


def _magnus_intervals(counts, lead, length, what, at=_GAUSS):
    """counts[i] uniform Magnus intervals on piece i, over a span of length
    length[i] that starts lead[i] after the piece's start; more than
    MAX_PIECE_SAMPLES in all raise TooManySamples before anything is
    allocated. Returns the integer counts and, per interval, its piece and
    its length h, and the times since the piece's start that lie at[k] of
    the way along each interval, shape (len(at), intervals)."""
    needed = counts.sum()
    if not needed <= MAX_PIECE_SAMPLES:
        raise TooManySamples(f"{what} needs {needed:.0f} intervals, more than "
                             f"MAX_PIECE_SAMPLES = {MAX_PIECE_SAMPLES}",
                             value=float(needed), tol=MAX_PIECE_SAMPLES)
    counts = counts.astype(int)
    piece = np.repeat(np.arange(counts.size), counts)
    h = (length / counts)[piece]
    local = np.arange(piece.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return counts, piece, h, (lead[piece] + local * h) + np.multiply.outer(at, h)


def simulate_rolling(path: MotionPath, steps: int = DEFAULT_STEPS) -> OracleTrace:
    """Integrate the disc orientation over the whole motion.

    steps counts rate evaluations, three per interval, per radian of the
    bound on the body's rotation (see the module docstring); below 1 or
    past the float range it raises ValueError. A piece of length L
    gets max(_MIN_STEPS_PER_SEGMENT, 4 ceil(turn * steps / 12)) intervals,
    turn = (|beta'| + (a/b + 1) |theta'|) L, so each interval turns the body
    by at most 3 / steps rad; the first piece is stretched back to t = 0 and
    the last on to t = 1, which covers schedules that start or end up to
    TILE_TOL inside [0, 1]. More than MAX_PIECE_SAMPLES intervals in all
    raise TooManySamples before anything is allocated (_magnus_intervals).
    The scheme is sixth order in the interval length. Every orientation's
    drift | |q|^4 - 1 |, which equals max |R^T R - I| of the matrix built
    from the unnormalized quaternion, is checked (DriftExceeded above
    DRIFT_TOL = 1e-6); nothing is renormalized. The spin is the component
    along the normal of the rate 2 vec(qdot conj(q)), with qdot from
    sixth-order seven-point differences inside each piece (one-sided at
    the three nodes next to each end; Fornberg, Math. Comp. 51 (1988) 699),
    and delta_oracle is minus its time integral by composite Boole per
    piece. For a closed motion the final orientation must be a pure twist
    about the starting normal by minus the dynamical phase mod 2 pi, within
    _CLOSURE_TOL = 1e-2 (ClosureMismatch otherwise).
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    try:
        per_turn = steps / 12.0
    except OverflowError:   # an integer past the float range
        raise ValueError(f"steps must lie within the float range, got an "
                         f"integer of {len(str(steps))} digits") from None
    ratio = path.radii.a / path.radii.b
    affine = np.array(path.affine_pieces).T   # rows t0, t1, th0, dth, b0, db
    t0, _, th0, dth, b0, db = affine
    bounds = np.array(path.knots)
    bounds[0], bounds[-1] = 0.0, 1.0
    length = bounds[1:] - bounds[:-1]
    turn = (np.abs(db) + (ratio + 1.0) * np.abs(dth)) * length
    counts, piece, hk, nodes = _magnus_intervals(
        np.maximum(4 * np.ceil(turn * per_turn), _MIN_STEPS_PER_SEGMENT),
        bounds[:-1] - t0, length, "the oracle")
    h = length / counts
    n = piece.size
    # instants [0, n) are the first Gauss nodes, [n, 2n) the midpoints and
    # [2n, 3n) the last ones
    at = np.concatenate((piece, piece, piece))
    since = nodes.ravel()
    omega = np.empty((3, 3 * n))
    residual = np.empty(3 * n)
    for lo in range(0, 3 * n, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, 3 * n))
        _, _, th, dth_p, b, db_p = affine[:, at[sl]]   # per instant
        omega[:, sl], residual[sl] = _normal_solve(*_constraint_rows(
            th + dth_p * since[sl], b + db_p * since[sl], dth_p, db_p, ratio)[:2])
    residual = residual.reshape(3, n)
    noslip = np.maximum(np.maximum(residual[0], residual[1]), residual[2])
    q = _compose(_pairs(_magnus_steps(*omega.reshape(3, 3, n).swapaxes(0, 1), hk)))
    # orthonormality drift of every orientation: max |R^T R - I| of the
    # matrix _matrices builds from the unnormalized quaternion is | |q|^4 - 1 |
    parts = q.view(float).reshape(2, -1, 2)
    norm2 = np.einsum("kjc,kjc->j", parts, parts)
    drift = np.abs(norm2 * norm2 - 1.0)
    if drift.max() > DRIFT_TOL:
        worst = int(np.argmax(drift))
        raise DriftExceeded(
            f"orthonormality drift {drift[worst]:.3e} after {worst} intervals",
            value=float(drift[worst]), tol=DRIFT_TOL)

    # the per-piece node grid: each piece's counts + 1 nodes in turn, so an
    # interior knot appears twice, as the end of one piece and the start of
    # the next, with the orientation it has there both times
    node_piece = np.repeat(np.arange(counts.size), counts + 1)
    first = np.cumsum(counts + 1) - (counts + 1)
    last = first + counts
    index = np.arange(node_piece.size)
    # per node from here on: its piece's data, spacing, start, first node
    t0, _, th0, dth, b0, db, h, start, head = np.vstack(
        (affine, h, bounds[:-1], first))[:, node_piece]
    j = index - head   # node j of its piece
    t = start + j * h
    t[last] = bounds[1:]
    qn = q[:, index - node_piece]

    # spin about the instantaneous normal, recovered from the orientations:
    # the spatial rate is 2 vec(qdot conj(q)), and for pairs (a, b) and
    # differences (da, db) vec(dq conj(q)) has x = Im(da conj(a) + db conj(b))
    # and y + i z = db a - da b
    dq = _piecewise_differences(qn, first, last)
    e1, e2, g = frame_rows(th0 + dth * (t - t0), b0 + db * (t - t0))
    x = np.einsum("kn,kn->n", dq, qn.conj()).imag
    yz = dq[1] * qn[0] - dq[0] * qn[1]
    spin_rates = (g[0] * x + g[1] * yz.real + g[2] * yz.imag) / (30.0 * h)
    boole = np.array([14.0, 32.0, 12.0, 32.0])[j.astype(int) % 4]
    boole[first] = boole[last] = 7.0
    delta_oracle = -(2.0 / 45.0) * float(np.dot(boole * h, spin_rates))

    if topology_report(path).closed:
        # After a closed motion the normal and its transported frame return
        # to themselves, so R_N must be a twist about g(0); the twist angle
        # is minus the dynamical part of the spin (mod 2 pi). The geometric
        # part lives in the frame transport and cancels from the residual;
        # in floats: the final matrix, and the frame where the grid starts
        a, b = q[:, -1].tolist()
        final = _matrices((a.real, a.imag, b.real, b.imag)).tolist()
        e1_0, e2_0, g0 = (v.tolist() for v in (e1[:, 0], e2[:, 0], g[:, 0]))
        axis_err = dist([sum(map(mul, row, g0)) for row in final], g0)
        turned = [sum(map(mul, row, e2_0)) for row in final]
        # g0 x e2_0 = -e1_0
        chi = atan2(-sum(map(mul, turned, e1_0)), sum(map(mul, turned, e2_0)))
        twist_expected = -ratio * (path.theta.end_value() - path.theta.start_value())
        mismatch = abs(_wrap_angle(chi - twist_expected))
        if axis_err > _CLOSURE_TOL or mismatch > _CLOSURE_TOL:
            raise ClosureMismatch(
                f"closed motion: axis error {axis_err:.3e}, "
                f"twist angle mismatch {mismatch:.3e}",
                value=max(axis_err, mismatch), tol=_CLOSURE_TOL)

    return OracleTrace(steps=3 * n, t=t, quaternions=_quaternions(qn),
                       spin_rates=spin_rates, noslip_residuals=noslip,
                       delta_oracle=delta_oracle)


# 60 h f'(x_j) = sum over k = 1, 2, 3 of w_k (f(x_{j+k}) - f(x_{j-k})), and
# at the three nodes next to a piece's start from f at its first seven
# nodes (Fornberg, Math. Comp. 51 (1988) 699); the end of a piece takes them
# mirrored, with the sign flipped
_CENTRAL_WEIGHTS = ((1, 45.0), (2, -9.0), (3, 1.0))
_END_WEIGHTS = ((-147.0, 360.0, -450.0, 400.0, -225.0, 72.0, -10.0),
                (-10.0, -77.0, 150.0, -100.0, 50.0, -15.0, 2.0),
                (2.0, -24.0, -35.0, 80.0, -30.0, 8.0, -1.0))


def _piecewise_differences(x, first, last):
    """60 h times the derivative of x along the last axis, to sixth order,
    for pieces of uniform spacing h that run from first[i] to last[i]
    (inclusive, at least 7 nodes each): the seven-point central stencil
    inside each piece and the one-sided seven-point stencils of
    _END_WEIGHTS at the three nodes next to each of its ends."""
    d = np.empty_like(x)
    inner = x.shape[-1] - 6
    d[..., 3:-3] = sum(w * (x[..., 3 + k:3 + k + inner] - x[..., 3 - k:3 - k + inner])
                       for k, w in _CENTRAL_WEIGHTS)
    weights = np.array(_END_WEIGHTS)
    reach = np.arange(7)
    for end, step in ((first, 1), (last, -1)):
        near = x[..., end[:, None] + step * reach]       # (..., pieces, 7)
        d[..., end[:, None] + step * reach[:3]] = step * (near @ weights.T)
    return d


def _wrap_angle(x: float) -> float:
    return (x + pi) % TWO_PI - pi
