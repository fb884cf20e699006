"""Geometry of the tilt-direction vector on the unit sphere.

The rolling disc's unit normal ("Gauss vector") traces a curve on S^2 as the
motion runs. This module provides the moving orthonormal frame attached to
that vector, the pole-avoiding clamped curve, and the differential-geometric
data computed on it: arc length, tangent angle, geodesic curvature, cusp
angles, and offset-curve lengths.

Orientation conventions (used consistently across the package):

* g(theta, beta) = (sin b cos th, sin b sin th, -cos b); tilt 0 is the south
  pole, tilt pi the north pole.
* e1 = (-sin th, cos th, 0), e2 = (cos b cos th, cos b sin th, sin b),
  e3 = e1 x e2 = g.
* The left normal of a curve with unit tangent T is nu = g x T; signed angles
  in the tangent plane are counterclockwise viewed from outside, along +g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import inf, nextafter, pi

import numpy as np

from .errors import CurveHasCusps, EpsilonOutOfRange
from .motion import MotionPath, Piece

DEFAULT_EPSILON = pi / 16.0
MIN_EPSILON = 1e-100            # below ~1e-154 squared clamp-circle chords underflow
MAX_SAMPLE_STEP = 1e-3          # cap on the angle subtended by adjacent samples
_MIN_PIECE_SAMPLES = 16         # sample floor per smooth piece (coarse motions)
MAX_PIECE_SAMPLES = 1_000_000   # about 160 laps at MAX_SAMPLE_STEP
_KAPPA_REL_TOL = 1e-7           # target relative error of finite-difference kappa
_KAPPA_STEP = (12.0 * _KAPPA_REL_TOL) ** 0.5   # step/sin(beta) achieving it
CUSP_ANGLE_TOL = 1e-8
GEOM_CLOSE_TOL = 1e-9


# ---------------------------------------------------------------------------
# frames


def gauss_vector(theta, beta) -> np.ndarray:
    """Unit normal of the rolling disc; shape (..., 3)."""
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    sb = np.sin(beta)
    return np.stack([sb * np.cos(theta), sb * np.sin(theta), -np.cos(beta)], axis=-1)


def frame_vectors(theta, beta):
    """The orthonormal triple (e1, e2, e3) as arrays of shape (..., 3)."""
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    cb, sb = np.cos(beta), np.sin(beta)
    zeros = np.zeros_like(ct)
    e1 = np.stack([-st, ct, zeros], axis=-1)
    e2 = np.stack([cb * ct, cb * st, sb], axis=-1)
    e3 = np.stack([sb * ct, sb * st, -cb], axis=-1)
    return e1, e2, e3


# ---------------------------------------------------------------------------
# clamping the tilt away from the poles


def _check_epsilon(eps: float):
    if not (MIN_EPSILON <= eps < pi / 8.0):
        raise EpsilonOutOfRange(
            f"epsilon must lie in [{MIN_EPSILON!r}, pi/8), got {eps!r}")


def clamped_affine_pieces(path: MotionPath, eps: float) -> tuple:
    """Exact piecewise-affine form of the motion with tilt clamped to [eps, pi-eps]."""
    _check_epsilon(eps)
    lo, hi = eps, pi - eps
    pieces = []
    for (t0, t1, th0, dth, b0, db) in path.affine_pieces:
        # split at the times the raw tilt crosses a clamp level
        cuts = [t0, t1]
        if db != 0.0:
            for level in (lo, hi):
                tc = t0 + (level - b0) / db
                if t0 + 1e-14 < tc < t1 - 1e-14:
                    cuts.append(tc)
        cuts.sort()
        for u0, u1 in zip(cuts, cuts[1:]):
            bmid = b0 + db * (0.5 * (u0 + u1) - t0)
            if bmid <= lo:
                bc, dbc = lo, 0.0
            elif bmid >= hi:
                bc, dbc = hi, 0.0
            else:
                # a crossing within 1e-14 of an end is not cut, so anchor
                # both end tilts in [lo, hi]: clip the start, then step the
                # slope by ulps until the end no longer rounds outside
                bc, dbc = min(max(b0 + db * (u0 - t0), lo), hi), db
                while not lo <= (end := bc + dbc * (u1 - u0)) <= hi:
                    dbc = nextafter(dbc, inf if end < lo else -inf)
            pieces.append(Piece(u0, u1, th0 + dth * (u0 - t0), dth, bc, dbc))
    return tuple(pieces)


# ---------------------------------------------------------------------------
# the sampled regularized curve


@dataclass(frozen=True)
class Junction:
    """Meeting point of two smooth pieces; alpha is the signed tangent jump."""

    t: float
    alpha: float
    in_index: int
    out_index: int


@dataclass(frozen=True)
class Cusp:
    t: float
    alpha: float


@dataclass(eq=False)
class RegularizedCurve:
    """Densely sampled pole-avoiding curve of the Gauss vector.

    Treat instances as immutable. Arrays are aligned: sample k has time t[k],
    arc length s[k], position g[k], tangent angle phi[k] and geodesic
    curvature kappa_g[k]. g has shape (n, 3) and is the transposed view of
    a (3, n) buffer of component rows, so g.T[0], g.T[1], g.T[2] are
    contiguous. phi is continuous within each smooth arc: it is unwrapped
    only in the arcs where the raw tangent angle jumps by pi or more.
    ``arcs`` lists half-open index ranges of maximal smooth sub-arcs;
    shared junction points appear once per adjacent arc so phi stays
    continuous within each arc.
    """

    epsilon: float
    t: np.ndarray
    s: np.ndarray
    theta: np.ndarray
    beta_eps: np.ndarray
    g: np.ndarray
    phi: np.ndarray
    kappa_g: np.ndarray
    arcs: tuple
    junctions: tuple
    total_length: float
    closed: bool
    pieces: tuple
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def cusps(self) -> tuple:
        return detect_cusps(self, CUSP_ANGLE_TOL)

    def tangents(self) -> np.ndarray:
        """Unit tangents T(s); within arcs T = cos(phi) e1 + sin(phi) e2."""
        e1, e2, _ = frame_vectors(self.theta, self.beta_eps)
        return (np.cos(self.phi)[:, None] * e1 + np.sin(self.phi)[:, None] * e2)

    def __len__(self):
        return self.t.size


def _junction_angle(p_in: Piece, p_out: Piece) -> float:
    """Signed tangent jump where p_in ends and p_out starts (same point)."""
    _, b_in = p_in.at(p_in.t1)
    u1, v1 = np.sin(b_in) * p_in.dth, p_in.db
    u2, v2 = np.sin(p_out.b0) * p_out.dth, p_out.db
    cross = u1 * v2 - v1 * u2
    dot = u1 * u2 + v1 * v2
    alpha = float(np.arctan2(cross, dot))
    if alpha == -pi:   # reversals count as +pi, keeping alpha in (-pi, pi]
        alpha = pi
    return alpha


def _piece_samples(piece: Piece):
    """Sample times for one piece, an even number of equal steps.

    Adjacent samples subtend at most MAX_SAMPLE_STEP, or
    _KAPPA_STEP * sin(beta_min) for a piece that turns in theta: that bound
    keeps finite-difference kappa_g within _KAPPA_REL_TOL on a latitude
    circle of radius sin(beta). A meridian piece (theta' = 0) is a great
    circle, radius 1, where kappa_g vanishes at any step, so it gets
    MAX_SAMPLE_STEP. Every piece gets at least _MIN_PIECE_SAMPLES steps.
    """
    b_lo = min(piece.b0, piece.b0 + piece.db * (piece.t1 - piece.t0))
    b_hi = max(piece.b0, piece.b0 + piece.db * (piece.t1 - piece.t0))
    sin_min = min(np.sin(b_lo), np.sin(b_hi))
    sin_max = 1.0 if b_lo <= pi / 2.0 <= b_hi else max(np.sin(b_lo), np.sin(b_hi))
    speed_max = float(np.hypot(sin_max * piece.dth, piece.db))
    extent = speed_max * (piece.t1 - piece.t0)
    step = MAX_SAMPLE_STEP
    if piece.dth != 0.0:
        step = min(step, _KAPPA_STEP * float(sin_min))
    needed = extent / step   # inf, not an error, past the float range
    if not needed <= MAX_PIECE_SAMPLES:
        raise ValueError(
            f"piece [{piece.t0!r}, {piece.t1!r}] needs {needed:.3g} samples, "
            f"more than MAX_PIECE_SAMPLES = {MAX_PIECE_SAMPLES}")
    half = max(2, int(np.ceil(0.5 * needed)), (_MIN_PIECE_SAMPLES + 1) // 2)
    return np.linspace(piece.t0, piece.t1, 2 * half + 1)


def _row_dot(u, v):
    """Dot products of vectors given per component, as rows."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sample_rows(moving, times, arcs):
    """t, theta, beta, g (3, n), phi and the left normal nu (3, n) at the
    sample times of the moving pieces, one piece after another."""
    piece = np.repeat(np.arange(len(moving)), [tp.size for tp in times])
    t0, _, th0, dth, b0, db = np.array(moving).T
    t = np.concatenate(times)
    since = t - t0[piece]
    theta = th0[piece] + dth[piece] * since
    beta = b0[piece] + db[piece] * since
    ct, st = np.cos(theta), np.sin(theta)
    cb, sb = np.cos(beta), np.sin(beta)
    g = np.empty((3, t.size))
    np.multiply(sb, ct, out=g[0])
    np.multiply(sb, st, out=g[1])
    np.negative(cb, out=g[2])
    g /= np.sqrt(_row_dot(g, g))   # re-projection to the sphere

    # the tangent angle in the (e1, e2) frame, unwrapped within each arc;
    # np.unwrap changes nothing in an arc without a step of pi or more
    phi = np.arctan2(db[piece], sb * dth[piece])
    jumps = np.abs(np.diff(phi)) >= pi
    for i0, i1 in arcs:
        if jumps[i0:i1 - 1].any():
            phi[i0:i1] = np.unwrap(phi[i0:i1])

    # nu = -sin(phi) e1 + cos(phi) e2, written out per component
    sp, cp = np.sin(phi), np.cos(phi)
    nu = np.empty((3, t.size))
    nu[0] = sp * st + cp * (cb * ct)
    nu[1] = cp * (cb * st) - sp * ct
    nu[2] = cp * sb
    return t, theta, beta, g, phi, nu


def regularize(path: MotionPath, eps: float = DEFAULT_EPSILON) -> RegularizedCurve:
    """Build the sampled pole-avoiding curve of the motion's Gauss vector.

    The tilt is clamped to [eps, pi-eps]; intervals where the clamped point
    does not move collapse to a single shared sample. Each smooth piece gets
    at least 16 steps of equal time; adjacent samples subtend at most
    MAX_SAMPLE_STEP = 1e-3 radians, or _KAPPA_STEP * sin(beta_min) on a
    piece that turns in theta, where finite-difference kappa_g needs the
    finer step near the clamp circles. Meridian pieces (theta' = 0) are
    great circles and keep MAX_SAMPLE_STEP. Arc length comes from chord
    sums with pairwise Richardson correction; phi is unwrapped only in the
    smooth arcs where it jumps by pi or more between samples; kappa_g uses
    symmetric second differences in s.

    Every per-sample quantity is computed in one pass over the whole curve
    on component rows: g is built in a (3, n) buffer and stored as its
    (n, 3) transposed view. Per arc only the running sums of arc length
    and the unwrap of phi remain.

    Parameters
    ----------
    path : MotionPath
    eps : float
        Clamp margin, in [MIN_EPSILON, pi/8) = [1e-100, pi/8); below about
        1e-154 the squared chords of the clamp circle underflow.
    """
    all_pieces = clamped_affine_pieces(path, eps)
    moving = [p for p in all_pieces if p.moving]

    if not moving:
        # the whole motion is stationary after clamping: a one-point curve
        p = all_pieces[0]
        g = gauss_vector(p.th0, p.b0).reshape(3, 1).T
        return RegularizedCurve(
            epsilon=eps, t=np.array([p.t0]), s=np.array([0.0]),
            theta=np.array([p.th0]), beta_eps=np.array([p.b0]), g=g,
            phi=np.array([0.0]), kappa_g=np.array([0.0]), arcs=((0, 1),),
            junctions=(), total_length=0.0, closed=False, pieces=all_pieces)

    inner_alphas = [_junction_angle(a, b) for a, b in zip(moving, moving[1:])]

    g_first = gauss_vector(moving[0].th0, moving[0].b0)
    g_last = gauss_vector(*moving[-1].at(moving[-1].t1))
    closed = bool(np.linalg.norm(g_last - g_first) <= GEOM_CLOSE_TOL)
    wrap_alpha = _junction_angle(moving[-1], moving[0]) if closed else None

    # group pieces into smooth arcs, breaking where the tangent jumps
    groups = [[moving[0]]]
    for piece, alpha in zip(moving[1:], inner_alphas):
        if abs(alpha) > CUSP_ANGLE_TOL:
            groups.append([piece])
        else:
            groups[-1].append(piece)
    periodic = closed and len(groups) == 1 and (
        wrap_alpha is not None and abs(wrap_alpha) <= CUSP_ANGLE_TOL)

    # sample times; within an arc the junction sample is shared, and every
    # piece adds an even number of chords, so each arc has an even number
    times = []
    arcs = []
    first_index, last_index = [], []   # per moving piece, global sample index
    n = 0
    for group in groups:
        i0 = n
        for k, piece in enumerate(group):
            tp = _piece_samples(piece)
            if k > 0:
                tp = tp[1:]
            first_index.append(n - 1 if k > 0 else n)
            n += tp.size
            last_index.append(n - 1)
            times.append(tp)
        arcs.append((i0, n))
    t, theta, beta, G, phi, nu = _sample_rows(moving, times, arcs)

    # chords, Richardson-corrected in pairs (2k, 2k + 1) counted from each
    # arc's start; the step from one arc's end to the next arc's start is
    # no chord and goes unused
    step = np.diff(G)
    ds = np.sqrt(_row_dot(step, step))
    first = np.concatenate([np.arange(i0, i1 - 1, 2) for i0, i1 in arcs])
    c1, c2 = ds[first], ds[first + 1]
    coarse = G[:, first + 2] - G[:, first]
    coarse = np.sqrt(_row_dot(coarse, coarse))
    pair = c1 + c2 + (c1 + c2 - coarse) / 3.0
    total = c1 + c2
    scale = np.where(total > 0.0, pair / np.where(total > 0.0, total, 1.0), 1.0)
    ds[first] = c1 * scale
    ds[first + 1] = c2 * scale

    # arc length from each arc's own start, and from the curve's start
    local = np.empty(n)
    s = np.empty(n)
    s_off = 0.0
    for i0, i1 in arcs:
        local[i0] = 0.0
        np.cumsum(ds[i0:i1 - 1], out=local[i0 + 1:i1])
        np.add(local[i0:i1], s_off, out=s[i0:i1])
        s_off += float(local[i1 - 1])

    # geodesic curvature: second differences of g in s, dotted with the
    # left normal; g'' at sample k is 2 (slope k - slope k-1) / (h k-1 + h k)
    # with slope k = step k / h k
    ends = np.array([i1 for _, i1 in arcs])
    h = np.diff(local)
    h[ends[:-1] - 1] = 1.0   # steps across arc boundaries: unused, safe to divide by
    step /= h
    gpp = step[:, 1:] - step[:, :-1]
    gpp *= 2.0
    gpp /= h[:-1] + h[1:]
    kappa = np.empty(n)
    kappa[1:-1] = _row_dot(gpp, nu[:, 1:-1])
    if periodic:
        # the neighbours of the two ends are across the closure
        h_in, h_out = ds[-1], (local[-1] + ds[0]) - local[-1]
        into = (G[:, 0] - G[:, -2]) / h_in
        out_of = (G[:, 1] - G[:, -1]) / h_out
        kappa[0] = _row_dot(2.0 * (step[:, 0] - into) / (h_in + h[0]), nu[:, 0])
        kappa[-1] = _row_dot(2.0 * (out_of - step[:, -1]) / (h[-1] + h_out),
                             nu[:, -1])
    else:
        # arc ends: the 3-point parabola estimate dotted with the end normal
        starts = np.array([i0 for i0, _ in arcs])
        kappa[starts] = _row_dot(gpp[:, starts], nu[:, starts])
        kappa[ends - 1] = _row_dot(gpp[:, ends - 3], nu[:, ends - 1])

    junctions = [Junction(t=float(p_in.t1), alpha=alpha, in_index=last_index[k],
                          out_index=first_index[k + 1])
                 for k, (p_in, alpha) in enumerate(zip(moving, inner_alphas))]
    if closed:
        junctions.append(Junction(t=float(moving[-1].t1), alpha=float(wrap_alpha),
                                  in_index=last_index[-1], out_index=0))

    return RegularizedCurve(
        epsilon=eps, t=t, s=s, theta=theta, beta_eps=beta, g=G.T, phi=phi,
        kappa_g=kappa, arcs=tuple(arcs), junctions=tuple(junctions),
        total_length=float(s_off), closed=closed, pieces=tuple(all_pieces))


@lru_cache(maxsize=8)
def cached_regularize(path: MotionPath, eps: float) -> RegularizedCurve:
    """Memoized regularize keyed on path identity; shared across phase methods."""
    return regularize(path, eps)


# ---------------------------------------------------------------------------
# cusps


def detect_cusps(curve: RegularizedCurve, angle_tol: float = CUSP_ANGLE_TOL) -> tuple:
    """Junctions whose tangent jump exceeds angle_tol, as (t, alpha) records."""
    return tuple(Cusp(t=j.t, alpha=j.alpha) for j in curve.junctions
                 if abs(j.alpha) > angle_tol)


# ---------------------------------------------------------------------------
# offset curves (parallel curves at signed distance q on the sphere)


def _smooth_or_raise(curve: RegularizedCurve):
    if curve.cusps:
        raise CurveHasCusps(
            f"operation needs a smooth curve; found {len(curve.cusps)} cusp(s)")


def _normal_derivative(curve: RegularizedCurve, tangents) -> np.ndarray:
    """d(nu)/ds of the left normals nu = g x T by central differences,
    periodic when the curve closes smoothly; tangents are curve.tangents()."""
    nu = np.cross(curve.g, tangents)
    s = curve.s
    n = len(curve)
    out = np.empty_like(nu)
    if curve.closed and n >= 3:
        ds_wrap_lo = s[-1] - s[-2]
        nup = np.vstack([nu[-2], nu, nu[1]])
        sp = np.concatenate([[s[0] - ds_wrap_lo], s, [s[-1] + (s[1] - s[0])]])
        h1 = (sp[1:-1] - sp[:-2])[:, None]
        h2 = (sp[2:] - sp[1:-1])[:, None]
        # non-uniform central first derivative
        out = (nup[2:] * h1 ** 2 - nup[:-2] * h2 ** 2
               + nup[1:-1] * (h2 ** 2 - h1 ** 2)) / (h1 * h2 * (h1 + h2))
    else:
        out[1:-1] = (nu[2:] - nu[:-2]) / (s[2:] - s[:-2])[:, None]
        out[0] = (nu[1] - nu[0]) / (s[1] - s[0])
        out[-1] = (nu[-1] - nu[-2]) / (s[-1] - s[-2])
    return out


def offset_length(curve: RegularizedCurve, q: float) -> float:
    """Length of the parallel curve at signed offset q.

    The offset curve displaces each point by q against the left normal; its
    length is the integral of |g'(s) - q nu'(s)|, evaluated by the composite
    trapezoid rule over the stored samples.
    """
    return _offset_length(curve)(q)


def _offset_length(curve: RegularizedCurve):
    """q -> offset_length(curve, q), with the tangents and d(nu)/ds built once."""
    _smooth_or_raise(curve)
    tangents = curve.tangents()
    dnu = _normal_derivative(curve, tangents)
    return lambda q: float(np.trapezoid(np.linalg.norm(tangents - q * dnu, axis=1),
                                        curve.s))


def offset_length_derivative(curve: RegularizedCurve, h: float = 1e-3) -> float:
    """d(L_q)/dq at q=0 via central differences at h and h/2 with Richardson.

    For smooth closed curves this equals the integral of the geodesic
    curvature along the curve.
    """
    length = _offset_length(curve)
    d_h = (length(+h) - length(-h)) / (2.0 * h)
    d_h2 = (length(+h / 2) - length(-h / 2)) / h
    return (4.0 * d_h2 - d_h) / 3.0
