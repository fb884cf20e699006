"""Geometry of the tilt-direction vector on the unit sphere.

The rolling disc's unit normal ("Gauss vector") traces a curve on S^2 as the
motion runs. This module provides the moving orthonormal frame attached to
that vector, the pole-avoiding clamped curve, and the differential-geometric
data computed on it: arc length, tangent angle, geodesic curvature, cusp
angles, and offset-curve lengths.

Orientation conventions (used consistently across the package; the frame's
components are written in ``frame_rows`` alone, and every module reads them
from there):

* g(theta, beta) = (sin b cos th, sin b sin th, -cos b); tilt 0 is the south
  pole, tilt pi the north pole.
* e1 = (-sin th, cos th, 0), e2 = (cos b cos th, cos b sin th, sin b),
  e3 = e1 x e2 = g.
* The left normal of a curve with unit tangent T is nu = g x T; signed angles
  in the tangent plane are counterclockwise viewed from outside, along +g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from math import ceil, hypot, pi, sin

import numpy as np

from .errors import CurveHasCusps, QuadratureFailure, TooManySamples
from .motion import (DEFAULT_EPSILON, MIN_EPSILON, MotionPath, Piece,
                     clamped_affine_pieces, topology_report)

MAX_SAMPLE_STEP = 1.6e-2        # cap on the angle subtended by adjacent samples
_MIN_PIECE_SAMPLES = 16         # sample floor per smooth piece (coarse motions)
MAX_PIECE_SAMPLES = 1_000_000   # about 2,500 equator laps at MAX_SAMPLE_STEP
# cap on step / sin(beta) on pieces that turn in theta, about 1.75e-2: the
# azimuth turned per step on a latitude circle of radius sin(beta). Of the
# sampled quantities only the area fans need it: it keeps their sixth-order
# area as accurate near the clamp circles as at the equator. Arc length is
# sixth order too, and the curvature route integrates the pieces themselves
_KAPPA_STEP = 16.0 * 1.2e-6 ** 0.5
_QUAD_ORDERS = (16, 24)   # Gauss-Legendre node counts compared per interval
_QUAD_TOL = 1e-11
CUSP_ANGLE_TOL = 1e-8


# ---------------------------------------------------------------------------
# frames


def frame_rows(theta, beta):
    """The orthonormal frame (e1, e2, g) at (theta, beta) as one array F of
    shape (3, 3) + S, where S is the common shape theta and beta broadcast
    to: F[0], F[1] and F[2] are e1, e2 and g, and F[i, k] is the row of
    component k of vector i. The only place the frame is written."""
    theta, beta = np.asarray(theta, dtype=float), np.asarray(beta, dtype=float)
    if theta.shape != beta.shape:
        theta, beta = np.broadcast_arrays(theta, beta)
    ct, st = np.cos(theta), np.sin(theta)
    cb, sb = np.cos(beta), np.sin(beta)
    F = np.empty((3, 3) + ct.shape)
    np.negative(st, out=F[0, 0, ...])
    F[0, 1], F[0, 2] = ct, 0.0
    np.multiply(cb, ct, out=F[1, 0, ...])
    np.multiply(cb, st, out=F[1, 1, ...])
    F[1, 2] = sb
    np.multiply(sb, ct, out=F[2, 0, ...])
    np.multiply(sb, st, out=F[2, 1, ...])
    np.negative(cb, out=F[2, 2, ...])
    return F


def gauss_vector(theta, beta) -> np.ndarray:
    """Unit normal of the rolling disc; shape (..., 3)."""
    return np.stack(frame_rows(theta, beta)[2], axis=-1)


def frame_vectors(theta, beta):
    """The orthonormal triple (e1, e2, e3) as arrays of shape (..., 3)."""
    return tuple(np.stack(v, axis=-1) for v in frame_rows(theta, beta))


# ---------------------------------------------------------------------------
# the sampled regularized curve


@dataclass(frozen=True)
class Junction:
    """Meeting point of two smooth pieces; alpha is the signed tangent jump."""

    t: float
    alpha: float


@dataclass(eq=False)
class RegularizedCurve:
    """Densely sampled pole-avoiding curve of the Gauss vector.

    Treat instances as immutable. Arrays are aligned: sample k has time t[k],
    arc length s[k], position g[k], tangent angle phi[k] and geodesic
    curvature kappa_g[k], exact for the piece the sample lies on (at a
    junction inside an arc, the incoming piece); s, total_length, phi and
    kappa_g are computed on first read, since no route needs them on every
    curve (is_simple reads s only when its search goes past its first
    bounds or a junction nearly reverses). g has shape (n, 3)
    and is the transposed view of a (3, n) buffer of component rows, so
    g.T[0], g.T[1], g.T[2] are contiguous. phi is continuous within each smooth
    arc: it is unwrapped only in the arcs where the raw tangent angle jumps
    by pi or more. ``arcs`` lists half-open index ranges of maximal smooth
    sub-arcs; shared junction points appear once per adjacent arc so phi
    stays continuous within each arc. ``pieces`` holds the clamped moving
    pieces the samples were taken on, in order; regions.is_simple reads
    them, not the samples.
    """

    epsilon: float
    pieces: tuple
    t: np.ndarray
    theta: np.ndarray
    beta_eps: np.ndarray
    g: np.ndarray
    arcs: tuple
    junctions: tuple
    closed: bool
    _piece: np.ndarray = field(repr=False)   # index into pieces per sample
    _rows: np.ndarray = field(repr=False)    # pieces as rows (len(pieces), 6)
    _cache: dict = field(default_factory=dict, repr=False)

    @cached_property
    def s(self) -> np.ndarray:
        return _arc_length(self.g.T, self.arcs)

    @cached_property
    def total_length(self) -> float:
        return float(self.s[-1])

    @cached_property
    def phi(self) -> np.ndarray:
        # np.unwrap changes nothing in an arc without a step of pi or more
        if not self.pieces:
            return np.zeros_like(self.t)
        _, _, _, dth, _, db = self._rows.T
        phi = np.arctan2(db[self._piece], np.sin(self.beta_eps) * dth[self._piece])
        jumps = np.abs(np.diff(phi)) >= pi
        for i0, i1 in self.arcs:
            if jumps[i0:i1 - 1].any():
                phi[i0:i1] = np.unwrap(phi[i0:i1])
        return phi

    @cached_property
    def kappa_g(self) -> np.ndarray:
        if not self.pieces:
            return np.zeros_like(self.t)
        return _geodesic_curvature(self._rows, self._piece, self.beta_eps)

    @property
    def cusps(self) -> tuple:
        return detect_cusps(self)

    def tangents(self) -> np.ndarray:
        """Unit tangents T(s); within arcs T = cos(phi) e1 + sin(phi) e2."""
        e1, e2, _ = frame_vectors(self.theta, self.beta_eps)
        return (np.cos(self.phi)[:, None] * e1 + np.sin(self.phi)[:, None] * e2)

    def __len__(self):
        return self.t.size


def _junction_angle(p_in: Piece, p_out: Piece, path: MotionPath) -> float:
    """Signed tangent jump where the clamped piece p_in of path ends and
    p_out starts (same point). An exact reversal, as along a clamp circle,
    is +-pi as the raw pieces they were cut from turn, theta'_in beta'_out
    - beta'_in theta'_out (+pi for 0): the raw return strand lies there."""
    _, b_in = p_in.at(p_in.t1)
    u1, v1 = np.sin(b_in) * p_in.dth, p_in.db
    u2, v2 = np.sin(p_out.b0) * p_out.dth, p_out.db
    cross = u1 * v2 - v1 * u2
    dot = u1 * u2 + v1 * v2
    if cross == 0.0 and dot < 0.0:
        db_in, db_out = (path.beta._at(p.t0)[1] for p in (p_in, p_out))
        return -pi if p_in.dth * db_out - db_in * p_out.dth < 0.0 else pi
    return float(np.arctan2(cross, dot))


def _piece_steps(piece: Piece) -> int:
    """The number of equal steps in t of one piece, a multiple of 4.

    Adjacent samples subtend at most MAX_SAMPLE_STEP = 1.6e-2, or
    _KAPPA_STEP * sin(beta_min) for a piece that turns in theta: on a
    latitude circle of radius sin(beta) that bound keeps the angle turned
    per step, and with it the error of the polygon area, the same near the
    clamp circles as at the equator. A meridian piece (theta' = 0) is a
    great circle, whose chords are exact at any step, so it gets
    MAX_SAMPLE_STEP. Every piece gets at least _MIN_PIECE_SAMPLES steps, so
    at least 17 samples. A piece that needs more than MAX_PIECE_SAMPLES
    steps raises TooManySamples before anything is allocated.
    """
    b_lo = min(piece.b0, piece.b0 + piece.db * (piece.t1 - piece.t0))
    b_hi = max(piece.b0, piece.b0 + piece.db * (piece.t1 - piece.t0))
    sin_min = min(sin(b_lo), sin(b_hi))
    sin_max = 1.0 if b_lo <= pi / 2.0 <= b_hi else max(sin(b_lo), sin(b_hi))
    extent = hypot(sin_max * piece.dth, piece.db) * (piece.t1 - piece.t0)
    step = MAX_SAMPLE_STEP
    if piece.dth != 0.0:
        step = min(step, _KAPPA_STEP * sin_min)
    needed = extent / step   # inf, not an error, past the float range
    if not needed <= MAX_PIECE_SAMPLES:
        raise TooManySamples(
            f"piece [{piece.t0!r}, {piece.t1!r}] needs {needed:.0f} samples, "
            f"more than MAX_PIECE_SAMPLES = {MAX_PIECE_SAMPLES}",
            value=needed, tol=MAX_PIECE_SAMPLES)
    return 4 * max(ceil(0.25 * needed), _MIN_PIECE_SAMPLES // 4)


def _row_dot(u, v):
    """Dot products of vectors given per component, as rows."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _coarse_grid(arcs, stride: int, ends: bool = True):
    """Every stride-th sample of each arc from its start, as one index
    array: the coarse grids of the Richardson and Romberg corrections
    (chord quads, area fans, offset-length integrals). regularize gives
    every piece a multiple of 4 equal steps in t, so for stride 2 and 4
    each arc's grid keeps both ends; with ends=False the last sample of each
    arc is left out. An arc whose steps are not a multiple of stride raises
    ValueError."""
    for i0, i1 in arcs:
        if (i1 - i0 - 1) % stride:
            raise ValueError(f"arc [{i0}, {i1}) has {i1 - i0 - 1} steps, not a "
                             f"multiple of {stride}")
    return np.concatenate([np.arange(i0, i1 - (not ends), stride) for i0, i1 in arcs])


def _richardson_trapezoid(y, s, arcs) -> float:
    """Integral of y ds over the arcs by the trapezoid rule over all
    samples, T_h, and over every other sample, T_2h (see _coarse_grid),
    combined as (4 T_h - T_2h) / 3; this cancels the h^2 error
    (Richardson, Phil. Trans. R. Soc. A 210 (1911) 307). s does not
    advance from one arc's last sample to the next arc's first, so both
    sums run over the whole array."""
    fine = np.trapezoid(y, s)
    coarse = _coarse_grid(arcs, 2)
    return float(fine + (fine - np.trapezoid(y[coarse], s[coarse])) / 3.0)


@lru_cache(maxsize=None)
def _gauss_legendre_rules():
    """The nodes of both _QUAD_ORDERS on [-1, 1], concatenated, and the
    weights of each."""
    (x1, w1), (x2, w2) = (np.polynomial.legendre.leggauss(n) for n in _QUAD_ORDERS)
    return np.concatenate([x1, x2]), w1, w2


def _gauss_legendre_sum(t0, t1, integrand) -> float:
    """Sum over the intervals [t0[k], t1[k]] of the integral of integrand,
    by the Gauss-Legendre rules of both _QUAD_ORDERS in one array pass.
    integrand gets the nodes' offsets from their interval's start, shape
    (intervals, 40), and returns the values there. Two results more than
    _QUAD_TOL apart on an interval raise QuadratureFailure; the higher
    order is returned."""
    half = 0.5 * (t1 - t0)
    nodes, w_low, w_high = _gauss_legendre_rules()
    f = integrand(half[:, None] * (1.0 + nodes))
    split = _QUAD_ORDERS[0]
    low = half * (f[:, :split] @ w_low)
    high = half * (f[:, split:] @ w_high)
    diff = np.abs(high - low)
    k = int(np.argmax(diff))
    if not diff[k] <= _QUAD_TOL:
        raise QuadratureFailure(
            f"Gauss-Legendre orders {_QUAD_ORDERS[0]} and {_QUAD_ORDERS[1]} "
            f"differ by {diff[k]:.3e} on [{float(t0[k])!r}, {float(t1[k])!r}] "
            f"(tolerance {_QUAD_TOL:.1e})",
            value=float(diff[k]), tol=_QUAD_TOL)
    return float(np.sum(high))


def _curvature_rows(sb, cb, w, v):
    """det(g, g_t, g_tt) and |g_t|^2 along an affine piece with rates
    theta' = w and beta' = v, at tilts with sin sb and cos cb. Neither
    changes when the sphere turns about z, so the rows are taken in the
    frame turned by -theta, where g = (sb, 0, -cb); there a meridian piece
    (w = 0) gives exactly 0."""
    gt = (cb * v, sb * w, sb * v)
    gtt = (-sb * (v * v + w * w), 2.0 * cb * v * w, cb * v * v)
    det = (sb * (gt[1] * gtt[2] - gt[2] * gtt[1])
           - cb * (gt[0] * gtt[1] - gt[1] * gtt[0]))
    return det, _row_dot(gt, gt)


def _geodesic_curvature(rows, piece, beta):
    """kappa_g at tilts beta of samples on the moving pieces, given as
    rows (pieces, 6), sample k on rows[piece[k]]: det(g, g_t, g_tt) /
    |g_t|^3 (do Carmo, Differential Geometry of Curves and Surfaces, 1976,
    4-4) from the exact derivatives of each sample's own piece
    (_curvature_rows). kappa_g does not change under t -> c t, so the rates
    are divided by the larger of the two first: rates whose squares fall
    below the float range would give 0 / 0."""
    _, _, _, dth, _, db = rows.T
    scale = np.maximum(np.abs(dth), np.abs(db))
    det, speed2 = _curvature_rows(np.sin(beta), np.cos(beta),
                                  (dth / scale)[piece], (db / scale)[piece])
    return det / speed2 / np.sqrt(speed2)   # no subnormal |g_t|^3 near a pole


def _sample_rows(rows, steps, opens):
    """t, theta, beta, g (3, n) and the piece index of each sample of the
    moving pieces, rows (pieces, 6): piece i at np.linspace(t0, t1,
    steps[i] + 1)'s times, k (t1 - t0) / steps[i] + t0 with the last pinned
    to t1, less the first unless opens[i] starts an arc (a junction sample
    shared within an arc is the incoming piece's)."""
    steps = np.array(steps)
    counts = steps + opens
    last = np.cumsum(counts)   # one past each piece's samples
    piece = np.repeat(np.arange(steps.size), counts)
    k = np.arange(last[-1]) - np.repeat(last - steps - 1, counts)
    t0, t1 = rows.T[:2]
    t = k * ((t1 - t0) / steps)[piece] + t0[piece]
    t[last - 1] = t1
    start, _, th0, dth, b0, db = rows.T[:, piece]
    since = t - start
    theta = th0 + dth * since
    beta = b0 + db * since
    g = np.array(frame_rows(theta, beta)[2])
    g /= np.sqrt(_row_dot(g, g))   # re-projection to the sphere
    return t, theta, beta, g, piece


def _arc_length(G, arcs):
    """Arc length at each sample of the (3, n) rows G of a sampled curve,
    from the curve's start; it does not advance from one arc's last sample
    to the next arc's first.

    Chords are Romberg-corrected in quads (4k, ..., 4k + 3) counted from
    each arc's start: with S_h the quad's four chords, S_2h its two chords
    over every other sample and S_4h its one chord, R(h) = S_h + (S_h -
    S_2h)/3 and R(2h) = S_2h + (S_2h - S_4h)/3 cancel the h^2 error, and
    R(h) + (R(h) - R(2h))/15 the h^4 error too; the quad's chords are
    scaled to that sum. Sixth order."""
    step = np.diff(G)
    ds = np.sqrt(_row_dot(step, step))
    first = _coarse_grid(arcs, 4, ends=False)
    m = first.size
    quads = (first[:, None] + np.arange(4)).ravel()
    c = ds[quads].reshape(m, 4)
    ends = G[:, np.concatenate([first, first + 2, first + 4])]
    halves, whole = ends[:, m:] - ends[:, :2 * m], ends[:, 2 * m:] - ends[:, :m]
    c2 = np.sqrt(_row_dot(halves, halves))   # the quads' first halves, then second
    s_h = c[:, 0] + c[:, 1] + c[:, 2] + c[:, 3]
    s_2h = c2[:m] + c2[m:]
    r_h = s_h + (s_h - s_2h) / 3.0
    r_2h = s_2h + (s_2h - np.sqrt(_row_dot(whole, whole))) / 3.0
    romberg = r_h + (r_h - r_2h) / 15.0
    scale = np.where(s_h > 0.0, romberg / np.where(s_h > 0.0, s_h, 1.0), 1.0)
    ds[quads] = (c * scale[:, None]).ravel()

    # arc length from each arc's own start, and from the curve's start
    local = np.empty(G.shape[1])
    s = np.empty(G.shape[1])
    s_off = 0.0
    for i0, i1 in arcs:
        local[i0] = 0.0
        np.cumsum(ds[i0:i1 - 1], out=local[i0 + 1:i1])
        np.add(local[i0:i1], s_off, out=s[i0:i1])
        s_off += float(local[i1 - 1])
    return s


def regularize(path: MotionPath, eps: float = DEFAULT_EPSILON) -> RegularizedCurve:
    """Build the sampled pole-avoiding curve of the motion's Gauss vector.

    The tilt is clamped to [eps, pi-eps]; intervals where the clamped point
    does not move collapse to a single shared sample. Each smooth piece gets
    a multiple of 4, at least 16, steps of equal time; adjacent samples
    subtend at most MAX_SAMPLE_STEP = 1.6e-2 radians, or _KAPPA_STEP *
    sin(beta_min) on a piece that turns in theta, where the area fans need
    the finer step near the clamp circles. Meridian pieces (theta' = 0) are
    great circles and keep MAX_SAMPLE_STEP. Arc length (s, total_length),
    phi and kappa_g are computed on first read. Arc length comes from chord
    sums with a Romberg correction over each run of four chords, sixth
    order (_arc_length). phi is unwrapped only in the smooth arcs where it
    jumps by pi or more between samples, and kappa_g is det(g, g', g'') /
    |g'|^3 from the exact derivatives of each sample's own piece (see
    _geodesic_curvature), within rounding of the closed form.
    ``closed`` is topology_report(path).closed, the closure every route
    gates on, also for the one-point curve of a motion that is stationary
    after clamping.

    Every sample time and every per-sample quantity is computed in one pass
    over the whole curve on component rows (_sample_rows): g is built in a
    (3, n) buffer and stored as its (n, 3) transposed view.

    Parameters
    ----------
    path : MotionPath
    eps : float
        Clamp margin, in [MIN_EPSILON, pi/8) = [1e-100, pi/8); below about
        1e-154 the squared chords of the clamp circle underflow.
    """
    all_pieces = clamped_affine_pieces(path, eps)
    moving = [p for p in all_pieces if p.moving]
    closed = topology_report(path).closed
    rows = np.fromiter(chain.from_iterable(moving), float,
                       6 * len(moving)).reshape(-1, 6)

    if not moving:
        # the whole motion is stationary after clamping: a one-point curve
        p = all_pieces[0]
        return RegularizedCurve(
            epsilon=eps, pieces=(), t=np.array([p.t0]),
            theta=np.array([p.th0]), beta_eps=np.array([p.b0]),
            g=np.array(frame_rows([p.th0], [p.b0])[2]).T,
            arcs=((0, 1),), junctions=(), closed=closed,
            _piece=np.zeros(1, dtype=int), _rows=rows)

    inner_alphas = [_junction_angle(a, b, path) for a, b in zip(moving, moving[1:])]
    wrap_alpha = _junction_angle(moving[-1], moving[0], path) if closed else None

    # smooth arcs break where the tangent jumps; within an arc a piece
    # shares its first sample with the piece before, and every piece adds a
    # multiple of 4 chords, so each arc has such a number
    opens = [True] + [abs(alpha) > CUSP_ANGLE_TOL for alpha in inner_alphas]
    steps = [_piece_steps(p) for p in moving]
    t, theta, beta, G, piece = _sample_rows(rows, steps, opens)
    ends = list(accumulate(m + o for m, o in zip(steps, opens)))
    starts = [e - m - 1 for e, m, o in zip(ends, steps, opens) if o]
    arcs = tuple(zip(starts, starts[1:] + ends[-1:]))

    junctions = [Junction(t=float(p_in.t1), alpha=alpha)
                 for p_in, alpha in zip(moving, inner_alphas)]
    if closed:
        junctions.append(Junction(t=float(moving[-1].t1), alpha=float(wrap_alpha)))

    return RegularizedCurve(
        epsilon=eps, pieces=tuple(moving), t=t, theta=theta, beta_eps=beta,
        g=G.T, arcs=arcs, junctions=tuple(junctions), closed=closed,
        _piece=piece, _rows=rows)


@lru_cache(maxsize=8)
def cached_regularize(path: MotionPath, eps: float) -> RegularizedCurve:
    """Memoized regularize keyed on path identity; shared across phase methods."""
    return regularize(path, eps)


# ---------------------------------------------------------------------------
# cusps


def detect_cusps(curve: RegularizedCurve) -> tuple:
    """The junctions whose tangent jump exceeds CUSP_ANGLE_TOL."""
    return tuple(j for j in curve.junctions if abs(j.alpha) > CUSP_ANGLE_TOL)


# ---------------------------------------------------------------------------
# offset curves (parallel curves at signed distance q on the sphere)


def _smooth_or_raise(curve: RegularizedCurve):
    if curve.cusps:
        raise CurveHasCusps(
            f"operation needs a smooth curve; found {len(curve.cusps)} cusp(s)")


def _normal_derivative(curve: RegularizedCurve, tangents) -> np.ndarray:
    """d(nu)/ds of the left normals nu = g x T, fourth order: the Richardson
    combination (4 D_1 - D_2) / 3 of the divided differences D_k between
    the samples k before and k after, periodic when the curve closes
    smoothly; tangents are curve.tangents(). On an open curve the two
    samples next to each end keep D_1 and one-sided differences."""
    nu = np.cross(curve.g, tangents)
    s = curve.s
    if curve.closed:
        # samples 1, 2 follow the last one and n-3, n-2 precede the first
        nu = np.concatenate([nu[-3:-1], nu, nu[1:3]])
        s = np.concatenate([s[-3:-1] - s[-1], s, s[1:3] + s[-1]])
    d1 = (nu[2:] - nu[:-2]) / (s[2:] - s[:-2])[:, None]
    d2 = (nu[4:] - nu[:-4]) / (s[4:] - s[:-4])[:, None]
    inner = (4.0 * d1[1:-1] - d2) / 3.0
    if curve.closed:
        return inner
    ends = (nu[[1, -1]] - nu[[0, -2]]) / (s[[1, -1]] - s[[0, -2]])[:, None]
    return np.concatenate([ends[:1], d1[:1], inner, d1[-1:], ends[1:]])


def offset_length(curve: RegularizedCurve, q: float) -> float:
    """Length of the parallel curve at signed offset q.

    The offset curve displaces each point by q against the left normal; its
    length is the integral of |g'(s) - q nu'(s)|, with nu' of fourth order
    (see _normal_derivative), by _richardson_trapezoid over the samples.
    """
    return _offset_length(curve)(q)


def _offset_length(curve: RegularizedCurve):
    """q -> offset_length(curve, q), with the tangents and d(nu)/ds built once."""
    _smooth_or_raise(curve)
    tangents = curve.tangents()
    dnu = _normal_derivative(curve, tangents)
    return lambda q: _richardson_trapezoid(
        np.linalg.norm(tangents - q * dnu, axis=1), curve.s, curve.arcs)


def offset_length_derivative(curve: RegularizedCurve, h: float = 1e-3) -> float:
    """d(L_q)/dq at q=0 via central differences at h and h/2 with Richardson.

    For smooth closed curves this equals the integral of the geodesic
    curvature along the curve.
    """
    length = _offset_length(curve)
    d_h = (length(+h) - length(-h)) / (2.0 * h)
    d_h2 = (length(+h / 2) - length(-h / 2)) / h
    return (4.0 * d_h2 - d_h) / 3.0
