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
from math import pi

import numpy as np

from .errors import CurveHasCusps, EpsilonOutOfRange
from .motion import MotionPath, Piece

DEFAULT_EPSILON = pi / 16.0
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
    if not (0.0 < eps < pi / 8.0):
        raise EpsilonOutOfRange(f"epsilon must lie in (0, pi/8), got {eps!r}")


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
                bc, dbc = b0 + db * (u0 - t0), db
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
    arc length s[k], position g[k], unwrapped tangent angle phi[k] and
    geodesic curvature kappa_g[k]. ``arcs`` lists half-open index ranges of
    maximal smooth sub-arcs; shared junction points appear once per adjacent
    arc so phi stays continuous within each arc.
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

    def _cusp_sample_indices(self) -> frozenset:
        out = self._cache.get("cusp_samples")
        if out is None:
            idx = set()
            for j in self.junctions:
                if abs(j.alpha) > CUSP_ANGLE_TOL:
                    idx.update((j.in_index, j.out_index))
            out = frozenset(idx)
            self._cache["cusp_samples"] = out
        return out


def _tangent_components(piece: Piece, t):
    """Unnormalized tangent in the (e1, e2) basis at time(s) t."""
    _, b = piece.at(t)
    return np.sin(b) * piece.dth, np.full_like(np.asarray(t, dtype=float) * 1.0, piece.db)


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
    """Sample times for one piece; even step count, density tied to curvature."""
    b_lo = min(piece.b0, piece.b0 + piece.db * (piece.t1 - piece.t0))
    b_hi = max(piece.b0, piece.b0 + piece.db * (piece.t1 - piece.t0))
    sin_min = min(np.sin(b_lo), np.sin(b_hi))
    sin_max = 1.0 if b_lo <= pi / 2.0 <= b_hi else max(np.sin(b_lo), np.sin(b_hi))
    speed_max = float(np.hypot(sin_max * piece.dth, piece.db))
    extent = speed_max * (piece.t1 - piece.t0)
    step = min(MAX_SAMPLE_STEP, _KAPPA_STEP * float(sin_min))
    needed = extent / step   # inf, not an error, past the float range
    if not needed <= MAX_PIECE_SAMPLES:
        raise ValueError(
            f"piece [{piece.t0!r}, {piece.t1!r}] needs {needed:.3g} samples, "
            f"more than MAX_PIECE_SAMPLES = {MAX_PIECE_SAMPLES}")
    half = max(2, int(np.ceil(0.5 * needed)), (_MIN_PIECE_SAMPLES + 1) // 2)
    return np.linspace(piece.t0, piece.t1, 2 * half + 1)


def _arc_geometry(t_arr, theta_arr, beta_arr, u_arr, v_arr, periodic: bool):
    """Arc length (Richardson-corrected chords), phi, kappa for one smooth arc."""
    ct, st = np.cos(theta_arr), np.sin(theta_arr)
    cb, sb = np.cos(beta_arr), np.sin(beta_arr)
    g = np.stack([sb * ct, sb * st, -cb], axis=-1)
    g /= np.linalg.norm(g, axis=1, keepdims=True)   # re-projection to the sphere

    chords = np.linalg.norm(np.diff(g, axis=0), axis=1)
    ds = chords.copy()
    if chords.size >= 2 and chords.size % 2 == 0:
        c1, c2 = chords[0::2], chords[1::2]
        coarse = np.linalg.norm(g[2::2] - g[:-2:2], axis=1)
        pair = c1 + c2 + (c1 + c2 - coarse) / 3.0
        total = c1 + c2
        scale = np.where(total > 0.0, pair / np.where(total > 0.0, total, 1.0), 1.0)
        ds[0::2] = c1 * scale
        ds[1::2] = c2 * scale
    s = np.concatenate([[0.0], np.cumsum(ds)])

    phi = np.unwrap(np.arctan2(v_arr, u_arr))

    # geodesic curvature: second differences of g in s, dotted with the left
    # normal nu = -sin(phi) e1 + cos(phi) e2, written out per component
    sp, cp = np.sin(phi), np.cos(phi)
    nu = np.stack([sp * st + cp * (cb * ct), cp * (cb * st) - sp * ct, cp * sb],
                  axis=-1)
    n = g.shape[0]
    kappa = np.empty(n)
    if periodic and n >= 3:
        gp = np.vstack([g[-2], g, g[1]])
        sp = np.concatenate([[s[0] - ds[-1]], s, [s[-1] + ds[0]]])
        h1 = np.diff(sp)[:-1]
        h2 = np.diff(sp)[1:]
        gpp = 2.0 * ((gp[2:] - gp[1:-1]) / h2[:, None]
                     - (gp[1:-1] - gp[:-2]) / h1[:, None]) / (h1 + h2)[:, None]
        kappa[:] = np.einsum("ij,ij->i", gpp, nu)
    elif n >= 3:
        h1 = np.diff(s)[:-1]
        h2 = np.diff(s)[1:]
        gpp = 2.0 * ((g[2:] - g[1:-1]) / h2[:, None]
                     - (g[1:-1] - g[:-2]) / h1[:, None]) / (h1 + h2)[:, None]
        kappa[1:-1] = np.einsum("ij,ij->i", gpp, nu[1:-1])
        # ends: the 3-point parabola estimate dotted with the end normal
        kappa[0] = float(gpp[0] @ nu[0])
        kappa[-1] = float(gpp[-1] @ nu[-1])
    else:
        kappa[:] = 0.0
    return g, s, phi, kappa


def regularize(path: MotionPath, eps: float = DEFAULT_EPSILON) -> RegularizedCurve:
    """Build the sampled pole-avoiding curve of the motion's Gauss vector.

    The tilt is clamped to [eps, pi-eps]; intervals where the clamped point
    does not move collapse to a single shared sample. Each smooth piece gets
    at least 16 samples, and adjacent samples subtend at most
    MAX_SAMPLE_STEP = 1e-3 radians, less near the clamp circles where
    curvature is large. Arc length comes from chord sums with pairwise
    Richardson correction; phi is unwrapped per smooth arc; kappa_g uses
    symmetric second differences in s.

    Parameters
    ----------
    path : MotionPath
    eps : float
        Clamp margin, in (0, pi/8).
    """
    all_pieces = clamped_affine_pieces(path, eps)
    moving = [p for p in all_pieces if p.moving]

    if not moving:
        # the whole motion is stationary after clamping: a one-point curve
        p = all_pieces[0]
        g = gauss_vector(p.th0, p.b0)[None, :]
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
    single_smooth_loop = closed and len(groups) == 1 and (
        wrap_alpha is not None and abs(wrap_alpha) <= CUSP_ANGLE_TOL)

    arc_columns = []   # per arc: t, theta, beta, g, s, phi, kappa
    arcs = []
    s_off = 0.0
    first_index, last_index = [], []   # per moving piece, global sample index
    n_total = 0
    for group in groups:
        parts = []
        i0 = n_total
        for k, piece in enumerate(group):
            tp = _piece_samples(piece)
            if k > 0:
                tp = tp[1:]   # the junction sample is shared within the arc
            first_index.append(n_total - 1 if k > 0 else n_total)
            n_total += tp.size
            last_index.append(n_total - 1)
            parts.append((tp, *piece.at(tp), *_tangent_components(piece, tp)))
        t_arr, th_arr, b_arr, u_arr, v_arr = (np.concatenate(c) for c in zip(*parts))
        g_arr, s_arr, phi_arr, kap_arr = _arc_geometry(
            t_arr, th_arr, b_arr, u_arr, v_arr, periodic=single_smooth_loop)
        arcs.append((i0, n_total))
        arc_columns.append((t_arr, th_arr, b_arr, g_arr, s_arr + s_off,
                            phi_arr, kap_arr))
        s_off += float(s_arr[-1])

    junctions = [Junction(t=float(p_in.t1), alpha=alpha, in_index=last_index[k],
                          out_index=first_index[k + 1])
                 for k, (p_in, alpha) in enumerate(zip(moving, inner_alphas))]
    if closed:
        junctions.append(Junction(t=float(moving[-1].t1), alpha=float(wrap_alpha),
                                  in_index=last_index[-1], out_index=0))

    t, theta, beta, g, s, phi, kappa = (np.concatenate(c) for c in zip(*arc_columns))
    return RegularizedCurve(
        epsilon=eps, t=t, s=s, theta=theta, beta_eps=beta, g=g, phi=phi,
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
