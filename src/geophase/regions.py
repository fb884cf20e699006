"""Region analysis for closed curves of the tilt vector on the sphere.

A simple closed curve splits the sphere into two faces. We call the face
lying to the left of the traversal (direction g x T) the left region. This
module decides simplicity, locates the two poles (0,0,+-1) relative to the
left region, and measures the region areas as the signed solid angle of the
sampled polygon, which reads no frame, curvature or junction angle. The
boundary data that Gauss-Bonnet needs (the geodesic curvature integral and
the junction angles) are exposed for the curvature route.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .errors import (CurveNotClosed, CurveNotSimple, DegenerateArc,
                     PoleOnCurve, WindingInconsistent)
from .motion import TWO_PI
from .sphere import CUSP_ANGLE_TOL, RegularizedCurve, frame_vectors

SIMPLE_TOL = 1e-9
_RUN = 8                # chords per run box in is_simple's far-pair search

NORTH = np.array([0.0, 0.0, 1.0])
SOUTH = np.array([0.0, 0.0, -1.0])

# fixed perturbation directions for degenerate crossing retries
_RETRY_DIRS = np.array([
    [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0],
    [1, 1, 0], [-1, 1, 0], [1, 0, 1], [0, 1, 1],
], dtype=float)
_RETRY_DIRS /= np.linalg.norm(_RETRY_DIRS, axis=1, keepdims=True)


@dataclass(frozen=True)
class RegionReport:
    I_plus: int
    I_minus: int
    A_plus: float
    A_minus: float
    seed_point: np.ndarray


# ---------------------------------------------------------------------------
# segment geometry helpers


def _curve_segments(curve: RegularizedCurve):
    """Chord segments (P, Q) per smooth arc, with sequential position ids."""
    starts, ends = [], []
    for i0, i1 in curve.arcs:
        if i1 - i0 >= 2:
            starts.append(curve.g[i0:i1 - 1])
            ends.append(curve.g[i0 + 1:i1])
    if not starts:
        return np.empty((0, 3)), np.empty((0, 3))
    return np.vstack(starts), np.vstack(ends)


def _segment_pair_distance(p1, q1, p2, q2):
    """Minimum distance between 3D segment batches [p1,q1] and [p2,q2]."""
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    b = np.einsum("ij,ij->i", d1, d2)
    c = np.einsum("ij,ij->i", d1, r)
    f = np.einsum("ij,ij->i", d2, r)
    denom = a * e - b * b
    s = np.where(denom > 1e-30, np.clip((b * f - c * e) / np.where(denom > 1e-30, denom, 1.0), 0.0, 1.0), 0.0)
    t = (b * s + f) / np.where(e > 1e-30, e, 1.0)
    t = np.clip(t, 0.0, 1.0)
    s = np.clip((b * t - c) / np.where(a > 1e-30, a, 1.0), 0.0, 1.0)
    diff = (p1 + s[:, None] * d1) - (p2 + t[:, None] * d2)
    return np.linalg.norm(diff, axis=1)


def _overlap(lo, hi, a, b):
    """Whether boxes a and b overlap, for component-major bounds lo, hi of
    shape (3, n); a and b are index arrays or slices of equal length."""
    return np.logical_and.reduce([(lo_k[a] <= hi_k[b]) & (lo_k[b] <= hi_k[a])
                                  for lo_k, hi_k in zip(lo, hi)])


def _box_pairs(lo, hi):
    """Index pairs i < j of overlapping axis-aligned boxes [lo, hi], each once.

    Uniform-grid hashing (Shamos & Hoey, FOCS 1976): the cell side is at
    least the largest box extent, so a box touches at most two cells per
    axis, and at least the widest occupied range over the number of boxes,
    so no axis has more than n + 2 edges. Cells are counted from the
    occupied minimum and are half-open ranges between consecutive edges, so
    two overlapping boxes both touch the cell holding the low corner of
    their overlap; the pair is taken from that cell only.
    """
    lo, hi = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)
    widest = float(np.max(hi.max(axis=1) - lo.min(axis=1)))
    side = max(float(np.max(hi - lo)), widest / lo.shape[1])
    first, span, dims = [], [], []
    for lo_k, hi_k in zip(lo, hi):
        start = lo_k.min()
        edges = start + side * np.arange(int((hi_k.max() - start) / side) + 2)
        first.append(np.searchsorted(edges, lo_k, side="right") - 1)
        span.append(np.searchsorted(edges, hi_k, side="right") - 1 - first[-1] > 0)
        dims.append(edges.size)
    stride = (1, dims[0], dims[0] * dims[1])
    home = first[0] + stride[1] * first[1] + stride[2] * first[2]
    keys, boxes = [home], [np.arange(home.size)]
    for corner in range(1, 8):
        axes = [k for k in range(3) if corner >> k & 1]
        touched = np.flatnonzero(np.logical_and.reduce([span[k] for k in axes]))
        keys.append(home[touched] + sum(stride[k] for k in axes))
        boxes.append(touched)
    keys, boxes = np.concatenate(keys), np.concatenate(boxes)
    # boxes in one cell are adjacent after the sort, in no set order
    order = np.argsort(keys, kind="stable")
    keys, boxes = keys[order], boxes[order]
    # pair every entry with each later entry of its run of equal keys
    run_start = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    run_end = np.repeat(np.r_[run_start[1:], keys.size], np.diff(np.r_[run_start, keys.size]))
    later = run_end - np.arange(keys.size) - 1
    left = np.repeat(np.arange(keys.size), later)
    right = left + 1 + np.arange(left.size) - np.repeat(np.cumsum(later) - later, later)
    i, j = boxes[left], boxes[right]
    i, j = np.minimum(i, j), np.maximum(i, j)
    low_corner = sum(s * np.maximum(f[i], f[j]) for s, f in zip(stride, first))
    keep = keys[left] == low_corner
    i, j = i[keep], j[keep]
    keep = _overlap(lo, hi, i, j)
    return i[keep], j[keep]


def is_simple(curve: RegularizedCurve, tol: float = SIMPLE_TOL) -> bool:
    """True when the sampled curve never touches itself within tol.

    Non-adjacent chord pairs closer than tol count as a self-intersection;
    chords sharing an endpoint (consecutive along the curve, including the
    closure pair of a closed curve) are exempt. Candidate pairs are the
    chords whose tol-expanded bounding boxes overlap; only those get the
    exact segment distance. Near pairs, index offsets 2 to 2R - 1 with
    R = _RUN, are compared offset by offset as whole arrays. Far pairs come
    from runs of R consecutive chords: the run boxes go through a uniform
    grid (see _box_pairs), and each overlapping run pair at least two runs
    apart is expanded into its chord pairs. Two overlapping chord boxes lie
    in overlapping run boxes, and chords 2R or more apart lie in runs at
    least two apart, so no overlapping pair is missed. The answer is cached
    on the curve per tol.
    """
    key = ("simple", tol)
    if key in curve._cache:
        return curve._cache[key]
    P, Q = _curve_segments(curve)
    m = P.shape[0]
    simple = True
    if m >= 3:
        # component-major (3, m): each comparison runs over contiguous rows
        lo = np.ascontiguousarray(np.minimum(P, Q).T) - tol
        hi = np.ascontiguousarray(np.maximum(P, Q).T) + tol
        i, j = [], []
        for d in range(2, min(2 * _RUN, m)):
            near = np.flatnonzero(_overlap(lo, hi, slice(None, -d), slice(d, None)))
            i.append(near)
            j.append(near + d)
        starts = np.arange(0, m, _RUN)
        if starts.size >= 3:
            a, b = _box_pairs(np.minimum.reduceat(lo, starts, axis=1).T,
                              np.maximum.reduceat(hi, starts, axis=1).T)
            keep = b - a >= 2
            a, b = a[keep], b[keep]
            u, v = np.divmod(np.arange(_RUN * _RUN), _RUN)
            fi = (_RUN * a[:, None] + u).ravel()
            fj = (_RUN * b[:, None] + v).ravel()
            keep = fj < m
            fi, fj = fi[keep], fj[keep]
            keep = (fj - fi >= 2 * _RUN) & _overlap(lo, hi, fi, fj)
            i.append(fi[keep])
            j.append(fj[keep])
        i, j = np.concatenate(i), np.concatenate(j)
        if curve.closed:
            keep = j - i != m - 1
            i, j = i[keep], j[keep]
        if i.size:
            d = _segment_pair_distance(P[i], Q[i], P[j], Q[j])
            simple = bool(np.all(d >= tol))
    curve._cache[key] = simple
    return simple


# ---------------------------------------------------------------------------
# pole classification by crossing parity


def _left_seed(curve: RegularizedCurve):
    """A point certified to lie in the left region, just off a mid-arc sample."""
    g = curve.g
    boundary = curve._cusp_sample_indices()
    n = len(curve)
    idx = np.array([k for k in np.linspace(0, n - 1, min(n, 64)).astype(int)
                    if int(k) not in boundary], dtype=int)
    # prefer samples far from the poles: more room for the sideways step
    order = np.argsort(-np.abs(np.sin(curve.beta_eps[idx])), kind="stable")
    idx = idx[order]
    # left normals g x T at the candidates only, T = cos(phi) e1 + sin(phi) e2
    e1, e2, _ = frame_vectors(curve.theta[idx], curve.beta_eps[idx])
    phi = curve.phi[idx][:, None]
    nu = np.cross(g[idx], np.cos(phi) * e1 + np.sin(phi) * e2)
    for delta in (1e-3, 3e-4, 1e-4):
        for k, nu_k in zip(idx, nu):
            seed = g[k] + delta * nu_k
            seed /= np.linalg.norm(seed)
            dist = np.linalg.norm(g - seed, axis=1)
            near = int(np.argmin(dist))
            if dist[near] >= 0.6 * delta and abs(curve.s[near] - curve.s[k]) <= 4.0 * delta:
                return seed
    raise DegenerateArc("could not certify a left-side seed point")


def _arc_crossings(curve: RegularizedCurve, a, b):
    """Transversal crossings of the short great arc a->b with the curve.

    Returns the crossing count, or None when the configuration is too close
    to degenerate (grazing or near-endpoint hits) and a retry is needed.
    """
    n = np.cross(a, b)
    nn = np.linalg.norm(n)
    if nn < 1e-9:
        return None
    n = n / nn
    s = curve.g @ n
    if np.min(np.abs(s)) < 1e-10:
        return None
    # one pass over the whole curve; a junction sample is stored twice, as
    # the end of one arc and the start of the next, so the pair across a
    # junction is no chord of the curve
    flip = s[:-1] * s[1:] < 0.0
    flip[[i0 - 1 for i0, _ in curve.arcs[1:]]] = False
    flips = np.nonzero(flip)[0]
    p = curve.g[flips]
    q = curve.g[flips + 1]
    w = (s[flips] / (s[flips] - s[flips + 1]))[:, None]
    c = p + (q - p) * w
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    u = np.cross(a, c) @ n
    v = np.cross(c, b) @ n
    if np.any(np.minimum(np.abs(u), np.abs(v)) < 1e-12):
        return None
    return int(np.count_nonzero((u > 0.0) & (v > 0.0)))


def _pole_in_left_region(curve: RegularizedCurve, seed_point, pole) -> bool:
    targets = [pole] + [pole + 1e-3 * d for d in _RETRY_DIRS]
    for raw in targets:
        target = raw / np.linalg.norm(raw)
        crossings = _arc_crossings(curve, seed_point, target)
        if crossings is not None:
            return crossings % 2 == 0
    raise DegenerateArc("pole classification stayed degenerate after retries")


def classify_poles(curve: RegularizedCurve):
    """(I_plus, I_minus, seed_point): pole counts in the left/right regions.

    I_plus counts how many of the two poles lie in the left region S+,
    I_minus in the right region; they always sum to 2. The azimuthal winding
    number of theta must be consistent with the classification (|winding| = 1
    exactly when the poles are separated), else WindingInconsistent.
    """
    key = "pole_classification"
    if key in curve._cache:
        return curve._cache[key]
    if not curve.closed:
        raise CurveNotClosed("pole classification needs a closed curve")
    if not is_simple(curve):
        raise CurveNotSimple("pole classification needs a simple curve")
    x, y, z = curve.g.T
    r2 = x * x + y * y
    for pole_z in (1.0, -1.0):
        clearance = float(np.sqrt(np.min(r2 + (z - pole_z) ** 2)))
        if clearance < SIMPLE_TOL:
            raise PoleOnCurve(f"curve passes within {clearance:.2e} of a pole")
    seed = _left_seed(curve)
    north_in = _pole_in_left_region(curve, seed, NORTH)
    south_in = _pole_in_left_region(curve, seed, SOUTH)
    winding = int(round((curve.theta[-1] - curve.theta[0]) / TWO_PI))
    separated = north_in != south_in
    if separated != (abs(winding) == 1):
        raise WindingInconsistent(
            f"pole split {north_in}/{south_in} vs azimuthal winding {winding}")
    result = (int(north_in) + int(south_in),
              2 - int(north_in) - int(south_in), seed)
    curve._cache[key] = result
    curve._cache["pole_sides"] = (north_in, south_in)
    return result


def _pole_sides(curve: RegularizedCurve):
    """(north in left, south in left), as classify_poles found them."""
    classify_poles(curve)
    return curve._cache["pole_sides"]


# ---------------------------------------------------------------------------
# areas


def curvature_integral(curve: RegularizedCurve) -> float:
    """Integral of kappa_g ds over all smooth arcs (trapezoid in s)."""
    total = 0.0
    for i0, i1 in curve.arcs:
        if i1 - i0 >= 2:
            total += float(np.trapezoid(curve.kappa_g[i0:i1], curve.s[i0:i1]))
    return total


def turning_angle_sum(curve: RegularizedCurve) -> float:
    """Sum of signed tangent jumps at all junctions above the cusp threshold."""
    return float(sum(j.alpha for j in curve.junctions
                     if abs(j.alpha) > CUSP_ANGLE_TOL))


def region_areas(curve: RegularizedCurve):
    """(A_plus, A_minus) in steradians for the left and right regions.

    The closed chord polygon through the samples g (closed by the chord
    g[-1] -> g[0]) is fanned from each pole by the Van Oosterom-Strackee
    triangle formula (IEEE TBME 30:125, 1983): for the chord p -> q, with
    num = p_x q_y - p_y q_x and d = 1 + p.q, the north fan adds
    2 atan2(num, d + p_z + q_z) and the south fan -2 atan2(num, d - p_z -
    q_z). The north fan falls short of the area by 4 pi when the south
    pole lies in the left region, and the south fan when the north pole
    does, so A+ = fan_N + 4 pi [south in left] = fan_S + 4 pi [north in
    left], with the sides from classify_poles (which needs a closed,
    simple curve); the clamp keeps both apexes at least eps from the
    curve. Two fans that disagree beyond 1e-9 mean a wrong pole side and
    raise WindingInconsistent. A+ is cached on the curve.
    """
    key = "solid_angle_area"
    if key not in curve._cache:
        north_in, south_in = _pole_sides(curve)
        p = curve.g.T.copy()          # rows x, y, z
        q = np.roll(p, -1, axis=1)    # chord k runs from p[:, k] to q[:, k]
        num = p[0] * q[1] - p[1] * q[0]
        d = 1.0 + p[0] * q[0] + p[1] * q[1] + p[2] * q[2]
        z = p[2] + q[2]
        from_north = 2.0 * float(np.sum(np.arctan2(num, d + z))) + 4.0 * pi * south_in
        from_south = -2.0 * float(np.sum(np.arctan2(num, d - z))) + 4.0 * pi * north_in
        spread = abs(from_north - from_south)
        if not spread <= 1e-9:
            raise WindingInconsistent(
                f"solid-angle fans from the two poles disagree by {spread:.3e} "
                f"(tolerance 1.0e-09)", value=spread, tol=1e-9)
        curve._cache[key] = from_north
    a_plus = curve._cache[key]
    return a_plus, 4.0 * pi - a_plus
