"""Region analysis for closed curves of the tilt vector on the sphere.

A simple closed curve splits the sphere into two faces. We call the face
lying to the left of the traversal (direction g x T) the left region. This
module decides simplicity and measures the signed solid angle of the
sampled polygon from each pole, which reads no frame, curvature or junction
angle; the sign of each fan places the opposite pole (0,0,+-1) relative to
the left region, and the fans give the region areas. The boundary data that
Gauss-Bonnet needs (the geodesic curvature integral and the junction
angles) are exposed for the curvature route.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .errors import (CurveNotClosed, CurveNotSimple, PoleOnCurve,
                     WindingInconsistent)
from .motion import TWO_PI
from .sphere import CUSP_ANGLE_TOL, RegularizedCurve

SIMPLE_TOL = 1e-9
_RUN = 8                # chords per run box in is_simple's far-pair search


@dataclass(frozen=True)
class RegionReport:
    I_plus: int
    I_minus: int
    A_plus: float
    A_minus: float


# ---------------------------------------------------------------------------
# segment geometry helpers


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
    out = lo[0][a] <= hi[0][b]
    out &= lo[0][b] <= hi[0][a]
    for lo_k, hi_k in zip(lo[1:], hi[1:]):
        out &= lo_k[a] <= hi_k[b]
        out &= lo_k[b] <= hi_k[a]
    return out


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


def _chords_apart(curve: RegularizedCurve, m: int, i, j, tol: float) -> bool:
    """Whether every chord pair (i, j), i < j, of the m chords lies at least
    tol apart; the closure pair of a closed curve is exempt."""
    if curve.closed:
        keep = j - i != m - 1
        i, j = i[keep], j[keep]
    if not i.size:
        return True
    # chord c of arc k starts at sample c + k
    first = np.array([i0 for i0, _ in curve.arcs]) - np.arange(len(curve.arcs))
    i = i + np.searchsorted(first, i, side="right") - 1
    j = j + np.searchsorted(first, j, side="right") - 1
    g = curve.g
    d = _segment_pair_distance(g[i], g[i + 1], g[j], g[j + 1])
    return bool(np.all(d >= tol))


def is_simple(curve: RegularizedCurve, tol: float = SIMPLE_TOL) -> bool:
    """True when the sampled curve never touches itself within tol.

    Non-adjacent chord pairs closer than tol count as a self-intersection;
    chords sharing an endpoint (consecutive along the curve, including the
    closure pair of a closed curve) are exempt. Candidate pairs are the
    chords whose tol-expanded bounding boxes overlap; only those get the
    exact segment distance. Near pairs, index offsets 2 to 2R - 1 with
    R = _RUN, are compared offset by offset as whole arrays, and measured
    before any far pair is formed: a touch among them settles the answer.
    Far pairs come from runs of R consecutive chords: the run boxes go
    through a uniform grid (see _box_pairs), and each overlapping run pair
    at least two runs apart is expanded into its chord pairs. Two
    overlapping chord boxes lie in overlapping run boxes, and chords 2R or
    more apart lie in runs at least two apart, so no overlapping pair is
    missed. The answer is cached on the curve per tol.
    """
    key = ("simple", tol)
    if key in curve._cache:
        return curve._cache[key]
    # chords run between consecutive samples of one arc, numbered along the
    # arcs; the step from one arc's last sample to the next arc's first is
    # no chord
    w = curve.g.T                 # rows x, y, z
    lo = np.minimum(w[:, :-1], w[:, 1:])
    hi = np.maximum(w[:, :-1], w[:, 1:])
    if len(curve.arcs) > 1:
        chord = np.ones(lo.shape[1], dtype=bool)
        chord[[i1 - 1 for _, i1 in curve.arcs[:-1]]] = False
        lo, hi = lo.compress(chord, axis=1), hi.compress(chord, axis=1)
    lo -= tol
    hi += tol
    m = lo.shape[1]
    simple = True
    if m >= 3:
        i, j = [], []
        for d in range(2, min(2 * _RUN, m)):
            near = np.flatnonzero(_overlap(lo, hi, slice(None, -d), slice(d, None)))
            i.append(near)
            j.append(near + d)
        # near pairs first: a stretch of curve shorter than tol puts all its
        # chords in each other's boxes, and its far pairs grow as its square
        simple = _chords_apart(curve, m, np.concatenate(i), np.concatenate(j), tol)
        if simple and m > 2 * _RUN:     # three runs or more
            # run boxes, from _RUN strided passes (ufunc.reduceat is
            # several times slower on runs this short)
            run_lo, run_hi = lo[:, ::_RUN].copy(), hi[:, ::_RUN].copy()
            for r in range(1, _RUN):
                k = lo[:, r::_RUN].shape[1]
                np.minimum(run_lo[:, :k], lo[:, r::_RUN], out=run_lo[:, :k])
                np.maximum(run_hi[:, :k], hi[:, r::_RUN], out=run_hi[:, :k])
            a, b = _box_pairs(run_lo.T, run_hi.T)
            keep = b - a >= 2
            a, b = a[keep], b[keep]
            u, v = np.divmod(np.arange(_RUN * _RUN), _RUN)
            fi = (_RUN * a[:, None] + u).ravel()
            fj = (_RUN * b[:, None] + v).ravel()
            keep = fj < m
            fi, fj = fi[keep], fj[keep]
            keep = (fj - fi >= 2 * _RUN) & _overlap(lo, hi, fi, fj)
            simple = _chords_apart(curve, m, fi[keep], fj[keep], tol)
    curve._cache[key] = simple
    return simple


# ---------------------------------------------------------------------------
# pole sides and areas from the solid-angle fans


def classify_poles(curve: RegularizedCurve):
    """(I_plus, I_minus): pole counts in the left/right regions.

    I_plus counts how many of the two poles lie in the left region S+,
    I_minus in the right region; they always sum to 2. The closed chord
    polygon through the samples g (closed by the chord g[-1] -> g[0]) is
    fanned from each pole by the Van Oosterom-Strackee triangle formula
    (IEEE TBME 30:125, 1983): for the chord p -> q, with num = p_x q_y -
    p_y q_x and d = 1 + p.q, the north fan is the sum of 2 atan2(num, d +
    p_z + q_z) and the south fan the sum of -2 atan2(num, d - p_z - q_z).
    With A+ in (0, 4 pi), A+ = fan_N + 4 pi [south in left] = fan_S + 4 pi
    [north in left], so a negative north fan puts the south pole in the
    left region and a negative south fan the north pole. The curve must be
    closed, simple and clear of both poles; the clamp keeps both apexes at
    least eps from it. Two fans whose areas disagree beyond 1e-9 (a
    non-simple polygon that passed is_simple) raise WindingInconsistent
    with the spread, and so does a pole split that contradicts the
    azimuthal winding of theta (|winding| = 1 exactly when the poles are
    separated), with no number. The sides and A+ are cached on the curve.
    """
    key = "pole_classification"
    if key in curve._cache:
        return curve._cache[key]
    if not curve.closed:
        raise CurveNotClosed("pole classification needs a closed curve")
    if not is_simple(curve):
        raise CurveNotSimple("pole classification needs a simple curve")
    p = curve.g.T                 # rows x, y, z
    r2 = p[0] * p[0] + p[1] * p[1]
    for pole_z in (1.0, -1.0):
        clearance = float(np.sqrt(np.min(r2 + (p[2] - pole_z) ** 2)))
        if clearance < SIMPLE_TOL:
            raise PoleOnCurve(f"curve passes within {clearance:.2e} of a pole")
    q = np.roll(p, -1, axis=1)    # chord k runs from p[:, k] to q[:, k]
    num = p[0] * q[1] - p[1] * q[0]
    d = 1.0 + p[0] * q[0] + p[1] * q[1] + p[2] * q[2]
    z = p[2] + q[2]
    fan_north = 2.0 * float(np.sum(np.arctan2(num, d + z)))
    fan_south = -2.0 * float(np.sum(np.arctan2(num, d - z)))
    south_in, north_in = fan_north < 0.0, fan_south < 0.0
    from_north = fan_north + 4.0 * pi * south_in
    spread = abs(from_north - (fan_south + 4.0 * pi * north_in))
    if not spread <= 1e-9:
        raise WindingInconsistent(
            f"solid-angle fans from the two poles disagree by {spread:.3e} "
            f"(tolerance 1.0e-09)", value=spread, tol=1e-9)
    winding = int(round((curve.theta[-1] - curve.theta[0]) / TWO_PI))
    if (north_in != south_in) != (abs(winding) == 1):
        raise WindingInconsistent(
            f"pole split {north_in}/{south_in} vs azimuthal winding {winding}")
    result = (int(north_in) + int(south_in), 2 - int(north_in) - int(south_in))
    curve._cache[key] = result
    curve._cache["pole_sides"] = (north_in, south_in)
    curve._cache["solid_angle_area"] = from_north
    return result


def _pole_sides(curve: RegularizedCurve):
    """(north in left, south in left), as classify_poles found them."""
    classify_poles(curve)
    return curve._cache["pole_sides"]


def region_areas(curve: RegularizedCurve):
    """(A_plus, A_minus) in steradians for the left and right regions.

    A+ is the signed solid angle of the sampled polygon that classify_poles
    measured from both poles (see there); it needs a closed, simple curve.
    """
    classify_poles(curve)
    a_plus = curve._cache["solid_angle_area"]
    return a_plus, 4.0 * pi - a_plus


# ---------------------------------------------------------------------------
# boundary data for Gauss-Bonnet


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
