"""Tilt-vector geometry: frames, clamping, curvature, cusps, offsets."""

import math
import re

import numpy as np
import pytest

from geophase import (DEFAULT_EPSILON, AffineSegment, ConstantSegment,
                      MotionPath, Radii, SampledSegment, ScalarPath,
                      curvature_integral, detect_cusps, frame_vectors,
                      gauss_vector, geometric_phase_area,
                      geometric_phase_curvature, geometric_phase_line,
                      offset_length, offset_length_derivative, regularize,
                      topology_report)
from geophase import sphere
from geophase.errors import CurveHasCusps, EpsilonOutOfRange, TooManySamples
from conftest import COIN_RADII, TABLE_RADII, clamp_path, gallery
from test_acceptance import random_closed_motion

PI = math.pi
TWO_PI = 2.0 * PI


def test_gauss_vector_landmarks():
    np.testing.assert_allclose(gauss_vector(0.0, 0.0), [0.0, 0.0, -1.0],
                               atol=1e-15)
    np.testing.assert_allclose(gauss_vector(0.0, PI), [0.0, 0.0, 1.0],
                               atol=1e-15)
    np.testing.assert_allclose(gauss_vector(0.0, PI / 2.0), [1.0, 0.0, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(gauss_vector(PI / 2.0, PI / 2.0),
                               [0.0, 1.0, 0.0], atol=1e-15)


def test_frame_orthonormal_at_many_random_points():
    rng = np.random.default_rng(42)
    n = 1_000_000
    th = rng.uniform(-10.0, 10.0, n)
    be = rng.uniform(0.0, PI, n)
    # 1-d, 2-d, scalar and mixed scalar/array input broadcast to one shape;
    # frame_vectors and gauss_vector are the stacked rows, bit for bit
    for t, b in ((th, be), (th.reshape(1000, 1000), be.reshape(1000, 1000)),
                 (float(th[0]), float(be[0])), (float(th[1]), be[:1000]),
                 (th[:1000], float(be[1]))):
        rows = sphere.frame_rows(t, b)
        shape = np.broadcast_shapes(np.shape(t), np.shape(b))
        assert all(np.shape(r) == shape for v in rows for r in v)
        stacked = [np.stack(v, axis=-1) for v in rows]
        for got, want in zip((*frame_vectors(t, b), gauss_vector(t, b)),
                             (*stacked, stacked[2])):
            assert got.shape == shape + (3,)
            assert got.tobytes() == want.tobytes()
        e1, e2, e3 = (v.reshape(-1, 3) for v in stacked)
        for v in (e1, e2, e3):
            np.testing.assert_allclose(np.einsum("ij,ij->i", v, v), 1.0,
                                       atol=1e-12)
        for u, v in ((e1, e2), (e1, e3), (e2, e3)):
            assert np.max(np.abs(np.einsum("ij,ij->i", u, v))) < 1e-12
        # right-handed: e1 x e2 = e3 and cyclic
        assert np.max(np.linalg.norm(np.cross(e1, e2) - e3, axis=1)) < 1e-12
        assert np.max(np.linalg.norm(np.cross(e2, e3) - e1, axis=1)) < 1e-12
        assert np.max(np.linalg.norm(np.cross(e3, e1) - e2, axis=1)) < 1e-12


def test_metric_matches_finite_differences():
    # |dg|^2 = sin(beta)^2 dtheta^2 + dbeta^2
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(300):
        t0 = rng.uniform(0.0, 2.0 * TWO_PI)
        b0 = rng.uniform(0.2, PI - 0.2)
        dt, db = rng.normal(size=2)
        gdot = (gauss_vector(t0 + h * dt, b0 + h * db)
                - gauss_vector(t0 - h * dt, b0 - h * db)) / (2.0 * h)
        lhs = float(gdot @ gdot)
        rhs = math.sin(b0) ** 2 * dt * dt + db * db
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_epsilon_domain():
    with pytest.raises(EpsilonOutOfRange):
        regularize(gallery("i"), eps=0.0)
    with pytest.raises(EpsilonOutOfRange):
        regularize(gallery("i"), eps=PI / 8.0 + 0.01)


def test_clamp_path_limits_beta():
    eps = DEFAULT_EPSILON
    clamped = clamp_path(gallery("v"), eps)
    ts = np.linspace(0.0, 1.0, 1001)
    be = np.array([clamped.beta._at(t)[0] for t in ts.tolist()])
    assert float(be.min()) >= eps - 1e-12
    assert float(be.max()) <= PI - eps + 1e-12


@pytest.mark.parametrize("name,length", [
    ("i", TWO_PI * math.sin(DEFAULT_EPSILON)),
    ("ii", TWO_PI),
    ("iii", TWO_PI * math.sin(DEFAULT_EPSILON)),
    ("iv", TWO_PI * math.sin(PI / 3.0)),
])
def test_latitude_circle_lengths(name, length):
    curve = regularize(gallery(name))
    assert curve.closed
    assert curve.total_length == pytest.approx(length, abs=1e-9)


def test_sampling_density_cap():
    curve = regularize(gallery("vi"))
    chord = np.linalg.norm(np.diff(curve.g, axis=0), axis=1)
    # adjacent samples subtend at most MAX_SAMPLE_STEP = 1.6e-2 rad
    assert float(chord.max()) <= sphere.MAX_SAMPLE_STEP


def test_geodesic_curvature_on_latitudes_and_meridians():
    curve = regularize(gallery("iv"))   # latitude beta0 = pi/3, theta rising
    mid = len(curve.t) // 2
    assert curve.kappa_g[mid] == pytest.approx(
        -1.0 / math.tan(PI / 3.0), rel=1e-13)

    # pure meridian sweep: a great-circle arc, kappa_g = 0
    theta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 0.0)])
    beta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.5, 2.0)])
    arc = regularize(MotionPath(theta, beta, Radii(1.0, 1.0)))
    assert abs(arc.kappa_g[len(arc.t) // 2]) <= 1e-20


def test_cusp_detection_on_square_wave_motions():
    for name, signs in (("v", [1, 1, 1, 1]), ("vi", [-1, 1, 1, -1])):
        curve = regularize(gallery(name))
        cusps = detect_cusps(curve)
        assert len(cusps) == 4
        for cusp, sign in zip(cusps, signs):
            assert cusp.alpha == pytest.approx(sign * PI / 2.0, abs=1e-9)
    assert detect_cusps(regularize(gallery("ii"))) == ()


def test_backtracking_curve_has_pi_cusps():
    theta = ScalarPath.from_segments([AffineSegment(0.0, 0.5, 0.0, TWO_PI),
                                      AffineSegment(0.5, 1.0, PI, -TWO_PI)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, PI / 2.0)])
    curve = regularize(MotionPath(theta, beta, Radii(1.0, 1.0)))
    cusps = detect_cusps(curve)
    assert len(cusps) == 2
    for cusp in cusps:
        assert cusp.alpha == pytest.approx(PI, abs=1e-9)


def test_turning_identity_per_sample_step():
    # d(phi) = kappa_g ds + cos(beta) d(theta) along every smooth sub-arc
    for name in ("i", "ii", "iii", "iv", "v", "vi"):
        curve = regularize(gallery(name))
        worst = 0.0
        for i0, i1 in curve.arcs:
            dphi = np.diff(curve.phi[i0:i1])
            ds = np.diff(curve.s[i0:i1])
            dth = np.diff(curve.theta[i0:i1])
            kg = curve.kappa_g[i0:i1]
            cb = np.cos(curve.beta_eps[i0:i1])
            mid_k = 0.5 * (kg[:-1] + kg[1:])
            mid_c = 0.5 * (cb[:-1] + cb[1:])
            resid = dphi - mid_k * ds - mid_c * dth
            if resid.size:
                worst = max(worst, float(np.max(np.abs(resid))))
        assert worst < 1e-6, f"{name}: worst step residual {worst:.3e}"


def sampled_cusp_path():
    """Backtracking theta and a tilt that dips into both clamp caps, both
    as sampled segments, so cusps and clamp cuts fall inside them."""
    theta = ScalarPath.from_segments([SampledSegment(
        0.0, 1.0, np.array([0.0, 0.3, 0.6, 1.0]),
        np.array([0.0, 2.0, 1.0, TWO_PI]))])
    beta = ScalarPath.from_segments([SampledSegment(
        0.0, 1.0, np.array([0.0, 0.2, 0.5, 0.8, 1.0]),
        np.array([0.05, 1.4, 0.9, 3.1, 0.05]))])
    return MotionPath(theta, beta, Radii(1.0, 1.0))


@pytest.mark.parametrize("eps", [DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0])
def test_junction_indices_point_at_the_junction(eps):
    # the incoming piece ends at the first sample at the junction's time;
    # at an arc end the outgoing piece starts at the next arc's first
    # sample (the first sample of all for the closure), inside an arc the
    # two pieces share that sample
    for path in (gallery("v"), gallery("vi"), sampled_cusp_path()):
        curve = regularize(path, eps)
        assert len(curve.junctions) >= 4
        arc_ends = [i1 - 1 for _, i1 in curve.arcs]
        for j in curve.junctions:
            at = np.flatnonzero(curve.t == j.t)
            assert at.size, j
            into = int(at[0])
            out = (into + 1) % len(curve) if into in arc_ends else into
            np.testing.assert_allclose(curve.g[into], curve.g[out],
                                       rtol=0.0, atol=1e-12)


def test_regularize_is_idempotent():
    eps = DEFAULT_EPSILON
    path = gallery("vi")
    direct = regularize(path, eps)
    again = regularize(clamp_path(path, eps), eps)
    assert direct.total_length == pytest.approx(again.total_length, abs=1e-12)
    np.testing.assert_allclose(direct.g, again.g, atol=1e-12)


def test_offset_length_matches_latitude_formula():
    curve = regularize(gallery("iv"))   # latitude circle at beta0 = pi/3
    for q in (0.05, 0.01, -0.02):
        expected = TWO_PI * (math.sin(PI / 3.0) - q * math.cos(PI / 3.0))
        assert offset_length(curve, q) == pytest.approx(expected, abs=1e-7)
    assert offset_length(curve, 0.0) == pytest.approx(curve.total_length)


def test_offset_length_on_equator_is_stationary():
    curve = regularize(gallery("ii"))
    assert offset_length(curve, 0.1) == pytest.approx(TWO_PI, abs=1e-6)
    assert offset_length_derivative(curve) == pytest.approx(0.0, abs=1e-8)


def test_offset_derivative_equals_curvature_integral():
    for name in ("i", "ii", "iii", "iv"):
        curve = regularize(gallery(name))
        lhs = offset_length_derivative(curve)
        rhs = curvature_integral(curve)
        assert lhs == pytest.approx(rhs, abs=1e-5 * max(abs(rhs), 1.0))


def test_offset_length_derivative_equals_the_four_call_formula():
    # the shared tangents and d(nu)/ds give the very same four lengths
    curve = regularize(gallery("iv"))
    h = 1e-3
    d_h = (offset_length(curve, +h) - offset_length(curve, -h)) / (2.0 * h)
    d_h2 = (offset_length(curve, +h / 2) - offset_length(curve, -h / 2)) / h
    assert offset_length_derivative(curve, h) == (4.0 * d_h2 - d_h) / 3.0


def test_offset_refuses_cusped_curves():
    curve = regularize(gallery("v"))
    with pytest.raises(CurveHasCusps):
        offset_length(curve, 0.01)
    with pytest.raises(CurveHasCusps):
        offset_length_derivative(curve)


# sweeps that float spacing still resolves (spacing at most 1.5e-11) but
# that need more than MAX_PIECE_SAMPLES samples
@pytest.mark.parametrize("slope", [2e4, 1e5])
def test_absurd_sweeps_are_refused_before_sampling(slope, monkeypatch):
    linspace = np.linspace

    def guarded(start, stop, num, *args, **kwargs):
        assert num <= sphere.MAX_PIECE_SAMPLES + 1, num
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(sphere.np, "linspace", guarded)
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, slope)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)])
    path = MotionPath(theta, beta, Radii(1.0, 1.0))
    with pytest.raises(TooManySamples, match=r"piece \[0.0, 1.0\] needs .* samples") as info:
        regularize(path)
    assert info.value.tol == sphere.MAX_PIECE_SAMPLES
    assert info.value.value > info.value.tol
    # the message prints the count as an integer, visibly past the cap
    printed = re.search(r"needs (\d+) samples", str(info.value))[1]
    assert int(printed) == round(info.value.value) > sphere.MAX_PIECE_SAMPLES


def _arc_geometry_reference(t_arr, theta_arr, beta_arr, u_arr, v_arr):
    """Arc length and phi of one smooth arc on (n, 3) arrays, as regularize
    computed them arc by arc before its pass on component rows."""
    ct, st = np.cos(theta_arr), np.sin(theta_arr)
    cb, sb = np.cos(beta_arr), np.sin(beta_arr)
    g = np.stack([sb * ct, sb * st, -cb], axis=-1)
    g /= np.linalg.norm(g, axis=1, keepdims=True)

    chords = np.linalg.norm(np.diff(g, axis=0), axis=1)
    ds = chords.copy()
    if chords.size >= 4 and chords.size % 4 == 0:
        # Romberg over each run of four chords: every other sample, every
        # fourth sample, then the two Richardson levels
        s_h = chords[0::4] + chords[1::4] + chords[2::4] + chords[3::4]
        s_2h = (np.linalg.norm(g[2::4] - g[:-4:4], axis=1)
                + np.linalg.norm(g[4::4] - g[2:-2:4], axis=1))
        s_4h = np.linalg.norm(g[4::4] - g[:-4:4], axis=1)
        r_h = s_h + (s_h - s_2h) / 3.0
        r_2h = s_2h + (s_2h - s_4h) / 3.0
        romberg = r_h + (r_h - r_2h) / 15.0
        scale = np.where(s_h > 0.0, romberg / np.where(s_h > 0.0, s_h, 1.0), 1.0)
        for k in range(4):
            ds[k::4] = chords[k::4] * scale
    s = np.concatenate([[0.0], np.cumsum(ds)])

    phi = np.unwrap(np.arctan2(v_arr, u_arr))
    return g, s, phi


def closed_form_kappa(piece, beta):
    """Geodesic curvature of an affine piece at tilt beta:
    -theta' cos(b) (2 b'^2 + theta'^2 sin^2 b) / (b'^2 + theta'^2 sin^2 b)^(3/2)."""
    turn = (piece.dth * np.sin(beta)) ** 2
    return (-piece.dth * np.cos(beta) * (2.0 * piece.db ** 2 + turn)
            / (piece.db ** 2 + turn) ** 1.5)


def regularize_reference(path, eps):
    """The sampled curve built arc by arc and concatenated: a dict of the
    RegularizedCurve fields that the whole-curve pass must reproduce, with
    kappa_g in closed form: each piece's own value, the incoming piece's
    at a junction sample shared by two pieces of one arc."""
    moving = [p for p in sphere.clamped_affine_pieces(path, eps) if p.moving]
    alphas = [sphere._junction_angle(a, b, path) for a, b in zip(moving, moving[1:])]
    closed = topology_report(path).closed
    wrap_alpha = sphere._junction_angle(moving[-1], moving[0], path) if closed else None
    groups = [[moving[0]]]
    for piece, alpha in zip(moving[1:], alphas):
        if abs(alpha) > sphere.CUSP_ANGLE_TOL:
            groups.append([piece])
        else:
            groups[-1].append(piece)

    columns, arcs = [], []
    s_off, n_total = 0.0, 0
    for group in groups:
        parts = []
        i0 = n_total
        for k, piece in enumerate(group):
            tp = np.linspace(piece.t0, piece.t1, sphere._piece_steps(piece) + 1)
            if k > 0:
                tp = tp[1:]
            n_total += tp.size
            th, b = piece.at(tp)
            parts.append((tp, th, b, np.sin(b) * piece.dth,
                          np.full_like(tp, piece.db), closed_form_kappa(piece, b)))
        t, th, b, u, v, kappa = (np.concatenate(c) for c in zip(*parts))
        g, s, phi = _arc_geometry_reference(t, th, b, u, v)
        arcs.append((i0, n_total))
        columns.append((t, th, b, g, s + s_off, phi, kappa))
        s_off += float(s[-1])
    junctions = [sphere.Junction(t=float(p.t1), alpha=alpha)
                 for p, alpha in zip(moving, alphas)]
    if closed:
        junctions.append(sphere.Junction(t=float(moving[-1].t1), alpha=float(wrap_alpha)))
    names = ("t", "theta", "beta_eps", "g", "s", "phi", "kappa_g")
    ref = dict(zip(names, (np.concatenate(c) for c in zip(*columns))))
    ref.update(arcs=tuple(arcs), junctions=tuple(junctions), closed=closed,
               total_length=s_off)
    return ref


def phi_wrapping_arc():
    """One smooth open arc with theta falling and the tilt slope turning
    from +1e-12 to -1e-12 at the junction: phi crosses from just below pi to
    just above -pi between the two pieces, so it has to be unwrapped."""
    theta = ScalarPath.from_segments([AffineSegment(0.0, 0.5, 0.0, -1.0),
                                      AffineSegment(0.5, 1.0, -0.5, -1.0)])
    beta = ScalarPath.from_segments([AffineSegment(0.0, 0.5, 1.0, 1e-12),
                                     AffineSegment(0.5, 1.0, 1.0 + 0.5e-12, -1e-12)])
    return MotionPath(theta, beta, Radii(1.0, 1.0))


def reference_motions():
    paths = [gallery(name, radii) for radii in (TABLE_RADII, COIN_RADII)
             for name in ("i", "ii", "iii", "iv", "v", "vi")]
    for seed in (20260823, 20261017):
        rng = np.random.default_rng(seed)
        paths += [random_closed_motion(rng) for _ in range(32)]
    return paths + [phi_wrapping_arc()]


def test_phi_wrapping_arc_is_unwrapped():
    curve = regularize(phi_wrapping_arc())
    assert len(curve.arcs) == 1
    assert abs(curve.junctions[0].alpha) <= sphere.CUSP_ANGLE_TOL
    assert curve.phi[0] == pytest.approx(PI, abs=1e-9)
    assert curve.phi[-1] == pytest.approx(PI, abs=1e-9)
    assert float(np.max(np.abs(np.diff(curve.phi)))) < 1e-9


def test_coarse_grid_keeps_arc_ends_and_refuses_even_arcs():
    arcs = ((0, 9), (9, 14))
    assert sphere._coarse_grid(arcs, 2).tolist() == [0, 2, 4, 6, 8, 9, 11, 13]
    assert sphere._coarse_grid(arcs, 2, ends=False).tolist() == [0, 2, 4, 6, 9, 11]
    assert sphere._coarse_grid(arcs, 4).tolist() == [0, 4, 8, 9, 13]
    assert sphere._coarse_grid(arcs, 4, ends=False).tolist() == [0, 4, 9]
    with pytest.raises(ValueError, match="not a multiple of 2"):
        sphere._coarse_grid(((0, 5), (5, 9)), 2)
    with pytest.raises(ValueError, match="not a multiple of 4"):
        sphere._coarse_grid(((0, 7),), 4)


def test_regularize_matches_the_per_arc_reference():
    # the arithmetic of every field but kappa_g is unchanged; kappa_g, from
    # each piece's exact derivatives, is held at every sample, piece ends
    # and shared junctions included, to the 1e-13 relative bound of
    # test_kappa_g_matches_the_closed_form_of_each_piece. On the closed
    # curves the curvature route lies within 1.8e-15 of line
    for path in reference_motions():
        line = geometric_phase_line(path)
        for eps in (DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0):
            curve = regularize(path, eps)
            ref = regularize_reference(path, eps)
            for name in ("t", "theta", "beta_eps", "g", "s", "phi"):
                np.testing.assert_array_equal(getattr(curve, name), ref[name],
                                              err_msg=name)
            exact = ref["kappa_g"]
            assert np.all(np.abs(curve.kappa_g - exact)
                          <= 1e-13 * np.maximum(1.0, np.abs(exact)))
            if curve.closed:
                assert abs(geometric_phase_curvature(path, eps) - line) <= 2e-11
            assert curve.arcs == ref["arcs"]
            assert curve.junctions == ref["junctions"]
            assert curve.closed == ref["closed"]
            assert curve.total_length == ref["total_length"]
            assert curve.g.shape == (len(curve), 3)
            assert curve.g.T.flags.c_contiguous


def _sample_times(piece, curvature_step):
    """Sample times of one piece, a multiple of 4 equal steps, each at
    most MAX_SAMPLE_STEP and, with curvature_step, at most
    _KAPPA_STEP * sin(beta_min): the rule every piece had before meridian
    pieces kept the plain step."""
    b_lo = min(piece.b0, piece.b0 + piece.db * (piece.t1 - piece.t0))
    b_hi = max(piece.b0, piece.b0 + piece.db * (piece.t1 - piece.t0))
    sin_min = min(np.sin(b_lo), np.sin(b_hi))
    sin_max = 1.0 if b_lo <= PI / 2.0 <= b_hi else max(np.sin(b_lo), np.sin(b_hi))
    extent = float(np.hypot(sin_max * piece.dth, piece.db)) * (piece.t1 - piece.t0)
    step = sphere.MAX_SAMPLE_STEP
    if curvature_step:
        step = min(step, sphere._KAPPA_STEP * float(sin_min))
    quarter = max(1, int(np.ceil(0.25 * extent / step)),
                  sphere._MIN_PIECE_SAMPLES // 4)
    return np.linspace(piece.t0, piece.t1, 4 * quarter + 1)


def test_only_meridian_pieces_leave_the_curvature_step():
    meridians = 0
    for path in reference_motions():
        for eps in (DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0):
            for piece in sphere.clamped_affine_pieces(path, eps):
                if piece.moving:
                    meridians += piece.dth == 0.0
                    assert sphere._piece_steps(piece) + 1 == _sample_times(
                        piece, curvature_step=piece.dth != 0.0).size
    assert meridians == 16   # two on v and two on vi, both radii, both eps
    assert len(regularize(gallery("v"))) == 372
    assert len(regularize(gallery("vi"))) == 552


def piece_of_each_sample(curve, moving):
    """Index into moving of the piece each sample belongs to: each piece
    holds the samples after its start up to its end, so a junction sample
    shared by two pieces of one arc is the incoming piece's, and an arc's
    first sample is the piece's that starts there."""
    piece = np.searchsorted([p.t1 for p in moving], curve.t)
    for i0, _ in curve.arcs:
        piece[i0] = np.searchsorted([p.t0 for p in moving], curve.t[i0])
    return piece


def test_kappa_g_matches_the_closed_form_of_each_piece():
    # on an affine piece kappa_g = -theta' cos(b) (2 b'^2 + theta'^2 sin^2 b)
    # / (b'^2 + theta'^2 sin^2 b)^(3/2); the value from the piece's exact
    # derivatives is held within 1e-13 relative at every sample of the
    # piece, its ends included (it is within 1e-15), on meridians (great
    # circles) it is zero to rounding, and it stays finite when the clamp
    # circle is 1e-100 from a pole
    cases = [(path, eps) for path in reference_motions()
             for eps in (DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0)]
    cases += [(gallery(name, radii), eps) for radii in (TABLE_RADII, COIN_RADII)
              for name in ("i", "iii", "v", "vi") for eps in (1e-6, 1e-20, 1e-100)]
    for path, eps in cases:
        curve = regularize(path, eps)
        assert np.all(np.isfinite(curve.kappa_g))
        moving = [p for p in sphere.clamped_affine_pieces(path, eps) if p.moving]
        owner = piece_of_each_sample(curve, moving)
        for k, piece in enumerate(moving):
            kappa = curve.kappa_g[owner == k]
            assert kappa.size >= sphere._MIN_PIECE_SAMPLES
            if piece.dth == 0.0:
                assert float(np.max(np.abs(kappa))) <= 1e-20
                continue
            exact = closed_form_kappa(piece, curve.beta_eps[owner == k])
            assert np.all(np.abs(kappa - exact)
                          <= 1e-13 * np.maximum(1.0, np.abs(exact)))


def test_kappa_g_is_finite_on_rates_below_the_float_range():
    # one equator lap, then a meridian piece of slope 1e-170, whose rates
    # square to 0: kappa_g and the tangent angle come from the rates
    # divided by the larger of the two
    theta = ScalarPath.from_segments([AffineSegment(0.0, 0.5, 0.0, 4.0 * PI),
                                      ConstantSegment(0.5, 1.0, 2.0 * PI)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 0.5, PI / 2.0),
                                     AffineSegment(0.5, 1.0, PI / 2.0, 1e-170)])
    path = MotionPath(theta, beta, Radii(1.0, 1.0))
    curve = regularize(path)
    assert len(curve.pieces) == 2 and curve.closed
    assert np.all(np.isfinite(curve.kappa_g))
    line = geometric_phase_line(path)
    assert geometric_phase_area(path) == pytest.approx(line, abs=1e-9)
    assert geometric_phase_curvature(path) == pytest.approx(line, abs=1e-9)


@pytest.mark.parametrize("eps", [1e-20, 1e-100, DEFAULT_EPSILON])
def test_clamped_pieces_end_inside_the_clamp_range(eps):
    # the raw tilt of v and vi crosses a tiny eps within 1e-14 of a piece
    # end, where no cut is made; both end tilts still lie in [eps, pi - eps]
    for radii in (TABLE_RADII, COIN_RADII):
        for name in ("i", "ii", "iii", "iv", "v", "vi"):
            for piece in sphere.clamped_affine_pieces(gallery(name, radii), eps):
                for beta in (piece.at(piece.t0)[1], piece.at(piece.t1)[1]):
                    assert eps <= beta <= PI - eps, (name, piece)


def test_epsilon_below_the_floor_is_refused():
    regularize(gallery("i"), eps=sphere.MIN_EPSILON)
    for eps in (1e-101, 1e-200, 5e-324):
        with pytest.raises(EpsilonOutOfRange):
            regularize(gallery("i"), eps=eps)
