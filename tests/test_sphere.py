"""Tilt-vector geometry: frames, clamping, curvature, cusps, offsets."""

import math

import numpy as np
import pytest

from geophase import (DEFAULT_EPSILON, AffineSegment, ConstantSegment,
                      MotionPath, Radii, SampledSegment, ScalarPath,
                      curvature_integral, detect_cusps, frame_vectors,
                      gauss_vector, offset_length, offset_length_derivative,
                      regularize)
from geophase import sphere
from geophase.errors import CurveHasCusps, EpsilonOutOfRange
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
    e1, e2, e3 = frame_vectors(th, be)
    for v in (e1, e2, e3):
        np.testing.assert_allclose(np.einsum("ij,ij->i", v, v), 1.0,
                                   atol=1e-12)
    for u, v in ((e1, e2), (e1, e3), (e2, e3)):
        assert np.max(np.abs(np.einsum("ij,ij->i", u, v))) < 1e-12
    # right-handed: e1 x e2 = e3 and cyclic
    assert np.max(np.linalg.norm(np.cross(e1, e2) - e3, axis=1)) < 1e-12
    assert np.max(np.linalg.norm(np.cross(e2, e3) - e1, axis=1)) < 1e-12
    assert np.max(np.linalg.norm(np.cross(e3, e1) - e2, axis=1)) < 1e-12
    assert np.max(np.linalg.norm(gauss_vector(th, be) - e3, axis=1)) < 1e-12


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
    be = clamped.beta.values(ts)
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
    # adjacent samples subtend well under 1e-2 rad everywhere
    assert float(chord.max()) < 1e-2


def test_geodesic_curvature_on_latitudes_and_meridians():
    curve = regularize(gallery("iv"))   # latitude beta0 = pi/3, theta rising
    mid = len(curve.t) // 2
    assert curve.kappa_g[mid] == pytest.approx(
        -1.0 / math.tan(PI / 3.0), rel=1e-6)

    # pure meridian sweep: a great-circle arc, kappa_g = 0
    theta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 0.0)])
    beta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.5, 2.0)])
    arc = regularize(MotionPath(theta, beta, Radii(1.0, 1.0)))
    assert abs(arc.kappa_g[len(arc.t) // 2]) < 1e-9


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
    for path in (gallery("v"), gallery("vi"), sampled_cusp_path()):
        curve = regularize(path, eps)
        assert len(curve.junctions) >= 4
        for j in curve.junctions:
            assert curve.t[j.in_index] == j.t
            np.testing.assert_allclose(curve.g[j.in_index],
                                       curve.g[j.out_index],
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
    with pytest.raises(ValueError, match=r"piece \[0.0, 1.0\] needs .* samples"):
        regularize(path)


def _arc_geometry_reference(t_arr, theta_arr, beta_arr, u_arr, v_arr, periodic):
    """Arc length, phi and kappa_g of one smooth arc on (n, 3) arrays, as
    regularize computed them arc by arc before its pass on component rows."""
    ct, st = np.cos(theta_arr), np.sin(theta_arr)
    cb, sb = np.cos(beta_arr), np.sin(beta_arr)
    g = np.stack([sb * ct, sb * st, -cb], axis=-1)
    g /= np.linalg.norm(g, axis=1, keepdims=True)

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
        kappa[0] = float(gpp[0] @ nu[0])
        kappa[-1] = float(gpp[-1] @ nu[-1])
    else:
        kappa[:] = 0.0
    return g, s, phi, kappa


def regularize_reference(path, eps):
    """The sampled curve built arc by arc and concatenated: a dict of the
    RegularizedCurve fields that the whole-curve pass must reproduce."""
    moving = [p for p in sphere.clamped_affine_pieces(path, eps) if p.moving]
    alphas = [sphere._junction_angle(a, b) for a, b in zip(moving, moving[1:])]
    g_first = gauss_vector(moving[0].th0, moving[0].b0)
    g_last = gauss_vector(*moving[-1].at(moving[-1].t1))
    closed = bool(np.linalg.norm(g_last - g_first) <= sphere.GEOM_CLOSE_TOL)
    wrap_alpha = sphere._junction_angle(moving[-1], moving[0]) if closed else None
    groups = [[moving[0]]]
    for piece, alpha in zip(moving[1:], alphas):
        if abs(alpha) > sphere.CUSP_ANGLE_TOL:
            groups.append([piece])
        else:
            groups[-1].append(piece)
    periodic = closed and len(groups) == 1 and abs(wrap_alpha) <= sphere.CUSP_ANGLE_TOL

    columns, arcs, first_index, last_index = [], [], [], []
    s_off, n_total = 0.0, 0
    for group in groups:
        parts = []
        i0 = n_total
        for k, piece in enumerate(group):
            tp = sphere._piece_samples(piece)
            if k > 0:
                tp = tp[1:]
            first_index.append(n_total - 1 if k > 0 else n_total)
            n_total += tp.size
            last_index.append(n_total - 1)
            th, b = piece.at(tp)
            parts.append((tp, th, b, np.sin(b) * piece.dth, np.full_like(tp, piece.db)))
        t, th, b, u, v = (np.concatenate(c) for c in zip(*parts))
        g, s, phi, kappa = _arc_geometry_reference(t, th, b, u, v, periodic)
        arcs.append((i0, n_total))
        columns.append((t, th, b, g, s + s_off, phi, kappa))
        s_off += float(s[-1])
    junctions = [sphere.Junction(t=float(p.t1), alpha=alpha, in_index=last_index[k],
                                 out_index=first_index[k + 1])
                 for k, (p, alpha) in enumerate(zip(moving, alphas))]
    if closed:
        junctions.append(sphere.Junction(t=float(moving[-1].t1), alpha=float(wrap_alpha),
                                         in_index=last_index[-1], out_index=0))
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


def test_regularize_matches_the_per_arc_reference():
    # the arithmetic is unchanged except the order of the three-term dot
    # product in kappa_g
    for path in reference_motions():
        for eps in (DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0):
            curve = regularize(path, eps)
            ref = regularize_reference(path, eps)
            for name in ("t", "theta", "beta_eps", "g", "s", "phi"):
                np.testing.assert_array_equal(getattr(curve, name), ref[name],
                                              err_msg=name)
            np.testing.assert_allclose(curve.kappa_g, ref["kappa_g"],
                                       rtol=0.0, atol=1e-15)
            assert curve.arcs == ref["arcs"]
            assert curve.junctions == ref["junctions"]
            assert curve.closed == ref["closed"]
            assert curve.total_length == ref["total_length"]
            assert curve.g.shape == (len(curve), 3)
            assert curve.g.T.flags.c_contiguous


def _sample_times(piece, curvature_step):
    """Sample times of one piece, an even number of equal steps, each at
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
    half = max(2, int(np.ceil(0.5 * extent / step)),
               (sphere._MIN_PIECE_SAMPLES + 1) // 2)
    return np.linspace(piece.t0, piece.t1, 2 * half + 1)


def test_only_meridian_pieces_leave_the_curvature_step():
    meridians = 0
    for path in reference_motions():
        for eps in (DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0):
            for piece in sphere.clamped_affine_pieces(path, eps):
                if piece.moving:
                    meridians += piece.dth == 0.0
                    np.testing.assert_array_equal(
                        sphere._piece_samples(piece),
                        _sample_times(piece, curvature_step=piece.dth != 0.0))
    assert meridians == 16   # two on v and two on vi, both radii, both eps
    assert len(regularize(gallery("v"))) == 5762
    assert len(regularize(gallery("vi"))) == 8630


def test_kappa_g_matches_the_closed_form_of_each_piece():
    # on an affine piece kappa_g = -theta' cos(b) (2 b'^2 + theta'^2 sin^2 b)
    # / (b'^2 + theta'^2 sin^2 b)^(3/2); its finite-difference estimate at
    # the interior samples of a piece is held within 2e-7 relative, and on
    # meridians (great circles) it is zero to rounding
    for path in reference_motions():
        for eps in (DEFAULT_EPSILON, DEFAULT_EPSILON / 2.0):
            curve = regularize(path, eps)
            for piece in curve.pieces:
                if not piece.moving:
                    continue
                inside = (curve.t > piece.t0) & (curve.t < piece.t1)
                kappa = curve.kappa_g[inside]
                assert kappa.size >= sphere._MIN_PIECE_SAMPLES - 1
                if piece.dth == 0.0:
                    assert float(np.max(np.abs(kappa))) <= 1e-20
                    continue
                b = curve.beta_eps[inside]
                turn = (piece.dth * np.sin(b)) ** 2
                exact = (-piece.dth * np.cos(b) * (2.0 * piece.db ** 2 + turn)
                         / (piece.db ** 2 + turn) ** 1.5)
                assert np.all(np.abs(kappa - exact)
                              <= 2e-7 * np.maximum(1.0, np.abs(exact)))


@pytest.mark.parametrize("eps", [1e-20, 1e-100, DEFAULT_EPSILON])
def test_clamped_pieces_end_inside_the_clamp_range(eps):
    # the raw tilt of v and vi crosses a tiny eps within 1e-14 of a piece
    # end, where no cut is made; both end tilts still lie in [eps, pi - eps]
    for radii in (TABLE_RADII, COIN_RADII):
        for name in ("i", "ii", "iii", "iv", "v", "vi"):
            for piece in sphere.clamped_affine_pieces(gallery(name, radii), eps):
                for beta in piece.at([piece.t0, piece.t1])[1]:
                    assert eps <= beta <= PI - eps, (name, piece)


def test_epsilon_below_the_floor_is_refused():
    regularize(gallery("i"), eps=sphere.MIN_EPSILON)
    for eps in (1e-101, 1e-200, 5e-324):
        with pytest.raises(EpsilonOutOfRange):
            regularize(gallery("i"), eps=eps)
