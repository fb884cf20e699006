"""Shared fixtures and frozen reference values for the test suite."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from geophase import (DEFAULT_EPSILON, AffineSegment, ConstantSegment,
                      MotionPath, Radii, SampledSegment, ScalarPath,
                      curvature_integral, example_gallery, turning_angle_sum)
from geophase.sphere import clamped_affine_pieces

PI = math.pi

# the standard radius pairs exercised throughout
TABLE_RADII = Radii(2.0, 1.0)
COIN_RADII = Radii(1.0, 1.0)

# gallery name -> extra kwargs needed to build it
GALLERY_KWARGS = {
    "i": {},
    "ii": {},
    "iii": {},
    "iv": {"beta0": PI / 3.0},
    "v": {},
    "vi": {},
}

# name -> (delta_d factor of a/b, A_plus, 2 pi I_plus, delta_g, winding n)
# delta_d is the a/b multiple of the swept angle; the rest are radius-free.
FROZEN = {
    "i":   (2.0 * PI,  4.0 * PI, 2.0 * PI,  2.0 * PI,  1),
    "ii":  (2.0 * PI,  2.0 * PI, 2.0 * PI,  0.0,       1),
    "iii": (2.0 * PI,  0.0,      2.0 * PI, -2.0 * PI,  1),
    "iv":  (2.0 * PI,  3.0 * PI, 2.0 * PI,  PI,        1),
    "v":   (0.0,       0.5 * PI, 0.0,       0.5 * PI,  0),
    "vi":  (-2.0 * PI, 0.5 * PI, 2.0 * PI, -1.5 * PI, -1),
}


def gallery(name, radii=COIN_RADII):
    return example_gallery(name, radii=radii, **GALLERY_KWARGS[name])


def pole_sides(curve):
    """(north in left, south in left) of a closed simple sampled curve, from
    the signs of the solid-angle fans of its chord polygon from each pole,
    summed chord by chord (Van Oosterom & Strackee, IEEE TBME 30:125,
    1983): a negative north fan puts the south pole in the left region, a
    negative south fan the north pole."""
    p = curve.g
    q = np.roll(p, -1, axis=0)
    num = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    dot = np.sum(p * q, axis=1)
    fan_north = 2.0 * np.sum(np.arctan2(num, 1.0 + dot + p[:, 2] + q[:, 2]))
    fan_south = -2.0 * np.sum(np.arctan2(num, 1.0 + dot - p[:, 2] - q[:, 2]))
    return bool(fan_south < 0.0), bool(fan_north < 0.0)


@pytest.fixture(scope="session")
def gallery_paths():
    """All six stock motions with a = b = 1."""
    return {name: gallery(name) for name in GALLERY_KWARGS}


@pytest.fixture(scope="session")
def table_paths():
    """All six stock motions with a = 2, b = 1."""
    return {name: gallery(name, TABLE_RADII) for name in GALLERY_KWARGS}


@st.composite
def closed_motions(draw, dip=False):
    """One azimuthal lap in 3-5 affine pieces with a closed tilt schedule.

    Theta is monotone, so the clamped curve is a graph over the azimuth and
    always simple. Without dip every tilt end lies inside [1.05 eps,
    pi - 1.05 eps] for the default eps, so the clamp cannot bite; with dip
    one end sits 0.05-0.95 eps from a pole, inside the clamp band, so the
    clamped tilt has a corner there (a V-shaped dip).
    """
    eps = DEFAULT_EPSILON
    n = draw(st.integers(3, 5))
    direction = draw(st.sampled_from([1.0, -1.0]))
    fracs = [draw(st.floats(0.5, 2.0)) for _ in range(n)]
    theta = [0.0]
    for f in fracs[:-1]:
        theta.append(theta[-1] + direction * 2.0 * PI * f / sum(fracs))
    theta.append(direction * 2.0 * PI)
    beta = [draw(st.floats(1.05 * eps, PI - 1.05 * eps)) for _ in range(n)]
    if dip:
        from_pole = draw(st.floats(0.05, 0.95)) * eps
        beta[draw(st.integers(0, n - 1))] = (
            from_pole if draw(st.booleans()) else PI - from_pole)
    beta.append(beta[0])
    return affine_lap(theta, beta)


def affine_lap(theta, beta):
    """The motion through the knots (theta[k], beta[k]) at t = k/n, affine
    in both between knots."""
    n = len(theta) - 1
    theta_segs, beta_segs = [], []
    for k in range(n):
        t0, t1 = k / n, (k + 1) / n
        theta_segs.append(AffineSegment(t0, t1, theta[k],
                                        (theta[k + 1] - theta[k]) * n))
        beta_segs.append(AffineSegment(t0, t1, beta[k],
                                       (beta[k + 1] - beta[k]) * n))
    return MotionPath(ScalarPath.from_segments(theta_segs),
                      ScalarPath.from_segments(beta_segs), COIN_RADII)


# one latitude lap at tilt 1 and radii 2,1 in three affine pieces, the thirds
# of [0, 1], as a motion description: each third turns the body at most
# (a/b + 1) 2 pi / 3 = 2 pi rad, so at 159,155 oracle steps per radian it
# gets 4 ceil(2 pi 159,155 / 12) = 333,336 intervals, 1,000,008 in all, just
# past MAX_PIECE_SAMPLES (159,154 steps give 999,996)
THREE_PIECE_LAP = {
    "radii": {"a": 2.0, "b": 1.0},
    "segments": [{"t0": k / 3, "t1": (k + 1) / 3,
                  "theta": {"kind": "affine", "start": 2.0 * PI * k / 3,
                            "slope": 2.0 * PI},
                  "beta": {"kind": "const", "value": 1.0}} for k in range(3)]}


def backtracking_sampled_path():
    """An open motion with a backtracking sampled theta and a sampled tilt,
    whose knots lie both on uniform grids (0.5) and off them (0.123456,
    3/7, 0.61, ...), and do not line up between the two schedules."""
    theta = ScalarPath.from_segments([
        AffineSegment(0.0, 0.3, 0.0, 5.0),
        SampledSegment(0.3, 1.0, np.array([0.3, 3.0 / 7.0, 0.5, 0.61, 0.83, 1.0]),
                       np.array([1.5, 0.7, 2.0, 1.1, 3.3, 2.4]))])
    beta = ScalarPath.from_segments([
        SampledSegment(0.0, 0.77, np.array([0.0, 0.123456, 0.5, 0.77]),
                       np.array([0.4, 2.9, 1.2, 2.2])),
        AffineSegment(0.77, 1.0, 2.2, -4.0)])
    return MotionPath(theta, beta, COIN_RADII)


def schedule_at(schedule, ts):
    """(values, slopes) of a ScalarPath at the times ts, an array of any
    shape: ScalarPath._at over whole arrays (the piece that starts at or
    before t, the last piece at t = 1)."""
    ts = np.asarray(ts, dtype=float)
    k = np.clip(np.searchsorted(schedule.knots, ts, side="right") - 1,
                0, len(schedule.rates) - 1)
    rates = np.asarray(schedule.rates)[k]
    return (np.asarray(schedule.starts)[k]
            + rates * (ts - np.asarray(schedule.knots)[k])), rates


def clamp_path(path, eps):
    """The motion with its tilt clamped to [eps, pi - eps], rebuilt as a
    MotionPath from its clamped affine pieces."""
    pieces = clamped_affine_pieces(path, eps)

    def seg(t0, t1, v0, dv):
        return ConstantSegment(t0, t1, v0) if dv == 0.0 else AffineSegment(t0, t1, v0, dv)

    theta = ScalarPath.from_segments([seg(p.t0, p.t1, p.th0, p.dth) for p in pieces])
    beta = ScalarPath.from_segments([seg(p.t0, p.t1, p.b0, p.db) for p in pieces])
    return MotionPath(theta, beta, path.radii)


def gauss_bonnet_area(curve):
    """Left-region area by Gauss-Bonnet on its boundary (Euler
    characteristic 1, K = 1): the reference for the solid-angle area."""
    return 2.0 * PI - curvature_integral(curve) - turning_angle_sum(curve)


def eps_extrapolate(eps, value_full, value_half):
    """Linear extrapolation to eps = 0 in the variable u = 1 - cos(eps).

    Exact only where the clamped curve runs along the clamp circle: cap
    areas and cap circulation integrals clipped there are affine in u. A
    tilt with a corner inside the clamp band clips a sliver that is not,
    which is why the package carries its routes to the limit by
    phases.eps_limit instead.
    """
    u_full = 1.0 - math.cos(eps)
    u_half = 1.0 - math.cos(eps / 2.0)
    return value_half + (value_half - value_full) * u_half / (u_full - u_half)
