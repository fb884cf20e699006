"""Piecewise motion paths (theta(t), beta(t)) on the unit interval.

A motion is two scalar schedules: the revolution angle ``theta`` of the contact
point around the fixed disc and the tilt ``beta`` of the rolling disc, both
functions of a normalized time t in [0, 1]. Segments are constant, affine, or
sampled-with-linear-interpolation; ScalarPath.from_segments lowers each one
to affine pieces on arrival, so the pieces are the only motion format past
construction, and every derived integral is piecewise elementary: downstream
code consumes the exact decomposition returned by
:meth:`MotionPath.affine_pieces`.

Conventions enforced at construction:

* segments tile [0, 1] exactly (no gaps, no overlaps),
* both schedules are continuous,
* theta(0) = 0,
* beta stays inside [0, pi].
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import isfinite, nan, pi
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import (
    BetaOutOfRange,
    DiscontinuousPath,
    GapOrOverlap,
    SweepTooLarge,
    ThetaNonzeroAtStart,
    UnknownExample,
)

TILE_TOL = 1e-12      # segment interval bookkeeping
JUMP_TOL = 1e-9       # continuity across breakpoints
CLOSURE_TOL = 1e-9    # default closure tolerance

TWO_PI = 2.0 * pi


@dataclass(frozen=True)
class Radii:
    """Radii of the fixed disc (a) and the rolling disc (b)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and np.isfinite(self.a)):
            raise ValueError(f"fixed-disc radius must be positive, got {self.a}")
        if not (self.b > 0.0 and np.isfinite(self.b)):
            raise ValueError(f"rolling-disc radius must be positive, got {self.b}")
        if not np.isfinite(float(self.a) / float(self.b)):
            raise ValueError(f"radius ratio a/b overflows the float range "
                             f"for a={self.a}, b={self.b}")


# ---------------------------------------------------------------------------
# segment kinds: input records, lowered to affine pieces by ScalarPath


@dataclass(frozen=True)
class ConstantSegment:
    t0: float
    t1: float
    level: float


@dataclass(frozen=True)
class AffineSegment:
    t0: float
    t1: float
    start: float   # value at t0
    rate: float    # d(value)/dt


@dataclass(frozen=True, eq=False)
class SampledSegment:
    """Linear interpolation through (knots, values); knots span [t0, t1]."""

    t0: float
    t1: float
    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
            raise ValueError("sampled segment needs matching 1-d knot/value arrays, length >= 2")
        if np.any(np.diff(knots) <= 0.0):
            raise ValueError("sampled segment knots must be strictly increasing")
        if abs(knots[0] - self.t0) > TILE_TOL or abs(knots[-1] - self.t1) > TILE_TOL:
            raise ValueError("sampled segment knots must start at t0 and end at t1")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)


Segment = ConstantSegment | AffineSegment | SampledSegment


def _lowered(seg: Segment) -> tuple:
    """seg as affine pieces: lists of start knots, start values, slopes and
    end values. Sampled values become Python floats, so that a slope past
    the float range is inf without a numpy overflow warning."""
    if isinstance(seg, ConstantSegment):
        return [seg.t0], [seg.level], [0.0], [seg.level]
    if isinstance(seg, AffineSegment):
        return [seg.t0], [seg.start], [seg.rate], [seg.start + seg.rate * (seg.t1 - seg.t0)]
    ks, vs = seg.knots.tolist(), seg.values.tolist()
    rates = [(v1 - v0) / (k1 - k0)
             for k0, k1, v0, v1 in zip(ks, ks[1:], vs, vs[1:])]
    return [seg.t0] + ks[1:-1], vs[:-1], rates, vs[1:]


def _check_join(left_end: float, right_start: float, t: float):
    jump = right_start - left_end
    if abs(jump) > JUMP_TOL:
        raise DiscontinuousPath(f"value jumps by {jump:.3e} at t={t!r}")


# ---------------------------------------------------------------------------
# scalar schedule


@dataclass(frozen=True, eq=False)
class ScalarPath:
    """One continuous schedule over [0, 1], held as affine pieces.

    Piece k runs from knots[k] to knots[k + 1] (the last knot is 1.0); it
    starts at starts[k], has slope rates[k] and ends at ends[k]. Build it
    with from_segments, which checks tiling and continuity once.
    """

    knots: tuple
    starts: tuple
    rates: tuple
    ends: tuple

    @classmethod
    def from_segments(cls, segments) -> "ScalarPath":
        segs = sorted(segments, key=lambda s: s.t0)
        if not segs:
            raise GapOrOverlap("schedule has no segments")
        if abs(segs[0].t0) > TILE_TOL or abs(segs[-1].t1 - 1.0) > TILE_TOL:
            raise GapOrOverlap(
                f"segments span [{segs[0].t0}, {segs[-1].t1}], expected [0, 1]")
        knots, starts, rates, ends = [], [], [], []
        for left, right in zip([None] + segs, segs):
            if left is not None and abs(right.t0 - left.t1) > TILE_TOL:
                kind = "overlap" if right.t0 < left.t1 else "gap"
                raise GapOrOverlap(f"{kind} at t={left.t1!r} / t={right.t0!r}")
            k, v0, r, v1 = _lowered(right)
            if left is not None:
                _check_join(ends[-1], v0[0], right.t0)
            knots += k
            starts += v0
            rates += r
            ends += v1
        return cls(tuple(knots) + (1.0,), tuple(starts), tuple(rates), tuple(ends))

    def _at(self, t: float) -> tuple:
        """(value, slope) at time t on the piece that starts at or before t."""
        k = min(max(bisect_right(self.knots, t) - 1, 0), len(self.rates) - 1)
        return self.starts[k] + self.rates[k] * (t - self.knots[k]), self.rates[k]

    # -- vectorized evaluation (right-limit convention, left at t=1) --------

    def _piece_index(self, ts: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self.knots, ts, side="right") - 1,
                       0, len(self.rates) - 1)

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        k = self._piece_index(ts)
        return (np.asarray(self.starts)[k]
                + np.asarray(self.rates)[k] * (ts - np.asarray(self.knots)[k]))

    def slopes(self, ts: np.ndarray) -> np.ndarray:
        return np.asarray(self.rates)[self._piece_index(np.asarray(ts, dtype=float))]

    def start_value(self) -> float:
        return self.starts[0]

    def end_value(self) -> float:
        return self.ends[-1]


# ---------------------------------------------------------------------------
# motion path


class Piece(NamedTuple):
    """One interval where theta and beta are both affine in t."""

    t0: float
    t1: float
    th0: float
    dth: float
    b0: float
    db: float

    @property
    def moving(self) -> bool:
        return self.dth != 0.0 or self.db != 0.0

    def at(self, t):
        """(theta, beta) at time(s) t inside the piece."""
        t = np.asarray(t, dtype=float)
        return self.th0 + self.dth * (t - self.t0), self.b0 + self.db * (t - self.t0)


@dataclass(frozen=True, eq=False)
class MotionPath:
    """Validated pair of schedules plus the disc radii.

    Raises ThetaNonzeroAtStart, BetaOutOfRange, SweepTooLarge when |theta|
    reaches so far anywhere that float spacing there exceeds CLOSURE_TOL (so
    topology_report could not tell a closed lap), or ValueError when a
    piece's slope is not finite (knots a subnormal step apart).
    """

    theta: ScalarPath
    beta: ScalarPath
    radii: Radii

    def __post_init__(self):
        th0 = self.theta.start_value()
        if not abs(th0) <= TILE_TOL:
            raise ThetaNonzeroAtStart(f"theta(0) = {th0!r}, expected 0")
        b = self.beta
        for t0, t1, b0, b1 in zip(b.knots, b.knots[1:], b.starts, b.ends):
            lo, hi = min(b0, b1), max(b0, b1)
            # written so that a NaN end fails the check
            if not all(-TILE_TOL <= v <= pi + TILE_TOL for v in (b0, b1)):
                raise BetaOutOfRange(
                    f"beta reaches [{lo:.6g}, {hi:.6g}] on [{t0:.6g}, {t1:.6g}], "
                    f"allowed range is [0, pi]")
        # the largest |theta| sits at a piece's start or end; NaN propagates
        peak = float(np.max(np.abs(self.theta.starts + self.theta.ends)))
        spacing = float(np.spacing(peak))
        if not spacing <= CLOSURE_TOL:   # NaN for an infinite peak
            raise SweepTooLarge(
                f"theta reaches {peak:.6g} rad; float spacing there is "
                f"{spacing:.3g}, above the closure tolerance {CLOSURE_TOL:g}")
        for name, s in (("theta", self.theta), ("beta", self.beta)):
            for t0, t1, rate in zip(s.knots, s.knots[1:], s.rates):
                if not isfinite(rate):
                    raise ValueError(
                        f"{name} slope is {rate} on [{t0:.6g}, {t1:.6g}]; "
                        f"slopes must be finite")

    @cached_property
    def knots(self) -> tuple:
        """Common refinement: the knots of both schedules."""
        return tuple(sorted(set(self.theta.knots) | set(self.beta.knots)))

    @cached_property
    def affine_pieces(self) -> tuple:
        """Exact decomposition into Pieces (t0, t1, th0, dth, b0, db).

        On each interval between adjacent knots both schedules are affine,
        so the pieces determine the motion exactly. Every route reads the
        motion from here.
        """
        ks = self.knots
        return tuple(Piece(t0, t1, *self.theta._at(t0), *self.beta._at(t0))
                     for t0, t1 in zip(ks, ks[1:]))


@dataclass(frozen=True)
class TopologyReport:
    """Winding count and closure flag of a motion."""

    n: int
    closed: bool


def topology_report(path: MotionPath, tol: float = CLOSURE_TOL) -> TopologyReport:
    """Nearest winding integer and whether the motion closes up.

    Closure means theta(1) is a whole number of turns and beta returns to its
    initial value, both within ``tol`` radians.
    """
    th_end = path.theta.end_value()
    n = int(round(th_end / TWO_PI))
    closed = (abs(th_end - TWO_PI * n) <= tol
              and abs(path.beta.end_value() - path.beta.start_value()) <= tol)
    return TopologyReport(n=n, closed=closed)


# ---------------------------------------------------------------------------
# construction from a structured description


def _finite(value, what: str) -> float:
    """value as a float; ValueError unless it is a finite real number."""
    try:
        number = float(value) if isinstance(value, Real) else nan
    except OverflowError:   # an integer past the float range
        number = nan
    if isinstance(value, bool) or not isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return number


def _finite_list(values, what: str) -> np.ndarray:
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValueError(f"{what} must be a list of finite numbers")
    return np.array([_finite(v, f"{what}[{i}]") for i, v in enumerate(values)])


def _build_segment(desc: dict, t0: float, t1: float, what: str) -> Segment:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError(f"{what}: expected an object with a 'kind' field")
    kind = desc["kind"]
    try:
        if kind == "const":
            return ConstantSegment(t0, t1, _finite(desc["value"], f"{what} value"))
        if kind == "affine":
            return AffineSegment(t0, t1, _finite(desc["start"], f"{what} start"),
                                 _finite(desc["slope"], f"{what} slope"))
        if kind == "samples":
            return SampledSegment(t0, t1, _finite_list(desc["t"], f"{what} t"),
                                  _finite_list(desc["values"], f"{what} values"))
    except KeyError as missing:
        raise ValueError(f"{what}: kind {kind!r} is missing field {missing}") from None
    raise ValueError(f"{what}: unknown segment kind {kind!r}")


def build_path(desc: dict) -> MotionPath:
    """Build a validated MotionPath from a structured description.

    The description mirrors the JSON motion format accepted by the CLI::

        {"radii": {"a": 2.0, "b": 1.0},
         "segments": [{"t0": 0.0, "t1": 1.0,
                       "theta": {"kind": "affine", "start": 0.0, "slope": 6.2831853},
                       "beta":  {"kind": "const", "value": 1.5707963}}]}

    Raises
    ------
    GapOrOverlap, DiscontinuousPath, BetaOutOfRange, ThetaNonzeroAtStart
        When the description violates a path invariant.
    SweepTooLarge
        When theta(1) is so large that float spacing there exceeds
        CLOSURE_TOL, so topology_report could not tell a closed lap.
    ValueError
        When the description is structurally malformed or a number in it
        is not a finite real number.
    """
    if not isinstance(desc, dict):
        raise ValueError("motion description must be an object")
    try:
        radii = Radii(_finite(desc["radii"]["a"], "radii a"),
                      _finite(desc["radii"]["b"], "radii b"))
    except (KeyError, TypeError):
        raise ValueError("motion description needs radii {a, b}") from None
    seg_descs = desc.get("segments")
    if not isinstance(seg_descs, list) or not seg_descs:
        raise ValueError("motion description needs a non-empty 'segments' list")

    theta_segs, beta_segs = [], []
    for i, sd in enumerate(seg_descs):
        try:
            t0 = _finite(sd["t0"], f"segment {i} t0")
            t1 = _finite(sd["t1"], f"segment {i} t1")
        except (KeyError, TypeError):
            raise ValueError(f"segment {i}: needs numeric t0 and t1") from None
        if not t1 > t0:
            raise GapOrOverlap(f"segment {i}: empty or reversed interval [{t0}, {t1}]")
        theta_segs.append(_build_segment(sd.get("theta"), t0, t1, f"segment {i} theta"))
        beta_segs.append(_build_segment(sd.get("beta"), t0, t1, f"segment {i} beta"))

    return MotionPath(ScalarPath.from_segments(theta_segs),
                      ScalarPath.from_segments(beta_segs), radii)


# ---------------------------------------------------------------------------
# worked-example gallery


def example_gallery(name: str, beta0: float | None = None,
                    radii: Radii | None = None) -> MotionPath:
    """Return one of the six stock motions, labelled "i".."vi".

    "i".."iii" sweep one full revolution at tilt 0, pi/2, pi. "iv" sweeps at a
    caller-chosen constant tilt ``beta0``. "v" and "vi" are the square-wave
    motions whose tilt rises to pi/2 and returns, with zero and minus-one net
    revolutions respectively.
    """
    r = radii if radii is not None else Radii(1.0, 1.0)
    if name in ("i", "ii", "iii", "iv"):
        if name == "iv":
            if beta0 is None:
                raise ValueError("example 'iv' needs an explicit beta0 in [0, pi]")
            level = float(beta0)
        else:
            if beta0 is not None:
                raise ValueError(f"beta0 only applies to example 'iv', not {name!r}")
            level = {"i": 0.0, "ii": pi / 2.0, "iii": pi}[name]
        theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, TWO_PI)])
        beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, level)])
        return MotionPath(theta, beta, r)

    if beta0 is not None:
        raise ValueError(f"beta0 only applies to example 'iv', not {name!r}")

    # the shared tilt schedule of "v" and "vi": flat, rise, flat, fall
    beta = ScalarPath.from_segments([
        ConstantSegment(0.00, 0.25, 0.0),
        AffineSegment(0.25, 0.50, 0.0, TWO_PI),
        ConstantSegment(0.50, 0.75, pi / 2.0),
        AffineSegment(0.75, 1.00, pi / 2.0, -TWO_PI),
    ])
    if name == "v":
        theta = ScalarPath.from_segments([
            AffineSegment(0.00, 0.25, 0.0, TWO_PI),
            ConstantSegment(0.25, 0.50, pi / 2.0),
            AffineSegment(0.50, 0.75, pi / 2.0, -TWO_PI),
            ConstantSegment(0.75, 1.00, 0.0),
        ])
        return MotionPath(theta, beta, r)
    if name == "vi":
        theta = ScalarPath.from_segments([
            AffineSegment(0.00, 0.25, 0.0, -6.0 * pi),
            ConstantSegment(0.25, 0.50, -1.5 * pi),
            AffineSegment(0.50, 0.75, -1.5 * pi, -TWO_PI),
            ConstantSegment(0.75, 1.00, -TWO_PI),
        ])
        return MotionPath(theta, beta, r)

    raise UnknownExample(f"no example named {name!r}; choose one of i..vi")


GALLERY_NAMES = ("i", "ii", "iii", "iv", "v", "vi")


# ---------------------------------------------------------------------------
# path algebra used by tests and callers


def reverse_path(path: MotionPath) -> MotionPath:
    """Time-reversed motion, rebased so theta still starts at 0."""

    def flip(s: ScalarPath, dv: float) -> ScalarPath:
        # 0.0 - r keeps a flat piece's slope at +0.0
        return ScalarPath(tuple(1.0 - k for k in s.knots[:0:-1]) + (1.0,),
                          tuple(v + dv for v in reversed(s.ends)),
                          tuple(0.0 - r for r in reversed(s.rates)),
                          tuple(v + dv for v in reversed(s.starts)))

    return MotionPath(flip(path.theta, -path.theta.end_value()),
                      flip(path.beta, 0.0), path.radii)


def concatenate_paths(first: MotionPath, second: MotionPath) -> MotionPath:
    """Run ``first`` on [0, 1/2] and ``second`` on [1/2, 1].

    ``second``'s revolution schedule is shifted to continue from where
    ``first`` ends; the tilt schedules must already match at the junction.
    """
    if first.radii != second.radii:
        raise ValueError("concatenated motions must share radii")
    _check_join(first.beta.end_value(), second.beta.start_value(), 0.5)

    def join(a: ScalarPath, b: ScalarPath, dv: float) -> ScalarPath:
        # a on [0, 1/2] and b on [1/2, 1], at twice their slopes
        return ScalarPath(
            tuple(0.5 * k for k in a.knots[:-1]) + tuple(0.5 * k + 0.5 for k in b.knots),
            a.starts + tuple(v + dv for v in b.starts),
            tuple(2.0 * r for r in a.rates + b.rates),
            a.ends + tuple(v + dv for v in b.ends))

    return MotionPath(join(first.theta, second.theta, first.theta.end_value()),
                      join(first.beta, second.beta, 0.0), first.radii)
