"""Piecewise motion paths (theta(t), beta(t)) on the unit interval.

A motion is two scalar schedules: the revolution angle ``theta`` of the contact
point around the fixed disc and the tilt ``beta`` of the rolling disc, both
functions of a normalized time t in [0, 1]. Segments are constant, affine, or
sampled-with-linear-interpolation, which keeps every derived integral piecewise
elementary: downstream code consumes the exact piecewise-affine decomposition
returned by :meth:`MotionPath.affine_pieces`.

Conventions enforced at construction:

* segments tile [0, 1] exactly (no gaps, no overlaps),
* both schedules are continuous,
* theta(0) = 0,
* beta stays inside [0, pi].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isfinite, nan, pi
from numbers import Real

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


# ---------------------------------------------------------------------------
# segment kinds


@dataclass(frozen=True)
class ConstantSegment:
    t0: float
    t1: float
    level: float

    def value(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.level) if np.ndim(t) else self.level

    def slope(self, t):
        return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0

    def start_value(self):
        return self.level

    def end_value(self):
        return self.level

    def max_abs_slope(self):
        return 0.0

    def interior_knots(self):
        return ()

    def reversed(self, span: float):
        return ConstantSegment(span - self.t1, span - self.t0, self.level)

    def shifted(self, dt: float, dv: float):
        return ConstantSegment(self.t0 + dt, self.t1 + dt, self.level + dv)


@dataclass(frozen=True)
class AffineSegment:
    t0: float
    t1: float
    start: float   # value at t0
    rate: float    # d(value)/dt

    def value(self, t):
        return self.start + self.rate * (np.asarray(t, dtype=float) - self.t0) if np.ndim(t) \
            else self.start + self.rate * (t - self.t0)

    def slope(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.rate) if np.ndim(t) else self.rate

    def start_value(self):
        return self.start

    def end_value(self):
        return self.start + self.rate * (self.t1 - self.t0)

    def max_abs_slope(self):
        return abs(self.rate)

    def interior_knots(self):
        return ()

    def reversed(self, span: float):
        return AffineSegment(span - self.t1, span - self.t0, self.end_value(), -self.rate)

    def shifted(self, dt: float, dv: float):
        return AffineSegment(self.t0 + dt, self.t1 + dt, self.start + dv, self.rate)


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

    def value(self, t):
        return np.interp(t, self.knots, self.values)

    def slope(self, t):
        # derivative of the interpolant; at interior knots this is the
        # right-hand slope, consistent with the package-wide convention
        rates = np.diff(self.values) / np.diff(self.knots)
        idx = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, rates.size - 1)
        return rates[idx]

    def start_value(self):
        return float(self.values[0])

    def end_value(self):
        return float(self.values[-1])

    def max_abs_slope(self):
        return float(np.max(np.abs(np.diff(self.values) / np.diff(self.knots))))

    def interior_knots(self):
        return tuple(float(k) for k in self.knots[1:-1])

    def reversed(self, span: float):
        return SampledSegment(span - self.t1, span - self.t0,
                              span - self.knots[::-1], self.values[::-1].copy())

    def shifted(self, dt: float, dv: float):
        return SampledSegment(self.t0 + dt, self.t1 + dt, self.knots + dt, self.values + dv)


Segment = ConstantSegment | AffineSegment | SampledSegment


# ---------------------------------------------------------------------------
# scalar schedule


@dataclass(frozen=True, eq=False)
class ScalarPath:
    """One continuous piecewise schedule over [0, 1]."""

    breakpoints: tuple
    segments: tuple
    lipschitz_bound: float

    @classmethod
    def from_segments(cls, segments) -> "ScalarPath":
        segs = sorted(segments, key=lambda s: s.t0)
        if not segs:
            raise GapOrOverlap("schedule has no segments")
        if abs(segs[0].t0) > TILE_TOL or abs(segs[-1].t1 - 1.0) > TILE_TOL:
            raise GapOrOverlap(
                f"segments span [{segs[0].t0}, {segs[-1].t1}], expected [0, 1]")
        for left, right in zip(segs, segs[1:]):
            if abs(right.t0 - left.t1) > TILE_TOL:
                kind = "overlap" if right.t0 < left.t1 else "gap"
                raise GapOrOverlap(f"{kind} at t={left.t1!r} / t={right.t0!r}")
            jump = right.start_value() - left.end_value()
            if abs(jump) > JUMP_TOL:
                raise DiscontinuousPath(
                    f"value jumps by {jump:.3e} at t={right.t0!r}")
        bps = tuple(s.t0 for s in segs) + (1.0,)
        lip = max(s.max_abs_slope() for s in segs)
        return cls(bps, tuple(segs), lip)

    # -- scalar evaluation with one-sided control ---------------------------

    def _segment_index(self, t: float, side: str) -> int:
        if side not in ("left", "right", "two-sided"):
            raise ValueError(f"side must be left/right/two-sided, got {side!r}")
        n = len(self.segments)
        i = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        i = min(max(i, 0), n - 1)
        # at an interior breakpoint, searchsorted picked the right segment;
        # two-sided keeps it (right-limit convention), left backs up one
        if side == "left" and t <= self.segments[i].t0 and i > 0:
            i -= 1
        if t >= 1.0:  # only a left limit exists at the end
            i = n - 1
        return i

    def value(self, t: float, side: str = "two-sided") -> float:
        return float(self.segments[self._segment_index(t, side)].value(t))

    def slope(self, t: float, side: str = "two-sided") -> float:
        return float(self.segments[self._segment_index(t, side)].slope(t))

    # -- vectorized evaluation (right-limit convention, left at t=1) --------

    def values(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.empty(ts.shape, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, ts, side="right") - 1,
                      0, len(self.segments) - 1)
        for k, seg in enumerate(self.segments):
            mask = idx == k
            if np.any(mask):
                out[mask] = seg.value(ts[mask])
        return out

    def slopes(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.empty(ts.shape, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, ts, side="right") - 1,
                      0, len(self.segments) - 1)
        for k, seg in enumerate(self.segments):
            mask = idx == k
            if np.any(mask):
                out[mask] = seg.slope(ts[mask])
        return out

    def all_knots(self):
        """Breakpoints plus interior knots of sampled segments, sorted."""
        ks = set(self.breakpoints)
        for seg in self.segments:
            ks.update(seg.interior_knots())
        return tuple(sorted(ks))

    def start_value(self) -> float:
        return self.segments[0].start_value()

    def end_value(self) -> float:
        return self.segments[-1].end_value()


# ---------------------------------------------------------------------------
# motion path


@dataclass(frozen=True, eq=False)
class MotionPath:
    """Validated pair of schedules plus the disc radii.

    Raises ThetaNonzeroAtStart, BetaOutOfRange, or SweepTooLarge when
    theta(1) is so large that float spacing there exceeds CLOSURE_TOL, so
    topology_report could not tell a closed lap.
    """

    theta: ScalarPath
    beta: ScalarPath
    radii: Radii

    def __post_init__(self):
        th0 = self.theta.start_value()
        if not abs(th0) <= TILE_TOL:
            raise ThetaNonzeroAtStart(f"theta(0) = {th0!r}, expected 0")
        for t0, t1, b0, brate in _affine_pieces_of(self.beta):
            ends = (b0, b0 + brate * (t1 - t0))
            lo, hi = min(ends), max(ends)
            # written so that a NaN end fails the check
            if not all(-TILE_TOL <= b <= pi + TILE_TOL for b in ends):
                raise BetaOutOfRange(
                    f"beta reaches [{lo:.6g}, {hi:.6g}] on [{t0:.6g}, {t1:.6g}], "
                    f"allowed range is [0, pi]")
        sweep = self.theta.end_value()
        spacing = float(np.spacing(abs(sweep)))
        if not spacing <= CLOSURE_TOL:   # NaN for an infinite sweep
            raise SweepTooLarge(
                f"theta sweeps {sweep:.6g} rad; float spacing there is "
                f"{spacing:.3g}, above the closure tolerance {CLOSURE_TOL:g}")

    @cached_property
    def breakpoints(self) -> tuple:
        return tuple(sorted(set(self.theta.breakpoints) | set(self.beta.breakpoints)))

    @cached_property
    def knots(self) -> tuple:
        """Common refinement: breakpoints plus every sampled-segment knot."""
        return tuple(sorted(set(self.theta.all_knots()) | set(self.beta.all_knots())))

    @cached_property
    def affine_pieces(self) -> tuple:
        """Exact decomposition into (t0, t1, theta0, dtheta, beta0, dbeta).

        On each interval both schedules are affine, so the tuple determines the
        motion exactly. This is the workhorse representation for integrators.
        """
        ks = self.knots
        pieces = []
        for t0, t1 in zip(ks, ks[1:]):
            th = self.theta.value(t0, side="right")
            dth = self.theta.slope(0.5 * (t0 + t1))
            b = self.beta.value(t0, side="right")
            db = self.beta.slope(0.5 * (t0 + t1))
            pieces.append((t0, t1, th, dth, b, db))
        return tuple(pieces)


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
    th_end = path.theta.end_value()
    theta = ScalarPath.from_segments(
        [s.reversed(1.0).shifted(0.0, -th_end) for s in path.theta.segments])
    beta = ScalarPath.from_segments([s.reversed(1.0) for s in path.beta.segments])
    return MotionPath(theta, beta, path.radii)


def concatenate_paths(first: MotionPath, second: MotionPath) -> MotionPath:
    """Run ``first`` on [0, 1/2] and ``second`` on [1/2, 1].

    ``second``'s revolution schedule is shifted to continue from where
    ``first`` ends; the tilt schedules must already match at the junction.
    """
    if first.radii != second.radii:
        raise ValueError("concatenated motions must share radii")
    th_mid = first.theta.end_value()

    def squeeze(seg, t_off, dv):
        # map [t0, t1] -> [t0/2 + t_off, t1/2 + t_off], halving slopes
        if isinstance(seg, ConstantSegment):
            return ConstantSegment(seg.t0 / 2 + t_off, seg.t1 / 2 + t_off, seg.level + dv)
        if isinstance(seg, AffineSegment):
            return AffineSegment(seg.t0 / 2 + t_off, seg.t1 / 2 + t_off,
                                 seg.start + dv, 2.0 * seg.rate)
        return SampledSegment(seg.t0 / 2 + t_off, seg.t1 / 2 + t_off,
                              seg.knots / 2 + t_off, seg.values + dv)

    theta = ScalarPath.from_segments(
        [squeeze(s, 0.0, 0.0) for s in first.theta.segments]
        + [squeeze(s, 0.5, th_mid) for s in second.theta.segments])
    beta = ScalarPath.from_segments(
        [squeeze(s, 0.0, 0.0) for s in first.beta.segments]
        + [squeeze(s, 0.5, 0.0) for s in second.beta.segments])
    return MotionPath(theta, beta, first.radii)


def _affine_pieces_of(schedule: ScalarPath):
    """(t0, t1, value0, slope) per knot interval of a single schedule."""
    ks = schedule.all_knots()
    for t0, t1 in zip(ks, ks[1:]):
        yield (t0, t1, schedule.value(t0, side="right"),
               schedule.slope(0.5 * (t0 + t1)))
