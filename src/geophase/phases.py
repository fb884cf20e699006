"""The rotation-angle engine.

The total rotation of the rolling disc splits into a dynamical part,
proportional to the swept center angle, and a geometric part that depends
only on the trace of the tilt vector. The geometric part is computed by
several independent routes:

* line: the time integral of cos(beta) theta' (the reference method),
* baumkuchen: rigorous lower/upper Riemann-style bounds plus the
  left-endpoint Riemann sum (mid),
* area: left-region area minus 2 pi per enclosed pole, the area measured
  as the signed solid angle of the sampled curve (no frame, curvature or
  junction angle),
* curvature: total turning decomposition (tangent angle, geodesic curvature,
  cusp angles).

Routes that work on the pole-clamped curve (area, curvature, monopole and
the region report) are evaluated at one clamp level, eps, and carried to
the eps -> 0 limit by adding the exact clipped sliver, the integral of
(cos beta_raw - cos beta_clamped) theta' dt (eps_limit). Inside the clamp
band the sliver comes from the raw tilt schedule, so there every clamped
route is anchored to the line integrand; outside the band the sliver is
zero and the routes stay independent of it. The two-level (berry) and
rigid-body (oracle) routes run on the raw motion and are never clamped.
total_rotation is the one place that runs the routes and reconciles them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, isnan, pi, sin

from .errors import CurveNotClosed, GeophaseError, MethodDisagreement
from .motion import TWO_PI, MotionPath, topology_report
from .sphere import (DEFAULT_EPSILON, _check_epsilon, cached_regularize,
                     clamped_affine_pieces)
from .regions import (RegionReport, classify_poles, curvature_integral,
                      region_areas, turning_angle_sum)
from .rolling import DEFAULT_STEPS

METHOD_NAMES = ("line", "baumkuchen", "area", "curvature",
                "monopole", "berry", "oracle")


@dataclass(frozen=True)
class Tolerances:
    """Reconciliation tolerances per method class."""

    analytic: float = 1e-4
    oracle: float = 1e-3


@dataclass(frozen=True)
class BaumkuchenBounds:
    N: int
    lower: float
    upper: float
    mid: float


@dataclass(frozen=True)
class PhaseResult:
    """What total_rotation computed.

    delta_g_by_method maps each route that succeeded to its value, errors
    maps each route that failed to its GeophaseError. discrepancies has one
    row per pair of succeeded routes, a dict with first, second, difference,
    tolerance and ok; max_discrepancy is the largest difference, NaN when
    any difference is NaN and None when only the line route succeeded.
    region is None when neither area nor curvature succeeded or the region
    report could not be built.
    """

    delta_d: float
    delta_g_by_method: dict
    delta_total: float
    max_discrepancy: float | None
    region: RegionReport | None
    n: int
    warnings: tuple = field(default=())
    errors: dict = field(default_factory=dict)
    discrepancies: tuple = field(default=())


# ---------------------------------------------------------------------------
# dynamical phase and the line-integral geometric phase


def dynamical_phase(path: MotionPath) -> float:
    """a/b times the total swept center angle; 2 pi n a/b on closed paths."""
    sweep = path.theta.end_value() - path.theta.start_value()
    return path.radii.a * sweep / path.radii.b


def geometric_phase_line(path: MotionPath) -> float:
    """Integral of cos(beta(t)) theta'(t) dt over the raw motion.

    Every supported schedule is piecewise affine, so each piece has the
    antiderivative theta' sin(beta)/beta' and the sum is exact.
    """
    return _line_sum(path.affine_pieces)


def _line_sum(pieces) -> float:
    """The exact line integral over (t0, t1, th0, dth, b0, db) pieces with
    theta and beta affine on each: raw or clamped Pieces."""
    total = 0.0
    for (t0, t1, _th0, dth, b0, db) in pieces:
        if dth == 0.0:
            continue
        if db == 0.0:
            total += cos(b0) * dth * (t1 - t0)
        else:
            b1 = b0 + db * (t1 - t0)
            total += dth * (sin(b1) - sin(b0)) / db
    return total


def geometric_phase_baumkuchen(path: MotionPath, N: int) -> BaumkuchenBounds:
    """Bracketing sums for the line integral on the refined uniform mesh.

    The uniform N-interval mesh (the nodes of np.linspace(0, 1, N + 1)) is
    refined by every schedule breakpoint, so theta is monotone and beta
    affine on each interval. The mid value is the left-endpoint Riemann
    sum; lower/upper replace cos(beta) by its extreme values on each
    interval, giving certified bounds for any N.

    Each affine piece contributes its own slice of the mesh: its ends plus
    the uniform nodes inside it, found by index arithmetic (a node on the
    piece's start opens a first interval of zero width, which adds 0).
    Between two inner nodes the step in theta is constant and beta advances
    by a constant step, so the piece's left- and right-endpoint sums are two
    Lagrange sums of cos over an arithmetic progression plus the two partial
    end intervals, O(1) work per piece. beta stays in [0, pi], where cos
    decreases, so on every interval of a piece the larger endpoint value of
    cos(beta) sits on the same side; each piece's lower and upper bounds are
    therefore exactly the smaller and the larger of those two sums.
    N must lie in [1, 2**53]: beyond 2**53 the nodes k / N no longer name
    distinct floats, so the mesh cannot be located.
    """
    if not 1 <= N <= 2**53:
        raise ValueError(f"N must be in [1, 2**53], got {N}")
    step = 1.0 / N   # np.linspace's node k is k * step, node N is 1.0
    lower = mid = upper = 0.0
    for (t0, t1, _th0, dth, b0, db) in path.affine_pieces:
        if dth == 0.0:
            continue
        first = _nodes_below(t0, N, step)
        inner = _nodes_below(t1, N, step) - first
        c0, c1 = cos(b0), cos(b0 + db * (t1 - t0))
        if inner == 0:
            left, right = c0 * dth * (t1 - t0), c1 * dth * (t1 - t0)
        else:
            lo_t, hi_t = first * step, (first + inner - 1) * step
            a = b0 + db * (lo_t - t0)   # beta at the first inner node
            d = db * step
            head, tail = dth * (lo_t - t0), dth * (t1 - hi_t)
            left = (c0 * head + dth * step * _cos_sum(a, d, inner - 1)
                    + cos(b0 + db * (hi_t - t0)) * tail)
            right = (cos(a) * head + dth * step * _cos_sum(a + d, d, inner - 1)
                     + c1 * tail)
        mid += left
        lower += min(left, right)
        upper += max(left, right)
    return BaumkuchenBounds(N=N, lower=lower, upper=upper, mid=mid)


def _nodes_below(t: float, N: int, step: float) -> int:
    """np.searchsorted(np.linspace(0, 1, N + 1), t) for t in [0, 1]: the
    number of uniform nodes strictly below t. Node N is 1.0, never below t,
    so only the nodes k * step, k < N, are ever compared."""
    count = min(max(int(t * N), 0), N)
    while count > 0 and (count - 1) * step >= t:
        count -= 1
    while count < N and count * step < t:
        count += 1
    return count


def _cos_sum(a: float, d: float, n: int) -> float:
    """sum(cos(a + k d) for k in range(n)) in closed form (Lagrange)."""
    if n <= 0:
        return 0.0
    half = sin(0.5 * d)
    if half == 0.0:
        return n * cos(a)
    return sin(0.5 * n * d) * cos(a + 0.5 * (n - 1) * d) / half


# ---------------------------------------------------------------------------
# clamped-curve routes with the eps -> 0 limit handling


def eps_limit(path: MotionPath, value: float, eps: float) -> float:
    """value, a clamped-curve quantity at eps, carried to the eps -> 0 limit.

    The clamp moves the curve by the clipped sliver, the integral of
    (cos beta_raw - cos beta_clamped) theta' dt, which is exact piece by
    piece: the line sum over the raw pieces minus the one over
    clamped_affine_pieces(path, eps). It is zero where the tilt stays in
    [eps, pi - eps]. Every clamped-curve route and the region report go
    through here.
    """
    sliver = (_line_sum(path.affine_pieces)
              - _line_sum(clamped_affine_pieces(path, eps)))
    return value + sliver


def closed_topology(path: MotionPath):
    """topology_report of a closed motion; CurveNotClosed otherwise."""
    report = topology_report(path)
    if not report.closed:
        raise CurveNotClosed("this geometric-phase route needs a closed motion")
    return report


def geometric_phase_area(path: MotionPath, eps: float = DEFAULT_EPSILON) -> float:
    """Geometric phase as left-region area minus 2 pi per enclosed pole.

    The area is the signed solid angle of the sampled clamped curve, fanned
    from both poles (regions.region_areas), so this route reads no frame,
    geodesic curvature or junction angle and checks the Gauss-Bonnet claim
    instead of restating it; the two fans must agree within 1e-9
    (WindingInconsistent otherwise). The value is carried to the eps -> 0
    limit.
    """
    closed_topology(path)
    curve = cached_regularize(path, eps)
    i_plus, _ = classify_poles(curve)
    a_plus, _ = region_areas(curve)
    return eps_limit(path, a_plus - TWO_PI * i_plus, eps)


def geometric_phase_curvature(path: MotionPath, eps: float = DEFAULT_EPSILON) -> float:
    """Geometric phase from the total-turning decomposition.

    The tangent-angle circulation of a simple closed curve is -pi (I+ - I-);
    subtracting the geodesic-curvature integral and the cusp angles leaves
    the geometric phase.
    """
    closed_topology(path)
    curve = cached_regularize(path, eps)
    i_plus, i_minus = classify_poles(curve)
    value = (-pi * (i_plus - i_minus) - curvature_integral(curve)
             - turning_angle_sum(curve))
    return eps_limit(path, value, eps)


def extrapolated_region_report(path: MotionPath,
                               eps: float = DEFAULT_EPSILON) -> RegionReport:
    """RegionReport with areas carried to the eps -> 0 limit."""
    closed_topology(path)
    curve = cached_regularize(path, eps)
    i_plus, i_minus = classify_poles(curve)
    a_plus = eps_limit(path, region_areas(curve)[0], eps)
    return RegionReport(I_plus=i_plus, I_minus=i_minus,
                        A_plus=a_plus, A_minus=4.0 * pi - a_plus)


# ---------------------------------------------------------------------------
# reconciliation


def _method_tolerance(name: str, tol: Tolerances) -> float:
    return tol.oracle if name == "oracle" else tol.analytic


def _describe(row: dict) -> str:
    return (f"{row['first']} vs {row['second']} differ by "
            f"{row['difference']:.3e} (tolerance {row['tolerance']:.1e})")


def total_rotation(path: MotionPath, methods=("line", "area"),
                   tolerances: Tolerances | None = None,
                   eps: float = DEFAULT_EPSILON,
                   baumkuchen_n: int = 1_000_000,
                   oracle_steps: int = DEFAULT_STEPS) -> PhaseResult:
    """Run the requested geometric-phase methods and reconcile them.

    The line integral always runs and anchors delta_total. The oracle entry
    is delta_oracle - delta_d, so every value is directly comparable. A
    route that raises a GeophaseError is recorded in ``errors`` and left out
    of the comparison. Every pair of successful routes gets a row in
    ``discrepancies`` and, beyond its tolerance, a warning.
    MethodDisagreement fires when any pair differs by more than ten times
    its tolerance, or by NaN; it names the worst such pair (a NaN one
    first) and carries the finished PhaseResult as ``exc.result``. An eps
    outside [1e-100, pi/8) raises EpsilonOutOfRange before any route runs.
    """
    from .gauge import berry_holonomy, monopole_holonomy
    from .rolling import simulate_rolling

    tol = tolerances or Tolerances()
    _check_epsilon(eps)
    methods = tuple(methods)
    for name in methods:
        if name not in METHOD_NAMES:
            raise ValueError(f"unknown method {name!r}; "
                             f"choose from {', '.join(METHOD_NAMES)}")
    report = topology_report(path)
    delta_d = dynamical_phase(path)
    runners = {
        "baumkuchen": lambda: geometric_phase_baumkuchen(path, baumkuchen_n).mid,
        "area": lambda: geometric_phase_area(path, eps),
        "curvature": lambda: geometric_phase_curvature(path, eps),
        "monopole": lambda: monopole_holonomy(path, eps),
        "berry": lambda: berry_holonomy(path),
        "oracle": lambda: (simulate_rolling(path, oracle_steps)
                           .delta_oracle - delta_d),
    }

    values = {"line": geometric_phase_line(path)}
    errors = {}
    for name, run in runners.items():
        if name in methods:
            try:
                values[name] = float(run())
            except GeophaseError as exc:
                errors[name] = exc

    region = None
    if "area" in values or "curvature" in values:
        try:
            region = extrapolated_region_report(path, eps)
        except GeophaseError:
            pass

    names = list(values)
    rows = []
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            diff = abs(values[first] - values[second])
            allowed = max(_method_tolerance(first, tol),
                          _method_tolerance(second, tol))
            rows.append({"first": first, "second": second, "difference": diff,
                         "tolerance": allowed, "ok": diff <= allowed})

    result = PhaseResult(
        delta_d=delta_d, delta_g_by_method=values,
        delta_total=delta_d + values["line"],
        max_discrepancy=max((r["difference"] for r in rows),
                            key=lambda d: (isnan(d), d), default=None),
        region=region, n=report.n,
        warnings=tuple(_describe(r) for r in rows if not r["ok"]),
        errors=errors, discrepancies=tuple(rows))
    # written so that a NaN difference counts as blown
    blown = [r for r in rows if not r["difference"] <= 10.0 * r["tolerance"]]
    if blown:
        worst = max(blown, key=lambda r: (isnan(r["difference"]), r["difference"]))
        raise MethodDisagreement(_describe(worst), result)
    return result
