"""Rotation of a disc rolling without slipping around a fixed disc.

The total rotation angle splits into a dynamical part, set by the rolled
arc length and the radius ratio, and a geometric part set only by the
trajectory of the disc's unit normal on the sphere. This package computes
both, with the geometric part cross-checked by several independent
routes: a line integral, sandwiching arc-length bounds, oriented spherical
area, geodesic curvature and turning angles, monopole potentials, state
transport in a two-level system, and a rigid-body simulation.

The names below load from their submodules on first use (PEP 562), so
``import geophase`` and the line route need no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BetaOutOfRange", "ClosureMismatch", "CurveHasCusps", "CurveNotClosed",
        "CurveNotSimple", "DiscontinuousPath", "DriftExceeded", "EmptyTrack",
        "EpsilonOutOfRange", "GapOrOverlap", "GaugeInconsistency",
        "GeophaseError", "LatitudeOutOfRange", "MethodDisagreement",
        "NonMonotoneTime", "OnSingularAxis", "ParseError", "PoleOnCurve",
        "QuadratureFailure", "SweepTooLarge", "ThetaNonzeroAtStart",
        "TooManySamples", "UnknownExample", "WindingInconsistent"),
    "motion": (
        "DEFAULT_EPSILON", "GALLERY_NAMES", "AffineSegment", "ConstantSegment",
        "MotionPath", "Radii", "SampledSegment", "ScalarPath", "TopologyReport",
        "build_path", "concatenate_paths", "example_gallery", "reverse_path",
        "topology_report"),
    "sphere": (
        "RegularizedCurve", "detect_cusps", "frame_vectors", "gauss_vector",
        "offset_length", "offset_length_derivative", "regularize"),
    "regions": (
        "RegionReport", "classify_poles", "curvature_integral", "is_simple",
        "region_areas", "turning_angle_sum"),
    "phases": (
        "BaumkuchenBounds", "PhaseResult", "Tolerances", "dynamical_phase",
        "extrapolated_region_report", "geometric_phase_area",
        "geometric_phase_baumkuchen", "geometric_phase_curvature",
        "geometric_phase_line", "total_rotation"),
    "gauge": (
        "MINUS_PATCH", "PLUS_PATCH", "GaugePatch", "berry_holonomy",
        "curl_check", "monopole_holonomy", "monopole_potential",
        "patch_circulation"),
    "rolling": ("OracleTrace", "simulate_rolling"),
    "foucault": (
        "FoucaultResult", "RouteTrack", "foucault_from_motion", "ingest_track",
        "route_foucault", "to_earth_coords"),
}
# exported name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    # not cached here: a name rebound in its home module reads through
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
