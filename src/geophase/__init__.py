"""Rotation of a disc rolling without slipping around a fixed disc.

The total rotation angle splits into a dynamical part, set by the rolled
arc length and the radius ratio, and a geometric part set only by the
trajectory of the disc's unit normal on the sphere. This package computes
both, with the geometric part cross-checked by several independent
routes: a line integral, sandwiching arc-length bounds, oriented spherical
area, geodesic curvature and turning angles, monopole potentials, state
transport in a two-level system, and a rigid-body simulation.
"""

from .errors import (BetaOutOfRange, ClosureMismatch, CurveHasCusps,
                     CurveNotClosed, CurveNotSimple, DegenerateArc,
                     DiscontinuousPath, DriftExceeded, EmptyTrack,
                     EpsilonOutOfRange, GapOrOverlap, GaugeInconsistency,
                     GeophaseError, LatitudeOutOfRange, MethodDisagreement,
                     NonMonotoneTime, OnSingularAxis, ParseError, PoleOnCurve,
                     QuadratureFailure, SweepTooLarge, ThetaNonzeroAtStart,
                     UnknownExample, WindingInconsistent)
from .motion import (GALLERY_NAMES, AffineSegment, ConstantSegment,
                     MotionPath, Radii, SampledSegment, ScalarPath,
                     TopologyReport, build_path, concatenate_paths,
                     example_gallery, reverse_path, topology_report)
from .sphere import (DEFAULT_EPSILON, Cusp, RegularizedCurve, detect_cusps,
                     frame_vectors, gauss_vector, offset_length,
                     offset_length_derivative, regularize)
from .regions import (RegionReport, classify_poles, curvature_integral,
                      is_simple, region_areas, turning_angle_sum)
from .phases import (BaumkuchenBounds, PhaseResult, Tolerances,
                     dynamical_phase, extrapolated_region_report,
                     geometric_phase_area, geometric_phase_baumkuchen,
                     geometric_phase_curvature, geometric_phase_line,
                     total_rotation)
from .gauge import (MINUS_PATCH, PLUS_PATCH, GaugePatch, berry_holonomy,
                    curl_check, monopole_holonomy, monopole_potential,
                    patch_circulation)
from .rolling import OracleTrace, simulate_rolling
from .foucault import (FoucaultResult, RouteTrack, foucault_from_motion,
                       ingest_track, route_foucault, to_earth_coords)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
