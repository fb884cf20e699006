"""Rotation of a disc rolling without slipping around a fixed disc.

The total rotation angle splits into a dynamical part, set by the rolled
arc length and the radius ratio, and a geometric part set only by the
trajectory of the disc's unit normal on the sphere. This package computes
both, with the geometric part cross-checked by several independent
routes: a line integral, sandwiching arc-length bounds, oriented spherical
area, geodesic curvature and turning angles, monopole potentials, state
transport in a two-level system, and a rigid-body simulation.
"""

from .errors import (AtCusp, AtSingularPole, BetaOutOfRange, ClosureMismatch,
                     CurveHasCusps, CurveNotClosed, CurveNotSimple,
                     DegenerateArc, DiscontinuousPath, DriftExceeded,
                     EmptyTrack, EpsilonOutOfRange, GapOrOverlap,
                     GaugeInconsistency, GeophaseError, LatitudeOutOfRange,
                     MethodDisagreement, NonMonotoneTime, OnSingularAxis,
                     OutOfDomain, ParseError, PoleOnCurve, QuadratureFailure,
                     SingularSystem, SweepTooLarge, ThetaNonzeroAtStart,
                     UnknownExample, WindingInconsistent)
from .motion import (GALLERY_NAMES, AffineSegment, ConstantSegment,
                     MotionPath, Radii, SampledSegment, ScalarPath,
                     TopologyReport, build_path, concatenate_paths,
                     eval_path, example_gallery, reverse_path,
                     topology_report)
from .sphere import (DEFAULT_EPSILON, ConnectionForms, Cusp, Frame,
                     RegularizedCurve, connection_forms, clamp_path,
                     detect_cusps, frame_vectors, gauss_frame, gauss_vector,
                     geodesic_curvature_at, offset_length,
                     offset_length_derivative, regularize)
from .regions import (RegionReport, classify_poles, curvature_integral,
                      default_seed, is_simple, region_areas, region_report,
                      turning_angle_sum)
from .phases import (BaumkuchenBounds, PhaseResult, Tolerances,
                     dynamical_phase, eps_extrapolate,
                     extrapolated_region_report, geometric_phase_area,
                     geometric_phase_baumkuchen, geometric_phase_curvature,
                     geometric_phase_line, total_rotation)
from .gauge import (MINUS_PATCH, PLUS_PATCH, BerryState, GaugePatch,
                    berry_connection, berry_holonomy, berry_state, curl_check,
                    monopole_holonomy, monopole_potential, patch_circulation)
from .rolling import (OracleTrace, RigidConfiguration, rigid_configuration,
                      simulate_rolling, solve_body_rates)
from .foucault import (FoucaultResult, RouteTrack, foucault_from_motion,
                       ingest_track, route_foucault, to_earth_coords)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
