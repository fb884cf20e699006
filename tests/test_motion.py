"""Motion-path construction, validation, and the stock gallery."""

import math
import re

import numpy as np
import pytest

from geophase import (DEFAULT_EPSILON, AffineSegment, ConstantSegment,
                      MotionPath, Radii,
                      SampledSegment, ScalarPath, build_path,
                      concatenate_paths, example_gallery,
                      geometric_phase_line, reverse_path, topology_report)
from geophase.errors import (BetaOutOfRange, DiscontinuousPath, GapOrOverlap,
                             SweepTooLarge, ThetaNonzeroAtStart,
                             UnknownExample)
from geophase.sphere import clamped_affine_pieces
from conftest import backtracking_sampled_path, gallery

PI = math.pi
TWO_PI = 2.0 * PI


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_radii_must_be_positive():
    with pytest.raises(ValueError):
        Radii(0.0, 1.0)
    with pytest.raises(ValueError):
        Radii(1.0, -2.0)
    with pytest.raises(ValueError):
        Radii(1.0, float("nan"))
    # each radius finite, their ratio not
    with pytest.raises(ValueError, match="ratio a/b overflows"):
        Radii(1e308, 1e-308)
    with pytest.raises(ValueError, match="ratio a/b overflows"):
        Radii(np.float64(1e200), np.float64(1e-200))


def test_segments_must_tile_unit_interval():
    with pytest.raises(GapOrOverlap):
        ScalarPath.from_segments([ConstantSegment(0.0, 0.4, 1.0),
                                  ConstantSegment(0.6, 1.0, 1.0)])
    with pytest.raises(GapOrOverlap):
        ScalarPath.from_segments([ConstantSegment(0.0, 0.7, 1.0),
                                  ConstantSegment(0.5, 1.0, 1.0)])
    with pytest.raises(GapOrOverlap):
        ScalarPath.from_segments([ConstantSegment(0.1, 1.0, 1.0)])


def test_segments_must_join_continuously():
    with pytest.raises(DiscontinuousPath):
        ScalarPath.from_segments([AffineSegment(0.0, 0.5, 0.0, 1.0),
                                  ConstantSegment(0.5, 1.0, 0.0)])


def test_sampled_segment_interpolates_linearly():
    seg = SampledSegment(0.0, 1.0, knots=np.array([0.0, 0.25, 1.0]),
                         values=np.array([0.0, 1.0, 0.5]))
    path = ScalarPath.from_segments([seg])
    assert path._at(0.125)[0] == pytest.approx(0.5)
    assert path._at(0.1)[1] == pytest.approx(4.0)
    assert path._at(0.5)[1] == pytest.approx(-1.0 / 1.5)
    assert path.knots == (0.0, 0.25, 1.0)


def test_sampled_segment_values_are_float_tuples():
    # lists, tuples and numpy arrays all arrive as tuples of floats
    for knots in ([0.0, 0.5, 1.0], (0, 0.5, 1), np.array([0.0, 0.5, 1.0])):
        seg = SampledSegment(0.0, 1.0, knots, np.array([1, 2, 1]))
        assert seg.knots == (0.0, 0.5, 1.0) and seg.values == (1.0, 2.0, 1.0)
        assert all(type(x) is float for x in seg.knots + seg.values)
    for knots, values, message in (
            (0.5, 1.0, "matching 1-d"), ([[0.0, 1.0]], [[1.0, 2.0]], "matching 1-d"),
            (np.array([[0.0], [1.0]]), np.array([[1.0], [2.0]]), "matching 1-d"),
            ("01", [1.0, 2.0], "matching 1-d"), (b"01", [1.0, 2.0], "matching 1-d"),
            ([0.0, 1.0], ["1", "2"], "matching 1-d"),
            ([0.0, 1.0], [1.0], "matching 1-d"), ([0.0], [1.0], "matching 1-d"),
            ([0.0, 0.5, 0.5, 1.0], [1.0] * 4, "strictly increasing"),
            ([0.0, math.nan, 1.0], [1.0] * 3, "strictly increasing"),
            ([0.1, 1.0], [1.0] * 2, "start at t0")):
        with pytest.raises(ValueError, match=message):
            SampledSegment(0.0, 1.0, knots, values)


def test_motion_path_validation():
    theta_ok = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, TWO_PI)])
    beta_bad = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 3.0, 1.0)])
    with pytest.raises(BetaOutOfRange):
        MotionPath(theta_ok, beta_bad, Radii(1.0, 1.0))
    theta_bad = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 0.5)])
    beta_ok = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)])
    with pytest.raises(ThetaNonzeroAtStart):
        MotionPath(theta_bad, beta_ok, Radii(1.0, 1.0))


# float spacing at theta(1) above the closure tolerance: no closed lap could
# be told from an open one, whichever way the path is built
@pytest.mark.parametrize("slope", [1e308, 1e12])
def test_motion_path_refuses_unresolvable_sweeps(slope):
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, slope)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)])
    with pytest.raises(SweepTooLarge, match="spacing"):
        MotionPath(theta, beta, Radii(1.0, 1.0))


def test_motion_path_refuses_an_unresolvable_theta_mid_lap():
    # theta(1) = 0, but the peak between is past any closure test
    theta = ScalarPath.from_segments(
        [SampledSegment(0.0, 1.0, [0.0, 0.5, 1.0], [0.0, 1e300, 0.0])])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)])
    with pytest.raises(SweepTooLarge, match="reaches 1e\\+300"):
        MotionPath(theta, beta, Radii(1.0, 1.0))


@pytest.mark.parametrize("last", [math.nan, math.inf, -math.inf])
def test_motion_path_refuses_a_non_finite_theta_after_finite_ones(last):
    # built directly, so nothing checked the end values; a NaN listed after
    # finite values must not drop out of the peak
    theta = ScalarPath((0.0, 0.5, 1.0), (0.0, 1.0), (2.0, 0.0), (1.0, last))
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, 1.0)])
    with pytest.raises(SweepTooLarge, match="spacing"):
        MotionPath(theta, beta, Radii(1.0, 1.0))


@pytest.mark.parametrize("schedule", ["theta", "beta"])
def test_motion_path_refuses_non_finite_slopes(schedule):
    # knots a subnormal step apart make the first piece's slope infinite
    plain = {"theta": AffineSegment(0.0, 1.0, 0.0, TWO_PI),
             "beta": ConstantSegment(0.0, 1.0, 1.0)}
    values = {"theta": [0.0, 1.0, TWO_PI], "beta": [1.0, 1.2, 1.0]}[schedule]
    plain[schedule] = SampledSegment(0.0, 1.0, [0.0, 5e-324, 1.0], values)
    paths = {k: ScalarPath.from_segments([seg]) for k, seg in plain.items()}
    assert paths[schedule].rates[0] == math.inf
    with pytest.raises(ValueError, match=f"{schedule} slope is inf"):
        MotionPath(paths["theta"], paths["beta"], Radii(1.0, 1.0))


@pytest.mark.parametrize("name,n", [("i", 1), ("ii", 1), ("iii", 1),
                                    ("iv", 1), ("v", 0), ("vi", -1)])
def test_gallery_topology(name, n):
    report = topology_report(gallery(name))
    assert report.closed
    assert report.n == n


def test_open_path_reported_open():
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, PI)])
    beta = ScalarPath.from_segments([ConstantSegment(0.0, 1.0, PI / 2.0)])
    report = topology_report(MotionPath(theta, beta, Radii(1.0, 1.0)))
    assert not report.closed


def test_gallery_argument_validation():
    with pytest.raises(ValueError):
        example_gallery("iv")          # beta0 is mandatory here
    with pytest.raises(ValueError):
        example_gallery("ii", beta0=1.0)
    with pytest.raises(UnknownExample):
        example_gallery("vii")


def test_build_path_round_trip():
    desc = {
        "radii": {"a": 2.0, "b": 1.0},
        "segments": [
            {"t0": 0.0, "t1": 0.5,
             "theta": {"kind": "affine", "start": 0.0, "slope": TWO_PI},
             "beta": {"kind": "const", "value": 1.0}},
            {"t0": 0.5, "t1": 1.0,
             "theta": {"kind": "affine", "start": PI, "slope": TWO_PI},
             "beta": {"kind": "samples", "t": [0.5, 0.75, 1.0],
                      "values": [1.0, 1.2, 1.0]}},
        ],
    }
    path = build_path(desc)
    assert path.radii == Radii(2.0, 1.0)
    assert path.theta._at(0.75)[0] == pytest.approx(1.5 * PI)
    assert path.beta._at(0.75)[0] == pytest.approx(1.2)
    assert topology_report(path).closed


def test_build_path_rejects_unknown_kind():
    desc = {"radii": {"a": 1.0, "b": 1.0},
            "segments": [{"t0": 0.0, "t1": 1.0,
                          "theta": {"kind": "spline", "start": 0.0},
                          "beta": {"kind": "const", "value": 1.0}}]}
    with pytest.raises(ValueError):
        build_path(desc)


@pytest.mark.parametrize("where,bad,field", [
    (("radii", "b"), float("inf"), "radii b"),
    (("segments", 0, "t1"), "1.0", "segment 0 t1"),
    (("segments", 0, "theta", "slope"), None, "segment 0 theta slope"),
    (("segments", 0, "beta", "values", 1), float("nan"),
     "segment 0 beta values[1]"),
    (("segments", 0, "beta", "values", 1), True, "segment 0 beta values[1]"),
])
def test_build_path_accepts_only_finite_real_numbers(where, bad, field):
    desc = {"radii": {"a": 1.0, "b": 1.0},
            "segments": [{"t0": 0.0, "t1": 1.0,
                          "theta": {"kind": "affine", "start": 0.0,
                                    "slope": TWO_PI},
                          "beta": {"kind": "samples", "t": [0.0, 0.5, 1.0],
                                   "values": [1.0, 1.2, 1.0]}}]}
    build_path(desc)
    node = desc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = bad
    with pytest.raises(ValueError, match=re.escape(field)):
        build_path(desc)


def test_reverse_negates_the_line_phase():
    path = gallery("iv")
    assert geometric_phase_line(reverse_path(path)) == pytest.approx(
        -geometric_phase_line(path), abs=1e-12)


def test_concatenation_adds_line_phases():
    path = gallery("iv")
    double = concatenate_paths(path, path)
    assert geometric_phase_line(double) == pytest.approx(
        2.0 * geometric_phase_line(path), abs=1e-12)
    assert topology_report(double).n == 2


# the path algebra maps affine pieces, which the sampled segments of this
# path split at knots that do not line up between theta and beta


def test_double_reversal_restores_the_pieces():
    path = backtracking_sampled_path()
    again = reverse_path(reverse_path(path))
    assert len(again.affine_pieces) == len(path.affine_pieces)
    for piece, back in zip(path.affine_pieces, again.affine_pieces):
        assert back == pytest.approx(piece, abs=1e-15, rel=0.0)


def test_each_half_of_a_concatenation_is_its_path_at_double_speed():
    # the path is open, so it is joined to its own reversal, whose tilt
    # starts where the path's ends
    path = backtracking_sampled_path()
    back = reverse_path(path)
    pieces = concatenate_paths(path, back).affine_pieces
    n = len(path.affine_pieces)
    assert len(pieces) == 2 * n
    halves = ((path, 0.0, 0.0, pieces[:n]),
              (back, 0.5, path.theta.end_value(), pieces[n:]))
    for source, offset, shift, half in halves:
        for (t0, t1, th0, dth, b0, db), got in zip(source.affine_pieces, half):
            assert got == pytest.approx(
                (0.5 * t0 + offset, 0.5 * t1 + offset, th0 + shift,
                 2.0 * dth, b0, 2.0 * db), abs=1e-15, rel=0.0)


def test_clamp_that_does_not_bite_returns_the_raw_pieces():
    path = backtracking_sampled_path()
    b = path.beta.starts + path.beta.ends
    assert DEFAULT_EPSILON < min(b) and max(b) < PI - DEFAULT_EPSILON
    assert clamped_affine_pieces(path, DEFAULT_EPSILON) == path.affine_pieces
