"""Motion-path construction, validation, and the stock gallery."""

import math
import re

import numpy as np
import pytest

from geophase import (AffineSegment, ConstantSegment, MotionPath, Radii,
                      SampledSegment, ScalarPath, build_path,
                      concatenate_paths, example_gallery,
                      geometric_phase_line, reverse_path, topology_report)
from geophase.errors import (BetaOutOfRange, DiscontinuousPath, GapOrOverlap,
                             SweepTooLarge, ThetaNonzeroAtStart,
                             UnknownExample)
from conftest import gallery

PI = math.pi
TWO_PI = 2.0 * PI


def test_radii_must_be_positive():
    with pytest.raises(ValueError):
        Radii(0.0, 1.0)
    with pytest.raises(ValueError):
        Radii(1.0, -2.0)
    with pytest.raises(ValueError):
        Radii(1.0, float("nan"))


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


def test_scalar_path_breakpoint_sides():
    path = ScalarPath.from_segments([AffineSegment(0.0, 0.5, 0.0, 2.0),
                                     AffineSegment(0.5, 1.0, 1.0, -2.0)])
    assert path.value(0.25) == pytest.approx(0.5)
    assert path.value(0.5) == pytest.approx(1.0)
    assert path.slope(0.5, side="left") == pytest.approx(2.0)
    assert path.slope(0.5, side="right") == pytest.approx(-2.0)


def test_vector_queries_match_scalar_queries():
    path = gallery("vi").theta
    ts = np.linspace(0.0, 1.0, 257)
    vals = path.values(ts)
    slopes = path.slopes(ts)
    for i, t in enumerate(ts):
        assert vals[i] == pytest.approx(path.value(float(t)), abs=1e-15)
        # vectorized slopes use the right-limit convention at breakpoints
        assert slopes[i] == pytest.approx(
            path.slope(float(t), side="right" if t < 1.0 else "left"))


def test_sampled_segment_interpolates_linearly():
    seg = SampledSegment(0.0, 1.0, knots=np.array([0.0, 0.25, 1.0]),
                         values=np.array([0.0, 1.0, 0.5]))
    assert seg.value(0.125) == pytest.approx(0.5)
    assert seg.slope(0.1) == pytest.approx(4.0)
    assert seg.slope(0.5) == pytest.approx(-1.0 / 1.5)
    assert seg.interior_knots() == (0.25,)


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
    assert path.theta.value(0.75) == pytest.approx(1.5 * PI)
    assert path.beta.value(0.75) == pytest.approx(1.2)
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
