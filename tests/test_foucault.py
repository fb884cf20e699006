"""Swing-plane drift along navigation routes."""

import math

import numpy as np
import pytest

from geophase import (AffineSegment, MotionPath, Radii, RouteTrack,
                      ScalarPath, foucault_from_motion, geometric_phase_line,
                      ingest_track, route_foucault, to_earth_coords)
from geophase.errors import (CurveNotClosed, EmptyTrack, LatitudeOutOfRange,
                             NonMonotoneTime, ParseError)

PI = math.pi
TWO_PI = 2.0 * PI


def stationary_track(lat_rad, days=1.0):
    return RouteTrack(t_days=np.array([0.0, days]),
                      lon=np.array([0.0, 0.0]),
                      lat=np.array([lat_rad, lat_rad]))


def test_coordinate_conversion():
    lam, phi = to_earth_coords(1.0, PI / 2.0 + 0.2, 0.25)
    assert lam == pytest.approx(1.0 - PI / 2.0)
    assert phi == pytest.approx(0.2)


def test_stationary_drift_follows_the_sine_of_latitude():
    for lat_deg in (-90.0, -48.0, -15.5, 0.0, 23.4, 48.85, 90.0):
        lat = math.radians(lat_deg)
        result = route_foucault(stationary_track(lat))
        assert result.delta_fou == pytest.approx(TWO_PI * math.sin(lat),
                                                 abs=1e-12)


def test_drift_is_antisymmetric_across_the_equator():
    for lat_deg in (10.0, 31.0, 77.7):
        lat = math.radians(lat_deg)
        north = route_foucault(stationary_track(lat)).delta_fou
        south = route_foucault(stationary_track(-lat)).delta_fou
        assert north == pytest.approx(-south, abs=1e-14)


def test_equatorial_circumnavigation_drifts_nothing():
    track = RouteTrack(t_days=np.array([0.0, 0.5, 1.0]),
                       lon=np.array([0.0, PI, TWO_PI]),
                       lat=np.zeros(3))
    assert route_foucault(track).delta_fou == pytest.approx(0.0, abs=1e-14)


def test_multi_day_drift_scales_linearly():
    lat = math.radians(30.0)
    one = route_foucault(stationary_track(lat, days=1.0)).delta_fou
    three = route_foucault(stationary_track(lat, days=3.0)).delta_fou
    assert three == pytest.approx(3.0 * one, abs=1e-12)


def test_route_and_motion_views_agree():
    # a one-day closed voyage, seen as a track and as the equivalent motion
    legs_t = [0.0, 0.4, 1.0]
    legs_lon = [0.0, 0.9 * TWO_PI, TWO_PI]
    legs_lat = [math.radians(20.0), math.radians(55.0), math.radians(20.0)]
    track = RouteTrack(t_days=np.array(legs_t), lon=np.array(legs_lon),
                       lat=np.array(legs_lat))

    theta_segs, beta_segs = [], []
    for (t0, t1, l0, l1, p0, p1) in zip(legs_t, legs_t[1:], legs_lon,
                                        legs_lon[1:], legs_lat, legs_lat[1:]):
        theta_segs.append(AffineSegment(
            t0, t1, l0 + TWO_PI * t0, (l1 - l0) / (t1 - t0) + TWO_PI))
        beta_segs.append(AffineSegment(
            t0, t1, p0 + PI / 2.0, (p1 - p0) / (t1 - t0)))
    motion = MotionPath(ScalarPath.from_segments(theta_segs),
                        ScalarPath.from_segments(beta_segs), Radii(1.0, 1.0))

    assert route_foucault(track).delta_fou == pytest.approx(
        foucault_from_motion(motion), abs=1e-10)
    assert foucault_from_motion(motion) == pytest.approx(
        -geometric_phase_line(motion), abs=1e-12)


def test_motion_route_requires_closure():
    theta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, 0.0, PI)])
    beta = ScalarPath.from_segments([AffineSegment(0.0, 1.0, PI / 2.0, 0.0)])
    with pytest.raises(CurveNotClosed):
        foucault_from_motion(MotionPath(theta, beta, Radii(1.0, 1.0)))


def test_track_validation():
    with pytest.raises(NonMonotoneTime):
        RouteTrack(t_days=np.array([0.0, 0.5, 0.5]), lon=np.zeros(3),
                   lat=np.zeros(3))
    with pytest.raises(LatitudeOutOfRange):
        RouteTrack(t_days=np.array([0.0, 1.0]), lon=np.zeros(2),
                   lat=np.array([0.0, 2.0]))
    with pytest.raises(EmptyTrack):
        route_foucault(RouteTrack(t_days=np.array([0.0]), lon=np.zeros(1),
                                  lat=np.zeros(1)))


def test_track_validation_rejects_nan():
    nan = float("nan")
    with pytest.raises(NonMonotoneTime):
        RouteTrack(t_days=np.array([0.0, nan]), lon=np.zeros(2),
                   lat=np.zeros(2))
    with pytest.raises(LatitudeOutOfRange):
        RouteTrack(t_days=np.array([0.0, 1.0]), lon=np.zeros(2),
                   lat=np.array([0.0, nan]))
    with pytest.raises(ValueError):
        RouteTrack(t_days=np.array([0.0, 1.0]), lon=np.array([nan, 0.0]),
                   lat=np.zeros(2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t_days,lat", [
    ([0.0, 1e308], math.radians(45.0)),
    ([0.0, 1.6e307, 3.2e307], PI / 2.0),  # finite legs, infinite sum
    ([-1e308, 1e308], 0.0),               # the time step overflows
])
def test_drift_past_the_float_range_raises_without_a_warning(t_days, lat):
    n = len(t_days)
    track = RouteTrack(t_days=np.array(t_days), lon=np.zeros(n),
                       lat=np.full(n, lat))
    with pytest.raises(ValueError, match="overflows the float range"):
        route_foucault(track)


def test_ingest_parses_comments_blanks_and_unwraps_longitude():
    text = ("# voyage log\n"
            "t_days,lon_deg,lat_deg\n"
            "\n"
            "0,0,10\n"
            "0.5,170,10\n"
            "# dateline hop\n"
            "1.0,-170,30\n")
    track = ingest_track(text)
    assert len(track) == 3
    # 170 -> -170 east across the dateline unwraps to 190, not back through 0
    assert track.lon[-1] == pytest.approx(math.radians(190.0))
    assert track.lat[0] == pytest.approx(math.radians(10.0))


def test_ingest_error_positions():
    with pytest.raises(ParseError) as info:
        ingest_track("time,lon_deg,lat_deg\n0,0,0\n")
    assert info.value.line == 1
    assert info.value.column == 1

    with pytest.raises(ParseError) as info:
        ingest_track("t_days,lon_deg,lat_deg\n0,0\n")
    assert info.value.line == 2

    with pytest.raises(ParseError) as info:
        ingest_track("t_days,lon_deg,lat_deg\n0,xyz,0\n")
    assert info.value.line == 2
    assert info.value.column == 2

    with pytest.raises(LatitudeOutOfRange):
        ingest_track("t_days,lon_deg,lat_deg\n0,0,95\n")

    with pytest.raises(NonMonotoneTime):
        ingest_track("t_days,lon_deg,lat_deg\n0,0,0\n0,1,1\n")
