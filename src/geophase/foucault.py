"""Pendulum-plane drift accumulated along a route on the rotating Earth.

The swing plane of an ideal pendulum carried along a route parallel
transports along the route's trace in inertial space. Over a closed trace
the accumulated drift is the negative of the geometric phase of that trace,
and for a route given as timestamped waypoints (with the Earth's own
rotation folded in) the per-leg drift has a closed form used here directly.

Conventions: time in sidereal days, longitude lambda and latitude phi in
radians, routes piecewise linear in (t, lambda, phi). The inertial azimuth
of a point is lambda + 2 pi t; colatitude-from-south beta = phi + pi/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .errors import (CurveNotClosed, EmptyTrack, LatitudeOutOfRange,
                     NonMonotoneTime, ParseError)
from .motion import TWO_PI, MotionPath, topology_report
from .phases import geometric_phase_line

_TRACK_HEADER = ("t_days", "lon_deg", "lat_deg")


@dataclass(frozen=True)
class RouteTrack:
    """Waypoint route: times in sidereal days, unwrapped lon, lat (radians)."""

    t_days: np.ndarray
    lon: np.ndarray
    lat: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_days, dtype=float)
        lon = np.asarray(self.lon, dtype=float)
        lat = np.asarray(self.lat, dtype=float)
        if not (t.ndim == lon.ndim == lat.ndim == 1
                and t.size == lon.size == lat.size):
            raise ValueError("track arrays must be 1-d and equally long")
        object.__setattr__(self, 't_days', t)
        object.__setattr__(self, 'lon', lon)
        object.__setattr__(self, 'lat', lat)
        # the checks are written so that NaN fails them
        if not (np.all(np.isfinite(t)) and np.all(t[1:] > t[:-1])):
            raise NonMonotoneTime(
                "waypoint times must be finite and strictly increase")
        if not np.all(np.abs(lat) <= pi / 2.0 + 1e-12):
            raise LatitudeOutOfRange("latitudes must lie in [-pi/2, pi/2]")
        if not np.all(np.isfinite(lon)):
            raise ValueError("longitudes must be finite")

    def __len__(self) -> int:
        return int(self.t_days.size)


@dataclass(frozen=True)
class FoucaultResult:
    """Total swing-plane drift and its per-leg breakdown (radians)."""

    delta_fou: float
    accumulation: np.ndarray


def to_earth_coords(theta, beta, t_days):
    """Convert inertial angles at a given time to (longitude, latitude)."""
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta, dtype=float)
    t_days = np.asarray(t_days, dtype=float)
    return theta - TWO_PI * t_days, beta - pi / 2.0


def foucault_from_motion(path: MotionPath) -> float:
    """Drift for a closed motion given directly in inertial angles."""
    if not topology_report(path).closed:
        raise CurveNotClosed("drift is only defined over a closed trace")
    return -geometric_phase_line(path)


def route_foucault(track: RouteTrack) -> FoucaultResult:
    """Accumulated drift along a waypoint route.

    Each leg is linear in time in both coordinates. With latitude rate r and
    inertial azimuth rate m + 2 pi (m the longitude rate), the leg drift
    integral of sin(phi) d(azimuth) has the closed form

        (m + 2 pi) (cos phi0 - cos phi1) / r    if r != 0
        (m + 2 pi) sin(phi0) dt                 if the leg stays at phi0

    A leg or total past the float range raises ValueError.
    """
    if len(track) < 2:
        raise EmptyTrack("need at least two waypoints")
    with np.errstate(all='ignore'):
        dt = np.diff(track.t_days)
        phi0, phi1 = track.lat[:-1], track.lat[1:]
        rate_phi = (phi1 - phi0) / dt
        rate_az = (track.lon[1:] - track.lon[:-1]) / dt + TWO_PI
        sloped = rate_az * (np.cos(phi0) - np.cos(phi1)) / rate_phi
        flat = rate_az * np.sin(phi0) * dt
        legs = np.where(rate_phi == 0.0, flat, sloped)
        total = float(np.sum(legs))
    if not (np.all(np.isfinite(legs)) and np.isfinite(total)):
        raise ValueError("the drift on this route overflows the float range")
    return FoucaultResult(delta_fou=total, accumulation=legs)


def ingest_track(text: str) -> RouteTrack:
    """Parse the waypoint CSV format.

    Expected layout: comment lines start with '#', blanks are skipped, the
    first content line must be the header ``t_days,lon_deg,lat_deg``, and
    every following line holds three finite numbers. Longitudes are
    unwrapped so a route crossing the date line accumulates continuously.
    ParseError reports 1-based line and field positions.
    """
    rows = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith('#'):
            continue
        fields = [f.strip() for f in line.split(',')]
        if not saw_header:
            if tuple(fields) != _TRACK_HEADER:
                raise ParseError(
                    f"expected header {','.join(_TRACK_HEADER)!r}, got {line!r}",
                    line=lineno, column=1)
            saw_header = True
            continue
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}",
                             line=lineno, column=len(fields))
        values = []
        for col, field in enumerate(fields, start=1):
            try:
                value = float(field)
            except ValueError:
                raise ParseError(f"not a number: {field!r}",
                                 line=lineno, column=col) from None
            if not np.isfinite(value):
                raise ParseError(f"not a finite number: {field!r}",
                                 line=lineno, column=col)
            values.append(value)
        if abs(values[2]) > 90.0:
            raise LatitudeOutOfRange(
                f"line {lineno}: latitude {values[2]} outside [-90, 90]")
        rows.append(values)
    if not saw_header:
        raise ParseError("no header line found", line=1, column=1)
    if not rows:
        raise EmptyTrack("no waypoints after the header")
    data = np.asarray(rows, dtype=float)
    lon = np.unwrap(np.radians(data[:, 1]))
    lat = np.radians(data[:, 2])
    return RouteTrack(t_days=data[:, 0], lon=lon, lat=lat)
