"""Coordinate frames and angle bookkeeping for a downward-facing aerial reflector.

World axes: x lateral (across the lanes), y longitudinal (along the lanes),
z up; a point is a plain (x, y, z) tuple in meters.  The reflecting surface
hangs under the drone with its boresight pointing straight down.  Elevation
is measured from boresight, azimuth in the surface's local horizontal frame,
which rotates with the drone's yaw.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians to (-pi, pi].

    An angle already in (-pi, pi] is returned as it is: remainder() would
    return it unchanged, bit for bit.  NaN and infinities go through
    remainder(), which returns NaN for NaN and raises for an infinity.
    """
    if -math.pi < angle <= math.pi:
        return angle
    r = math.remainder(angle, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def sight(surface: tuple, target: tuple) -> tuple[float, float | None, float]:
    """Elevation theta, world bearing and distance of the point ``target`` from ``surface``.

    theta = atan(d_2d / dh), where d_2d is the horizontal separation and dh
    the height of the surface above the target.  The bearing is None for a
    target directly below (theta = 0 there, so the azimuth carries no
    information).  Raises ValueError unless the surface is strictly above
    the target.
    """
    sx, sy, sz = surface
    tx, ty, tz = target
    dh = sz - tz
    if dh <= 0.0:
        raise ValueError(f"surface must be above the target: surface z={sz}, target z={tz}")
    dx = tx - sx
    dy = ty - sy
    d2d = math.hypot(dx, dy)
    bearing = None if d2d == 0.0 else math.atan2(dy, dx)
    return math.atan2(d2d, dh), bearing, math.sqrt(dx * dx + dy * dy + dh * dh)


def local_azimuth(bearing: float | None, yaw: float) -> float:
    """Azimuth of a ``sight`` bearing in the frame yawed by ``yaw``; 0 straight below."""
    return 0.0 if bearing is None else wrap_angle(bearing - yaw)


def step_displacement(a: tuple, b: tuple) -> float:
    """Euclidean distance in meters traveled when moving from ``a`` to ``b``.

    Each is a tuple that starts (x, y, z): a point, or a pose (x, y, z, yaw).
    """
    dx, dy, dz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)
