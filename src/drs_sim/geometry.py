"""Coordinate frames and angle bookkeeping for a downward-facing aerial reflector.

World axes: x lateral (across the lanes), y longitudinal (along the lanes),
z up.  The reflecting surface hangs under the drone with its boresight
pointing straight down.  Elevation is measured from boresight, azimuth in
the surface's local horizontal frame, which rotates with the drone's yaw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    r = math.remainder(angle, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


@dataclass(slots=True)
class Vec3:
    """Point or displacement in meters: x lateral, y longitudinal, z vertical.

    Not frozen: a served step builds several, and a frozen dataclass pays
    three ``object.__setattr__`` calls per construction.  Nothing mutates or
    hashes one.
    """

    x: float
    y: float
    z: float


@dataclass(slots=True)
class Pose:
    """Drone position plus yaw about the world vertical axis.

    Rotation of the surface is restricted to the horizontal plane, so the
    yaw angle alone fixes its orientation.  Yaw is normalized to (-pi, pi]
    on construction.
    """

    position: Vec3
    yaw: float = 0.0

    def __post_init__(self) -> None:
        self.yaw = wrap_angle(self.yaw)


@dataclass(slots=True)
class AngularCoords:
    """Direction of a node as seen from the surface.

    theta: elevation off boresight (straight down), in [0, pi]; any node
    strictly below the drone sits in [0, pi/2).  phi: azimuth in the yawed
    local frame, wrapped to (-pi, pi] on construction.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if math.isnan(self.theta) or not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        self.phi = wrap_angle(self.phi)


def sight(surface: Vec3, target: Vec3) -> tuple[float, float | None, float]:
    """Elevation theta, world bearing and distance of ``target`` from the surface.

    theta = atan(d_2d / dh), where d_2d is the horizontal separation and dh
    the height of the surface above the target.  The bearing is None for a
    target directly below (theta = 0 there, so the azimuth carries no
    information).  Raises ValueError unless the surface is strictly above
    the target.
    """
    dh = surface.z - target.z
    if dh <= 0.0:
        raise ValueError(
            f"surface must be above the target: surface z={surface.z}, target z={target.z}"
        )
    dx = target.x - surface.x
    dy = target.y - surface.y
    d2d = math.hypot(dx, dy)
    bearing = None if d2d == 0.0 else math.atan2(dy, dx)
    return math.atan2(d2d, dh), bearing, math.sqrt(dx * dx + dy * dy + dh * dh)


def local_azimuth(bearing: float | None, yaw: float) -> float:
    """Azimuth of a ``sight`` bearing in the frame yawed by ``yaw``; 0 straight below."""
    return 0.0 if bearing is None else wrap_angle(bearing - yaw)


def rotation_between(a: Pose, b: Pose) -> float:
    """Rotation angle between two yaw-only poses, in [0, pi].

    For rotations about a single axis this equals the axis-angle magnitude
    acos((tr(R) - 1) / 2) of the relative rotation matrix, so the wrapped
    yaw difference is the exact rotation angle.
    """
    return abs(wrap_angle(a.yaw - b.yaw))


def step_displacement(a: Vec3, b: Vec3) -> float:
    """Euclidean distance in meters traveled when moving from ``a`` to ``b``."""
    dx, dy, dz = b.x - a.x, b.y - a.y, b.z - a.z
    return math.sqrt(dx * dx + dy * dy + dz * dz)
