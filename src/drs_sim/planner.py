"""Hover-point selection and per-step drone motion toward it.

The target is the midpoint between the served vehicles, at the altitude
minimizing a height cost that trades slant range against element-pattern
obliquity loss: sqrt(3) times the half-separation d, clamped into the flight
box.  That is not the link budget's own optimum: above the midpoint
channel.path_loss grows as (d^2 + h^2)^5 / h^6, least at h = sqrt(3/2) d
above the antennas, and below h = d the midpoint is a saddle of it.  Points
are plain (x, y, z) tuples, taken and returned as such.
"""

from __future__ import annotations

import math

_SQRT3 = math.sqrt(3.0)  # ratio of the best altitude to the half-separation


class WorldBounds:
    """Axis-aligned flight box the drone must stay inside."""

    def __init__(
        self,
        x_min: float = 0.0,
        x_max: float = 500.0,
        y_min: float = 0.0,
        y_max: float = 5000.0,
        z_min: float = 100.0,
        z_max: float = 600.0,
    ) -> None:
        self.x_min, self.x_max = x_min, x_max
        self.y_min, self.y_max = y_min, y_max
        self.z_min, self.z_max = z_min, z_max
        for name in ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:  # NaN fails too
                raise ValueError(f"bounds.{name} must be finite, got {value!r}")
        for axis in ("x", "y", "z"):
            lo = getattr(self, f"{axis}_min")
            hi = getattr(self, f"{axis}_max")
            if not lo < hi:
                raise ValueError(f"bounds.{axis}_min must be < bounds.{axis}_max")

    def clamp(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        """Point of the box nearest to (x, y, z)."""
        return (
            min(max(x, self.x_min), self.x_max),
            min(max(y, self.y_min), self.y_max),
            min(max(z, self.z_min), self.z_max),
        )

    def contains(self, x: float, y: float, z: float) -> bool:
        """Whether the point (x, y, z) is in the box."""
        return (
            self.x_min <= x <= self.x_max
            and self.y_min <= y <= self.y_max
            and self.z_min <= z <= self.z_max
        )


class MotionLimits:
    """Per-step kinematic budgets of the drone and the vehicle speed."""

    def __init__(
        self,
        v_drone: float = 18.0,  # max drone speed [m/s]
        rot_rate: float = 0.1745,  # max yaw rate [rad/s]
        time_step: float = 0.5,  # planning step [s]
        v_vehicle: float = 15.0,  # vehicle speed magnitude [m/s]
    ) -> None:
        self.v_drone, self.rot_rate = v_drone, rot_rate
        self.time_step, self.v_vehicle = time_step, v_vehicle
        for name in ("v_drone", "rot_rate", "time_step", "v_vehicle"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # NaN fails too
                raise ValueError(f"limits.{name} must be finite and > 0, got {value!r}")
        if v_drone < v_vehicle:
            raise ValueError("limits.v_drone must be >= limits.v_vehicle")
        if not 0.0 < self.yaw_budget < math.inf:
            raise ValueError(
                f"the per-step yaw budget limits.rot_rate * limits.time_step "
                f"({rot_rate!r} * {time_step!r}) must be finite and > 0, got {self.yaw_budget!r}"
            )

    @property
    def step_length(self) -> float:
        """Maximum displacement per step [m]."""
        return self.v_drone * self.time_step

    @property
    def yaw_budget(self) -> float:
        """Maximum yaw change per step [rad]."""
        return self.rot_rate * self.time_step


def optimal_height(d_2d: float, bounds: WorldBounds) -> float:
    """Altitude in [z_min, z_max] minimizing the planner's height cost.

    The cost (d_2d^2 + h^2) / cos^6(atan(d_2d / h)) = (d_2d^2 + h^2)^4 / h^6
    falls for h < sqrt(3) d_2d and rises beyond, so its minimum over the
    flight box is sqrt(3) d_2d clamped into [z_min, z_max].  It is not the
    path loss, which is least at sqrt(3/2) d_2d (see the module docstring).
    """
    if d_2d < 0.0:
        raise ValueError("d_2d must be >= 0")
    return min(max(_SQRT3 * d_2d, bounds.z_min), bounds.z_max)


def optimal_location(tx: tuple, rx: tuple, bounds: WorldBounds) -> tuple[float, float, float]:
    """Best hover point for relaying between the points ``tx`` and ``rx``.

    Horizontal position is the midpoint between the vehicles, clamped into
    the flight box; altitude minimizes the height cost for half their
    horizontal separation.  The vehicles' z is not read.
    """
    tx_x, tx_y, _ = tx
    rx_x, rx_y, _ = rx
    d_2d = 0.5 * math.hypot(rx_x - tx_x, rx_y - tx_y)
    return bounds.clamp(0.5 * (tx_x + rx_x), 0.5 * (tx_y + rx_y), optimal_height(d_2d, bounds))


def step_towards(
    current: tuple, target: tuple, limits: MotionLimits, bounds: WorldBounds
) -> tuple[float, float, float]:
    """One bounded step from the point ``current`` toward the point ``target``.

    Moves at most v_drone * time_step along the straight line, snapping to
    the target once it is within reach, then clamps into the flight box.
    Clamping onto the box never lengthens the step (projection onto a
    convex set is non-expansive), so the displacement budget holds.
    """
    cx, cy, cz = current
    tx, ty, tz = target
    dx, dy, dz = tx - cx, ty - cy, tz - cz
    distance = math.sqrt(dx * dx + dy * dy + dz * dz)
    step = limits.step_length
    if distance <= step:
        return bounds.clamp(tx, ty, tz)
    scale = step / distance
    return bounds.clamp(cx + dx * scale, cy + dy * scale, cz + dz * scale)
