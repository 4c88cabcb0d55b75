"""Two-lane highway scenario: arrivals, pairing events, constant-velocity motion.

Lane 0 runs along x = x_min in the +y direction, lane 1 along x = x_max in
the -y direction.  Vehicle arrivals per lane follow an exponential
inter-arrival process; communication events per step are Poisson counts,
and only one vehicle pair is served at a time.  All randomness flows
through one seeded generator in a fixed order (lane 0 arrivals, lane 1
arrivals, event count, pair draws), so a seed fully determines the trace.
"""

from __future__ import annotations

import math
from collections import deque

from .planner import MotionLimits, WorldBounds
from .rng import SEED_LIMIT, SplitMix64

ANTENNA_HEIGHT_MIN = 1.5  # [m]
ANTENNA_HEIGHT_MAX = 2.0  # [m]

INTERFERER_RSU = "rsu"
INTERFERER_VEHICLE = "vehicle"
INTERFERER_NONE = "none"
INTERFERER_KINDS = (INTERFERER_RSU, INTERFERER_VEHICLE, INTERFERER_NONE)

# Most vehicles scenario.arrival_rate may put on one lane at once, on average.
MAX_LANE_VEHICLES = 10_000


class Vehicle:
    """One vehicle; it enters its lane at spawn_step and moves at constant speed."""

    __slots__ = ("id", "lane", "spawn_step", "antenna_height")

    def __init__(self, id: int, lane: int, spawn_step: int, antenna_height: float) -> None:
        self.id = id
        self.lane = lane  # 0: x = x_min, travels +y; 1: x = x_max, travels -y
        self.spawn_step = spawn_step
        self.antenna_height = antenna_height


class V2VPair:
    __slots__ = ("id", "tx_id", "rx_id", "start_step")

    def __init__(self, id: int, tx_id: int, rx_id: int, start_step: int) -> None:
        self.id = id
        self.tx_id = tx_id
        self.rx_id = rx_id
        self.start_step = start_step


class ScenarioConfig:
    """Scenario shape: rates, geometry, kinematics, interferer, seed.

    ``rsu_x``, ``rsu_y`` and ``rsu_z`` place the roadside unit, the
    interferer of kind "rsu": an unset ``rsu_x`` or ``rsu_y`` is the middle
    of the bounds on that axis, and ``rsu_z`` a 5 m mast.
    """

    def __init__(
        self,
        arrival_rate: float = 0.2,  # vehicles per second per lane
        v2v_rate: float = 0.02,  # pairing events per step
        bounds: WorldBounds = WorldBounds(),
        limits: MotionLimits = MotionLimits(),
        rsu_x: float | None = None,  # [m]
        rsu_y: float | None = None,  # [m]
        rsu_z: float = 5.0,  # [m]
        seed: int = 1,
        interferer_kind: str = INTERFERER_RSU,
    ) -> None:
        if rsu_x is None:
            rsu_x = 0.5 * (bounds.x_min + bounds.x_max)
        if rsu_y is None:
            rsu_y = 0.5 * (bounds.y_min + bounds.y_max)
        self.arrival_rate, self.v2v_rate = arrival_rate, v2v_rate
        self.bounds, self.limits = bounds, limits
        self.rsu_x, self.rsu_y, self.rsu_z = rsu_x, rsu_y, rsu_z
        self.seed, self.interferer_kind = seed, interferer_kind
        for name in ("arrival_rate", "v2v_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"scenario.{name} must be finite and >= 0, got {value!r}")
        # A vehicle stays on its lane for the lane's crossing time, and at least one step.
        dwell = (bounds.y_max - bounds.y_min) / limits.v_vehicle + limits.time_step
        if arrival_rate * dwell > MAX_LANE_VEHICLES:
            raise ValueError(
                f"scenario.arrival_rate = {arrival_rate!r} puts about {arrival_rate * dwell:.6g} "
                f"vehicles on a lane at once ({dwell:.6g} s on the lane each), more than "
                f"{MAX_LANE_VEHICLES}"
            )
        for name in ("rsu_x", "rsu_y", "rsu_z"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:  # NaN fails too
                raise ValueError(f"scenario.{name} must be finite, got {value!r}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"scenario.seed must be in [0, 2**64), got {self.seed}")
        if self.interferer_kind not in INTERFERER_KINDS:
            raise ValueError(
                f"scenario.interferer must be one of {INTERFERER_KINDS}, got {self.interferer_kind!r}"
            )


class TrafficModel:
    """Owns the run's clock, the vehicle population, arrival times and the single active pair.

    A step is ``advance()``, ``spawn_arrivals()``, ``maybe_start_pair()``, in
    that order; ``step`` and ``clock`` [s] count the steps taken and their
    time, and are the run's only step counter and clock.  Every vehicle in a
    lane enters at the same end and moves at the same speed, so each lane is
    a FIFO queue: its head is the vehicle nearest the exit, and a vehicle's
    position follows from its age in steps alone.
    """

    def __init__(self, config: ScenarioConfig, rng: SplitMix64) -> None:
        self.config = config
        self.rng = rng
        self.vehicles: dict[int, Vehicle] = {}  # by id, in spawn order
        self.active_pair: V2VPair | None = None
        self.interferer_id: int | None = None  # designated vehicle, vehicle mode only
        self.pairs_started = 0
        self.step = 0
        self.clock = 0.0  # [s], a running sum of time_step, not step * time_step
        bounds, limits = config.bounds, config.limits
        stride = limits.v_vehicle * limits.time_step
        # Per lane: (x, entry y, signed displacement per step).
        self._motion = (
            (bounds.x_min, bounds.y_min, stride),
            (bounds.x_max, bounds.y_max, -stride),
        )
        self.lanes: tuple[deque[int], deque[int]] = (deque(), deque())  # ids, head first
        # Seconds until the next arrival per lane; infinite for rate zero.
        self._next_arrival = [rng.expovariate(config.arrival_rate) for _ in range(2)]
        self._next_vehicle_id = 0
        self._rsu = (config.rsu_x, config.rsu_y, config.rsu_z)

    def position(self, vehicle_id: int) -> tuple[float, float, float]:
        """Current (x, y, z) of a vehicle on the road; z is its antenna height."""
        vehicle = self.vehicles[vehicle_id]
        x, y0, stride = self._motion[vehicle.lane]
        age = self.step - vehicle.spawn_step
        return (x, y0 + age * stride, vehicle.antenna_height)

    def advance(self) -> None:
        """Start the next step: tick the clock, drop lane heads that left, and their pair.

        A head's y is computed as in ``position``, from its lane's motion and its age.
        """
        self.step += 1
        self.clock += self.config.limits.time_step
        step, vehicles = self.step, self.vehicles
        bounds = self.config.bounds
        y_min, y_max = bounds.y_min, bounds.y_max
        for queue, (_, y0, stride) in zip(self.lanes, self._motion):
            while queue:
                y = y0 + (step - vehicles[queue[0]].spawn_step) * stride
                if y_min <= y <= y_max:
                    break
                del vehicles[queue.popleft()]
        pair = self.active_pair
        if pair is not None and (
            pair.tx_id not in self.vehicles or pair.rx_id not in self.vehicles
        ):
            self.active_pair = None

    def spawn_arrivals(self) -> None:
        """Spawn every vehicle whose arrival time is at or before the clock, lane 0 first."""
        now = self.clock
        for lane in (0, 1):
            while self._next_arrival[lane] <= now:
                height = self.rng.uniform(ANTENNA_HEIGHT_MIN, ANTENNA_HEIGHT_MAX)
                vehicle_id = self._next_vehicle_id
                self.vehicles[vehicle_id] = Vehicle(vehicle_id, lane, self.step, height)
                self.lanes[lane].append(vehicle_id)
                self._next_vehicle_id += 1
                self._next_arrival[lane] += self.rng.expovariate(self.config.arrival_rate)

    def maybe_start_pair(self) -> V2VPair | None:
        """Sample this step's pairing events and start a pair when possible.

        Events are discarded while a pair is already being served (one pair
        at a time) or when no opposite-lane partner exists.  The transmitter
        is drawn uniformly over all vehicles; the receiver is its nearest
        opposite-lane neighbor.
        """
        events = self.rng.poisson(self.config.v2v_rate)
        if events == 0 or self.active_pair is not None or not self.vehicles:
            return None
        ids = list(self.vehicles)
        tx = self.vehicles[ids[self.rng.randrange(len(ids))]]
        partners = self.lanes[1 - tx.lane]
        if not partners:
            return None
        tx_y = self.position(tx.id)[1]
        # Each partner's y as ``advance`` computes it, without building its position.
        step, vehicles = self.step, self.vehicles
        _, y0, stride = self._motion[1 - tx.lane]
        rx_id = min(
            partners, key=lambda v: (abs(y0 + (step - vehicles[v].spawn_step) * stride - tx_y), v)
        )
        self.active_pair = V2VPair(self.pairs_started, tx.id, rx_id, self.step)
        self.pairs_started += 1
        self.interferer_id = None
        if self.config.interferer_kind == INTERFERER_VEHICLE:
            bystanders = [v for v in ids if v not in (tx.id, rx_id)]
            if bystanders:
                self.interferer_id = bystanders[self.rng.randrange(len(bystanders))]
        return self.active_pair

    def interferer_position(self) -> tuple[float, float, float] | None:
        """Current interferer (x, y, z), or None when no interferer exists."""
        kind = self.config.interferer_kind
        if kind == INTERFERER_RSU:
            return self._rsu
        if kind == INTERFERER_VEHICLE and self.interferer_id in self.vehicles:
            return self.position(self.interferer_id)
        return None
