"""Two-lane highway scenario: arrivals, pairing events, constant-velocity motion.

Lane 0 runs along x = x_min in the +y direction, lane 1 along x = x_max in
the -y direction.  Vehicle arrivals per lane follow an exponential
inter-arrival process; communication events per step are Poisson counts,
and only one vehicle pair is served at a time.  All randomness flows
through one seeded generator in a fixed order (lane 0 arrivals, lane 1
arrivals, event count, pair draws), so a seed fully determines the trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .geometry import Vec3
from .planner import MotionLimits, WorldBounds
from .rng import SEED_LIMIT, SplitMix64

ANTENNA_HEIGHT_MIN = 1.5  # [m]
ANTENNA_HEIGHT_MAX = 2.0  # [m]

INTERFERER_RSU = "rsu"
INTERFERER_VEHICLE = "vehicle"
INTERFERER_NONE = "none"
INTERFERER_KINDS = (INTERFERER_RSU, INTERFERER_VEHICLE, INTERFERER_NONE)


@dataclass(frozen=True)
class Vehicle:
    """One vehicle; it enters its lane at spawn_step and moves at constant speed."""

    id: int
    lane: int  # 0: x = x_min, travels +y; 1: x = x_max, travels -y
    spawn_step: int
    antenna_height: float


@dataclass(frozen=True)
class V2VPair:
    id: int
    tx_id: int
    rx_id: int
    start_step: int


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario shape: rates, geometry, kinematics, interferer, seed."""

    arrival_rate: float = 0.2  # vehicles per second per lane
    v2v_rate: float = 0.02  # pairing events per step
    bounds: WorldBounds = field(default_factory=WorldBounds)
    limits: MotionLimits = field(default_factory=MotionLimits)
    rsu_position: Vec3 = field(default_factory=lambda: Vec3(250.0, 2500.0, 5.0))
    seed: int = 1
    interferer_kind: str = INTERFERER_RSU

    def __post_init__(self) -> None:
        if self.arrival_rate < 0.0:
            raise ValueError("scenario.arrival_rate must be >= 0")
        if self.v2v_rate < 0.0:
            raise ValueError("scenario.v2v_rate must be >= 0")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"scenario.seed must be in [0, 2**64), got {self.seed}")
        if self.interferer_kind not in INTERFERER_KINDS:
            raise ValueError(
                f"scenario.interferer must be one of {INTERFERER_KINDS}, got {self.interferer_kind!r}"
            )
        # The surface must stay strictly above every node it sees.
        z_min = self.bounds.z_min
        if ANTENNA_HEIGHT_MAX >= z_min:
            raise ValueError(
                f"bounds.z_min must exceed the highest vehicle antenna ({ANTENNA_HEIGHT_MAX} m)"
            )
        if self.interferer_kind == INTERFERER_RSU and self.rsu_position.z >= z_min:
            raise ValueError(
                f"scenario.rsu_z must be below bounds.z_min ({z_min} m), got {self.rsu_position.z}"
            )


class TrafficModel:
    """Owns the vehicle population, arrival clocks and the single active pair.

    Every vehicle in a lane enters at the same end and moves at the same
    speed, so each lane is a FIFO queue: its head is the vehicle nearest the
    exit, and a vehicle's position follows from its age in steps alone.
    """

    def __init__(self, config: ScenarioConfig, rng: SplitMix64) -> None:
        self.config = config
        self.rng = rng
        self.vehicles: dict[int, Vehicle] = {}  # by id, in spawn order
        self.active_pair: V2VPair | None = None
        self.interferer_id: int | None = None  # designated vehicle, vehicle mode only
        self.pairs_started = 0
        self.step = 0
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

    def position(self, vehicle_id: int) -> Vec3:
        """Current position of a vehicle on the road; z is its antenna height."""
        vehicle = self.vehicles[vehicle_id]
        x, y0, stride = self._motion[vehicle.lane]
        age = self.step - vehicle.spawn_step
        return Vec3(x, y0 + age * stride, vehicle.antenna_height)

    def advance(self) -> None:
        """Move one step: drop lane heads that left the segment, and a pair they served."""
        self.step += 1
        bounds = self.config.bounds
        for queue in self.lanes:
            while queue and not bounds.y_min <= self.position(queue[0]).y <= bounds.y_max:
                del self.vehicles[queue.popleft()]
        pair = self.active_pair
        if pair is not None and (
            pair.tx_id not in self.vehicles or pair.rx_id not in self.vehicles
        ):
            self.active_pair = None

    def spawn_arrivals(self, now: float) -> None:
        """Spawn every vehicle whose arrival time has passed, lane 0 first."""
        for lane in (0, 1):
            while self._next_arrival[lane] <= now:
                height = self.rng.uniform(ANTENNA_HEIGHT_MIN, ANTENNA_HEIGHT_MAX)
                vehicle_id = self._next_vehicle_id
                self.vehicles[vehicle_id] = Vehicle(vehicle_id, lane, self.step, height)
                self.lanes[lane].append(vehicle_id)
                self._next_vehicle_id += 1
                self._next_arrival[lane] += self.rng.expovariate(self.config.arrival_rate)

    def maybe_start_pair(self, step_index: int) -> V2VPair | None:
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
        tx_y = self.position(tx.id).y
        rx_id = min(partners, key=lambda v: (abs(self.position(v).y - tx_y), v))
        self.active_pair = V2VPair(self.pairs_started, tx.id, rx_id, step_index)
        self.pairs_started += 1
        self.interferer_id = None
        if self.config.interferer_kind == INTERFERER_VEHICLE:
            bystanders = [v for v in ids if v not in (tx.id, rx_id)]
            if bystanders:
                self.interferer_id = bystanders[self.rng.randrange(len(bystanders))]
        return self.active_pair

    def interferer_position(self) -> Vec3 | None:
        """Current interferer location, or None when no interferer exists."""
        kind = self.config.interferer_kind
        if kind == INTERFERER_RSU:
            return self.config.rsu_position
        if kind == INTERFERER_VEHICLE and self.interferer_id in self.vehicles:
            return self.position(self.interferer_id)
        return None
