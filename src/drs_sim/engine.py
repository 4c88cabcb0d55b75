"""Time-stepped simulation loop tying traffic, planning, yaw control and the link budget.

Each step advances traffic, moves the drone one bounded step toward the
current optimal hover point, then for each yaw arm optionally rotates the
surface to null the reflected interference and evaluates the served pair's
link, and verifies the kinematic and box constraints.  A constraint violation
raises: it indicates a bug in the controller, not a runtime condition.  Yaw
moves neither traffic nor the drone, so the arms share one trajectory: a run
evaluates one arm, and the paired sweep evaluates both in one pass per seed.
Within a step the arms also share each node's geometry and element pattern
and the desired hop's path loss, computed once on plain floats; an arm adds
only the yaw-dependent interference hop, the SINR and the rate.

The step loop is one generator of served steps with two consumers: a run
streams its arm's records (the CLI writes each as a CSV row) into a summary
that keeps only their rates, and the paired sweep keeps only each arm's
per-step rates.  Neither keeps a record once it is consumed.

The desired hop is beamformed (the element phases track the served pair),
so its array factor stays at unit magnitude regardless of yaw; interference
reflects passively and sees the yaw-dependent array factor.  This is why
rotating to cancel interference never costs desired-link rate.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from .channel import (
    NO_PATH,
    SINR_FORMS,
    SINR_FORM_STANDARD,
    RadioConfig,
    RisConfig,
    array_factor,
    direction_cosine_sums,
    fraunhofer_distance,
    path_loss,
    radiation_pattern,
    rate,
    sinr,
)
from .geometry import (
    AngularCoords,
    Pose,
    Vec3,
    local_azimuth,
    rotation_between,
    sight,
    step_displacement,
    wrap_angle,
)
from .nullsteer import NullSteerInput, select_rotation
from .planner import optimal_location, step_towards
from .rng import SplitMix64
from .traffic import ANTENNA_HEIGHT_MAX, INTERFERER_RSU, ScenarioConfig, TrafficModel

log = logging.getLogger("drs_sim")

# Mode recorded when no rotation was attempted (control off or no interferer).
MODE_OFF = "off"

DISPLACEMENT_TOL = 1e-9  # [m]
YAW_TOL = 1e-12  # [rad]


class ConstraintViolation(RuntimeError):
    """A per-step kinematic or box constraint was breached (controller bug)."""


@dataclass
class WorldState:
    """Mutable simulation state advanced by run_step."""

    clock: float
    step_index: int
    drs: Pose  # the first arm's pose
    traffic: TrafficModel
    arms: tuple[bool, ...]  # orientation control per yaw arm; an "on" arm comes first


@dataclass(slots=True)
class StepRecord:
    """Per-step metrics while a pair is being served."""

    step_index: int
    time_s: float
    pair_id: int
    cycle_index: int  # steps since the pair started
    tx_pos: Vec3
    rx_pos: Vec3
    drs: Pose
    alpha_applied: float
    null_mode: str
    pl_desired_db: float
    pl_interference_db: float
    sinr_db: float
    rate_bps: float
    control_on: bool


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run needs."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    radio: RadioConfig = field(default_factory=RadioConfig)
    ris: RisConfig = field(default_factory=RisConfig)
    steps: int = 10000
    orientation_control: bool = True
    sinr_form: str = SINR_FORM_STANDARD

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("run.steps must be >= 1")
        if self.sinr_form not in SINR_FORMS:
            raise ValueError(
                f"run.sinr_form must be one of {SINR_FORMS}, got {self.sinr_form!r}"
            )
        # The link budget is the far-field model: every node the surface sees
        # must be at least the Fraunhofer distance below it.
        scenario = self.scenario
        top = ANTENNA_HEIGHT_MAX
        if scenario.interferer_kind == INTERFERER_RSU:
            top = max(top, scenario.rsu_position.z)
        clearance = scenario.bounds.z_min - top
        far_field = fraunhofer_distance(self.ris)
        if clearance < far_field:
            raise ValueError(
                f"bounds.z_min must be at least the surface's far-field distance "
                f"({far_field:.6g} m) above the highest node ({top} m), "
                f"got {scenario.bounds.z_min}"
            )
        # Path loss grows with distance, elevation and array-factor loss, so
        # a hop straight down at the clearance (element pattern 1) with
        # |psi| = 1 and no interference bounds every rate the run can produce.
        pl_best = path_loss(self.ris, 1.0, 1.0, clearance, clearance, 1.0)
        if not math.isfinite(pl_best):
            raise ValueError(
                f"the best-case path loss (both nodes {clearance} m straight below the "
                "surface) is not finite: raise ris.gain_tx, ris.gain_rx, ris.gain_ris "
                "or ris.amplitude"
            )
        if not (
            pl_best > 0.0
            and math.isfinite(rate(self.radio, sinr(self.radio, pl_best, NO_PATH)))
        ):
            raise ValueError(
                f"the best-case rate (both nodes {clearance} m straight below the surface, "
                "no interference) overflows to inf: lower radio.tx_power or "
                "radio.eff_bandwidth, or raise radio.noise_power"
            )


def initial_state(config: SimConfig, arms: tuple[bool, ...] | None = None) -> WorldState:
    """Fresh world: empty road, drone centered at the flight-box floor, yaw 0."""
    scenario = config.scenario
    bounds = scenario.bounds
    start = Vec3(
        0.5 * (bounds.x_min + bounds.x_max),
        0.5 * (bounds.y_min + bounds.y_max),
        bounds.z_min,
    )
    return WorldState(
        clock=0.0,
        step_index=0,
        drs=Pose(start, 0.0),
        traffic=TrafficModel(scenario, SplitMix64(scenario.seed)),
        arms=(config.orientation_control,) if arms is None else arms,
    )


def db(linear: float) -> float:
    return 10.0 * math.log10(linear)


def _check_constraints(previous: Pose, current: Pose, config: SimConfig) -> None:
    limits = config.scenario.limits
    bounds = config.scenario.bounds
    moved = step_displacement(previous.position, current.position)
    if moved > limits.step_length + DISPLACEMENT_TOL:
        raise ConstraintViolation(
            f"displacement {moved:.9f} m exceeds budget {limits.step_length} m"
        )
    turned = rotation_between(previous, current)
    if turned > limits.yaw_budget + YAW_TOL:
        raise ConstraintViolation(
            f"yaw change {turned:.15f} rad exceeds budget {limits.yaw_budget} rad"
        )
    if not bounds.contains(current.position):
        raise ConstraintViolation(f"position {current.position} outside flight box")


def run_step(state: WorldState, config: SimConfig) -> list[StepRecord] | None:
    """Advance the world one step in place; return one record per arm while a pair is served.

    Order: (1) vehicles move and leavers despawn, (2) arrivals spawn and a
    pairing event may start service, (3) the drone steps toward the optimal
    hover point and the geometry every arm shares is computed once, then per
    arm (4) the surface rotates per the arm's null-steering rule and (5) the
    yaw-dependent interference hop is evaluated, (6) constraints are checked
    on the first arm's move, which covers every arm: all share the position
    and only the first may turn.
    """
    limits = config.scenario.limits
    previous = state.drs
    state.step_index += 1
    state.clock += limits.time_step

    traffic = state.traffic
    traffic.advance()
    traffic.spawn_arrivals(state.clock)
    traffic.maybe_start_pair(state.step_index)

    records = None
    pair = traffic.active_pair
    if pair is not None:
        ris = config.ris
        tx = traffic.position(pair.tx_id)
        rx = traffic.position(pair.rx_id)

        target = optimal_location(tx, rx, config.scenario.bounds)
        position = step_towards(previous.position, target, limits, config.scenario.bounds)
        theta_tx, _, dist_tx = sight(position, tx)
        theta_rx, bearing_rx, dist_rx = sight(position, rx)
        f_rx = radiation_pattern(theta_rx)
        # The desired hop is beamformed (|psi| = 1) and its loss is yaw-free.
        pl_desired = path_loss(ris, radiation_pattern(theta_tx), f_rx, dist_tx, dist_rx, 1.0)
        pl_desired_db = db(pl_desired)
        interferer = traffic.interferer_position()
        if interferer is not None:
            theta_i, bearing_i, dist_i = sight(position, interferer)
            f_i = radiation_pattern(theta_i)

        records = []
        for control in state.arms:
            yaw = previous.yaw if control else 0.0
            alpha, null_mode = 0.0, MODE_OFF
            if interferer is None:
                pl_interference = NO_PATH
            else:
                if control:
                    steer = select_rotation(NullSteerInput(
                        interferer=AngularCoords(theta_i, local_azimuth(bearing_i, yaw)),
                        receiver=AngularCoords(theta_rx, local_azimuth(bearing_rx, yaw)),
                        ris=ris,
                        alpha_bound=limits.yaw_budget,
                    ))
                    alpha, null_mode = steer.alpha, steer.mode
                    # Rotating the surface by alpha shifts local azimuths by
                    # +alpha, which corresponds to a yaw decrease of alpha.
                    yaw = wrap_angle(yaw - alpha)
                phi_i, phi_rx = local_azimuth(bearing_i, yaw), local_azimuth(bearing_rx, yaw)
                sums = direction_cosine_sums(theta_i, phi_i, theta_rx, phi_rx)
                psi_value = array_factor(ris, *sums)
                pl_interference = path_loss(ris, f_i, f_rx, dist_i, dist_rx, psi_value)

            sinr_value = sinr(config.radio, pl_desired, pl_interference, config.sinr_form)
            records.append(StepRecord(
                step_index=state.step_index,
                time_s=state.clock,
                pair_id=pair.id,
                cycle_index=state.step_index - pair.start_step,
                tx_pos=tx,
                rx_pos=rx,
                drs=Pose(position, yaw),
                alpha_applied=alpha,
                null_mode=null_mode,
                pl_desired_db=pl_desired_db,
                pl_interference_db=db(pl_interference),
                sinr_db=db(sinr_value) if sinr_value > 0.0 else -math.inf,
                rate_bps=rate(config.radio, sinr_value),
                control_on=control,
            ))
        state.drs = records[0].drs

    _check_constraints(previous, state.drs, config)
    return records


@dataclass(frozen=True)
class RunSummary:
    """The aggregates of one run that the experiment front end reports."""

    seed: int
    control_on: bool
    n_records: int
    n_pairs: int
    mean_rate_bps: float | None


def _mean(values: list[float]) -> float | None:
    return math.fsum(values) / len(values) if values else None


def summarize(config: SimConfig, records: Iterable[StepRecord]) -> RunSummary:
    """Aggregate a run's records in one pass, keeping only their rates and pair ids."""
    rates: list[float] = []
    pairs: set[int] = set()
    for record in records:
        rates.append(record.rate_bps)
        pairs.add(record.pair_id)
    return RunSummary(
        seed=config.scenario.seed,
        control_on=config.orientation_control,
        n_records=len(rates),
        n_pairs=len(pairs),
        mean_rate_bps=_mean(rates),
    )


def _simulate(config: SimConfig, arms: tuple[bool, ...]) -> Iterator[list[StepRecord]]:
    """Step one seed's shared trajectory, yielding every served step's per-arm records."""
    state = initial_state(config, arms)
    steps = (run_step(state, config) for _ in range(config.steps))
    return (records for records in steps if records is not None)


def simulate(config: SimConfig) -> Iterator[StepRecord]:
    """Yield the configured arm's record for every served step, as the step is run."""
    return (record for record, in _simulate(config, (config.orientation_control,)))


def run_simulation(config: SimConfig, seed: int | None = None) -> RunSummary:
    """Run the configured number of steps; deterministic for a fixed seed."""
    if seed is not None:
        config = replace(config, scenario=replace(config.scenario, seed=seed))
    return summarize(config, simulate(config))


@dataclass(frozen=True)
class PairedRun:
    """Same-seed comparison isolating the orientation-control effect."""

    seed: int
    mean_rate_on: float | None
    mean_rate_off: float | None

    @property
    def improvement_pct(self) -> float | None:
        if not self.mean_rate_on or not self.mean_rate_off:
            return None
        return 100.0 * (self.mean_rate_on - self.mean_rate_off) / self.mean_rate_off


def _paired_seed(config: SimConfig) -> PairedRun:
    rates_on, rates_off = [], []
    for on, off in _simulate(config, (True, False)):
        rates_on.append(on.rate_bps)
        rates_off.append(off.rate_bps)
    return PairedRun(config.scenario.seed, _mean(rates_on), _mean(rates_off))


def paired_sweep(
    config: SimConfig, seeds: Iterable[int], jobs: int | None = None
) -> list[PairedRun]:
    """Run control-on and control-off with identical traffic for every seed.

    One pass per seed steps traffic and the drone once and evaluates both yaw
    arms on that shared trajectory, so the rate difference is attributable to
    orientation control alone.  Seeds run in parallel processes when jobs > 1;
    results keep the input seed order.  Raises ValueError when jobs < 1.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    work = [replace(config, scenario=replace(config.scenario, seed=seed)) for seed in seeds]
    if jobs is None:
        jobs = min(len(work), os.cpu_count() or 1)
    if jobs > 1 and len(work) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                return list(pool.map(_paired_seed, work))
        except OSError as exc:
            log.warning(
                "process pool unavailable (%s); running %d seeds serially", exc, len(work)
            )
    return [_paired_seed(item) for item in work]


def aggregate_improvement(runs: Iterable[PairedRun]) -> tuple[float, float, float] | None:
    """Mean rate per mode across runs and the relative improvement percent.

    Runs with no served steps or a zero mean rate in either arm are left
    out, with one warning naming their seeds; returns None when nothing
    remains.
    """
    runs = list(runs)
    kept = [r for r in runs if r.mean_rate_on and r.mean_rate_off]
    dropped = [str(r.seed) for r in runs if not (r.mean_rate_on and r.mean_rate_off)]
    if dropped:
        log.warning(
            "aggregate leaves out %d run(s) with no served steps or a zero mean rate: seeds %s",
            len(dropped),
            ", ".join(dropped),
        )
    ons = [r.mean_rate_on for r in kept]
    offs = [r.mean_rate_off for r in kept]
    if not ons:
        return None
    mean_on = math.fsum(ons) / len(ons)
    mean_off = math.fsum(offs) / len(offs)
    return mean_on, mean_off, 100.0 * (mean_on - mean_off) / mean_off
