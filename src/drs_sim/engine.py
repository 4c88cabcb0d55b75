"""Time-stepped simulation loop tying traffic, planning, yaw control and the link budget.

Each step advances traffic, which keeps the run's step count and clock.
While a pair is served, the drone then moves one bounded step toward the
current optimal hover point; for each yaw arm the surface optionally rotates
to null the reflected interference, the served pair's link is evaluated, and
the kinematic and box constraints are verified.  A constraint violation
raises: it indicates a bug in the controller, not a runtime condition.  Yaw
moves neither traffic nor the drone, so the arms share one trajectory: a run
evaluates its configured arm, and a paired run (``paired=True``, as each
seed of the paired sweep) evaluates control on, then off, in one pass.
Within a step the arms also share each node's geometry and element pattern
and the desired hop's path loss, computed once on plain floats; an arm adds
only the yaw-dependent interference hop, the SINR and the rate.

The step loop is one generator of served steps' per-arm records, and one
reduction keeps only their rates and pair ids, one summary per arm: a run
streams its arm through it (the CLI writes each record as a CSV row on the
way), the paired sweep both arms.  No record is kept once consumed.

The desired hop is beamformed (the element phases track the served pair),
so its array factor stays at unit magnitude regardless of yaw; interference
reflects passively and sees the yaw-dependent array factor.  This is why
rotating to cancel interference never costs desired-link rate.
"""

from __future__ import annotations

import io
import logging
import marshal
import math
import os
import threading
import time
from collections import namedtuple
from collections.abc import Iterable, Iterator

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
    Pose,
    Value,
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


def replace(config, **changes):
    """Copy of a config object with ``changes`` applied, validated by its ``__init__``.

    Config objects are shared, default instances included, so none is
    changed in place: a changed config is always a copy.
    """
    return type(config)(**{**vars(config), **changes})


class StepRecord(Value):
    """Per-step metrics while a pair is being served."""

    __slots__ = (
        "step_index", "time_s", "pair_id", "cycle_index", "tx_pos", "rx_pos", "drs",
        "alpha_applied", "null_mode", "pl_desired_db", "pl_interference_db", "sinr_db",
        "rate_bps", "control_on",
    )

    def __init__(
        self,
        step_index: int,
        time_s: float,
        pair_id: int,
        cycle_index: int,  # steps since the pair started
        tx_pos: Vec3,
        rx_pos: Vec3,
        drs: Pose,
        alpha_applied: float,
        null_mode: str,
        pl_desired_db: float,
        pl_interference_db: float,
        sinr_db: float,
        rate_bps: float,
        control_on: bool,
    ) -> None:
        self.step_index = step_index
        self.time_s = time_s
        self.pair_id = pair_id
        self.cycle_index = cycle_index
        self.tx_pos = tx_pos
        self.rx_pos = rx_pos
        self.drs = drs
        self.alpha_applied = alpha_applied
        self.null_mode = null_mode
        self.pl_desired_db = pl_desired_db
        self.pl_interference_db = pl_interference_db
        self.sinr_db = sinr_db
        self.rate_bps = rate_bps
        self.control_on = control_on


class SimConfig:
    """Everything one simulation run needs."""

    def __init__(
        self,
        scenario: ScenarioConfig = ScenarioConfig(),
        radio: RadioConfig = RadioConfig(),
        ris: RisConfig = RisConfig(),
        steps: int = 10000,
        orientation_control: bool = True,
        sinr_form: str = SINR_FORM_STANDARD,
    ) -> None:
        self.scenario, self.radio, self.ris = scenario, radio, ris
        self.steps, self.orientation_control, self.sinr_form = steps, orientation_control, sinr_form
        if self.steps < 1:
            raise ValueError("run.steps must be >= 1")
        if self.sinr_form not in SINR_FORMS:
            raise ValueError(
                f"run.sinr_form must be one of {SINR_FORMS}, got {self.sinr_form!r}"
            )
        # The link budget is the far-field model: every node the surface sees must be
        # at least the Fraunhofer distance (> 0) below it, so the surface is above them all.
        top, node = ANTENNA_HEIGHT_MAX, "the highest vehicle antenna"
        if scenario.interferer_kind == INTERFERER_RSU and scenario.rsu_position.z > top:
            top, node = scenario.rsu_position.z, "scenario.rsu_z"
        clearance = scenario.bounds.z_min - top
        far_field = fraunhofer_distance(self.ris)
        if clearance < far_field:
            raise ValueError(
                f"bounds.z_min must be at least the surface's far-field distance "
                f"({far_field:.6g} m) above {node} ({top} m), got {scenario.bounds.z_min}"
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


def _arms(config: SimConfig, paired: bool) -> tuple[bool, ...]:
    """Orientation control per yaw arm: the configured arm, or on then off when paired.

    The drone carries the first arm's pose, so an "on" arm comes first whenever one runs.
    """
    return (True, False) if paired else (config.orientation_control,)


def run_step(
    traffic: TrafficModel, drs: Pose, config: SimConfig, paired: bool = False
) -> list[StepRecord] | None:
    """Take one step from pose ``drs``; return one record per arm while a pair is served.

    Order: (1) traffic ticks its clock, vehicles move and leavers despawn,
    (2) arrivals spawn and a pairing event may start service; on a served
    step (3) the drone steps toward the optimal hover point and the geometry
    every arm shares is computed once, then per arm (4) the surface rotates
    per the arm's null-steering rule and (5) the yaw-dependent interference
    hop is evaluated, and (6) constraints are checked on the first arm's move.
    That covers every arm: all share the position and only the first may
    turn.  The drone moves only on served steps, and its next pose is the
    first record's ``drs``.
    """
    traffic.advance()
    traffic.spawn_arrivals()
    traffic.maybe_start_pair()
    pair = traffic.active_pair
    if pair is None:
        return None

    limits = config.scenario.limits
    ris = config.ris
    tx = traffic.position(pair.tx_id)
    rx = traffic.position(pair.rx_id)

    target = optimal_location(tx, rx, config.scenario.bounds)
    position = step_towards(drs.position, target, limits, config.scenario.bounds)
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
    for control in _arms(config, paired):
        yaw = drs.yaw if control else 0.0
        alpha, null_mode = 0.0, MODE_OFF
        if interferer is None:
            pl_interference = NO_PATH
        else:
            if control:
                steer = select_rotation(NullSteerInput(  # positional, in field order
                    theta_i, local_azimuth(bearing_i, yaw),  # interferer
                    theta_rx, local_azimuth(bearing_rx, yaw),  # receiver
                    ris, limits.yaw_budget,  # alpha_bound
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
        records.append(StepRecord(  # positional, in field order
            traffic.step,  # step_index
            traffic.clock,  # time_s
            pair.id,
            traffic.step - pair.start_step,  # cycle_index
            tx,
            rx,
            Pose(position, yaw),  # drs
            alpha,  # alpha_applied
            null_mode,
            pl_desired_db,
            db(pl_interference),
            db(sinr_value) if sinr_value > 0.0 else -math.inf,  # sinr_db
            rate(config.radio, sinr_value),  # rate_bps
            control,  # control_on
        ))

    _check_constraints(drs, records[0].drs, config)
    return records


RunSummary = namedtuple(
    "RunSummary", ["seed", "control_on", "n_records", "n_pairs", "mean_rate_bps"]
)
RunSummary.__doc__ = """The aggregates of one arm of a run that the experiment front end reports.

``seed`` (int), ``control_on`` (bool), ``n_records`` and ``n_pairs`` (int),
``mean_rate_bps`` (float, or None when the arm served no step).
"""


def _mean(values: list[float]) -> float | None:
    return math.fsum(values) / len(values) if values else None


def simulate(config: SimConfig, paired: bool = False) -> Iterator[list[StepRecord]]:
    """Step one seed's shared trajectory, yielding every served step's records, one per arm.

    The road starts empty and the drone at the centre of the flight box's
    floor, yaw 0.  The arms are the configured one, or on then off when
    ``paired``.
    """
    scenario = config.scenario
    bounds = scenario.bounds
    traffic = TrafficModel(scenario, SplitMix64(scenario.seed))
    drs = Pose(Vec3(
        0.5 * (bounds.x_min + bounds.x_max), 0.5 * (bounds.y_min + bounds.y_max), bounds.z_min
    ), 0.0)
    for _ in range(config.steps):
        records = run_step(traffic, drs, config, paired)
        if records is not None:
            drs = records[0].drs
            yield records


def summarize(
    config: SimConfig, steps: Iterable[list[StepRecord]], paired: bool = False
) -> list[RunSummary]:
    """One summary per arm of ``simulate(config, paired)``, keeping only rates and pair ids.

    Raises ValueError when the last step's records are not one per arm, in
    arm order: the steps came from another config or ``paired``.
    """
    arms = _arms(config, paired)
    rates: list[list[float]] = [[] for _ in arms]
    pairs: set[int] = set()
    records: list[StepRecord] = []
    for records in steps:
        pairs.add(records[0].pair_id)
        for kept, record in zip(rates, records):
            kept.append(record.rate_bps)
    got = tuple(record.control_on for record in records)
    if records and got != arms:
        raise ValueError(
            f"summarize(paired={paired}) expects records with control {arms} per step, "
            f"got {got}: pass simulate and summarize the same config and paired"
        )
    return [
        RunSummary(config.scenario.seed, control, len(kept), len(pairs), _mean(kept))
        for control, kept in zip(arms, rates)
    ]


def run_simulation(config: SimConfig, seed: int | None = None) -> RunSummary:
    """Run the configured number of steps; deterministic for a fixed seed."""
    if seed is not None:
        config = replace(config, scenario=replace(config.scenario, seed=seed))
    return summarize(config, simulate(config))[0]


def improvement_pct(mean_on: float | None, mean_off: float | None) -> float | None:
    """Relative rate gain of control on over off in percent; None unless both means are nonzero."""
    if not mean_on or not mean_off:
        return None
    return 100.0 * (mean_on - mean_off) / mean_off


def _paired_seed(config: SimConfig) -> tuple[RunSummary, RunSummary]:
    start = time.perf_counter()
    on, off = summarize(config, simulate(config, paired=True), paired=True)
    elapsed = time.perf_counter() - start
    log.info(
        "seed %d: %d steps (%d served) in %.3f s, %.0f steps/s",
        config.scenario.seed, config.steps, on.n_records, elapsed, config.steps / elapsed,
    )
    return on, off


def _fork_share(share: list[SimConfig]) -> tuple[int, io.BufferedReader]:
    """Fork a child that runs ``share`` and pipes back its results; returns (pid, read end).

    The child writes one marshal blob of each seed's ``(on, off)`` summaries
    as plain tuples and leaves through ``os._exit``, with status 0 only once
    the blob is written.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            blob = marshal.dumps([tuple(map(tuple, _paired_seed(item))) for item in share])
            with open(write_fd, "wb") as pipe:
                pipe.write(blob)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def paired_sweep(
    config: SimConfig, seeds: Iterable[int], jobs: int | None = None
) -> list[tuple[RunSummary, RunSummary]]:
    """Run control-on and control-off with identical traffic: (on, off) summaries per seed.

    One pass per seed steps traffic and the drone once and evaluates both yaw
    arms on that shared trajectory, so the rate difference is attributable to
    orientation control alone.  Seeds run in min(jobs, seeds, cores) forked
    worker processes when that is more than one (jobs None adds no cap of its
    own): worker w runs seeds[w::workers].  A share whose worker cannot be
    forked, fails or sends nothing runs serially here after one warning; the
    simulation is deterministic, so an error a worker hit is raised again.
    Results keep the input seed order.  Raises ValueError when jobs < 1.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    work = [replace(config, scenario=replace(config.scenario, seed=seed)) for seed in seeds]
    workers = min(jobs or len(work), len(work), os.cpu_count() or 1)
    runs: list[tuple[RunSummary, RunSummary] | None] = [None] * len(work)
    problems: list[str] = []
    forked = 0
    if workers > 1:
        if not hasattr(os, "fork"):
            problems.append("os.fork is not available")
        elif threading.active_count() > 1:
            # A forked child holds only the calling thread, and any lock another thread held.
            problems.append(f"the process runs {threading.active_count()} threads")
        children = []  # (worker, pid, read end of its pipe)
        received: dict[int, bytes] = {}
        try:
            for w in range(0 if problems else workers):  # no fork once a problem is known
                try:
                    children.append((w, *_fork_share(work[w::workers])))
                except OSError as exc:
                    problems.append(f"cannot fork worker {w}: {exc}")
                    break
            for w, _, pipe in children:
                received[w] = pipe.read()
        finally:
            for w, pid, pipe in children:
                pipe.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code:
                    problems.append(f"worker {w} exited with status {code}")
                    received.pop(w, None)
        for w, blob in received.items():
            if blob:
                runs[w::workers] = [tuple(map(RunSummary._make, r)) for r in marshal.loads(blob)]
                forked += 1
            else:
                problems.append(f"worker {w} sent no results")
    missing = [i for i, run in enumerate(runs) if run is None]
    if problems:
        log.warning("%s; running %d seeds serially", "; ".join(problems), len(missing))
    for i in missing:
        runs[i] = _paired_seed(work[i])
    if forked:
        log.info("%d seeds ran in %d forked worker processes", len(work) - len(missing), forked)
    if missing or not forked:
        log.info("%d seeds ran serially", len(missing))
    return runs


def aggregate_improvement(
    runs: Iterable[tuple[RunSummary, RunSummary]],
) -> tuple[float, float, float] | None:
    """Mean rate per arm across (on, off) runs and the relative improvement percent.

    Runs whose ``improvement_pct`` is None (no served steps or a zero mean
    rate in either arm) are left out, with one warning naming their seeds;
    returns None when nothing remains.
    """
    rows = [(on.seed, on.mean_rate_bps, off.mean_rate_bps) for on, off in runs]
    kept = [means for _, *means in rows if improvement_pct(*means) is not None]
    dropped = [str(seed) for seed, *means in rows if improvement_pct(*means) is None]
    if dropped:
        log.warning(
            "aggregate leaves out %d run(s) with no served steps or a zero mean rate: seeds %s",
            len(dropped),
            ", ".join(dropped),
        )
    if not kept:
        return None
    mean_on, mean_off = (_mean(arm) for arm in zip(*kept))
    return mean_on, mean_off, improvement_pct(mean_on, mean_off)
