"""Time-stepped simulation loop tying traffic, planning, yaw control and the link budget.

A run is two loops, as the model's two decisions are.  ``trajectory``
advances traffic, which keeps the run's step count and clock; while a pair
is served, the drone moves one bounded step toward the current optimal
hover point, and the geometry every yaw arm shares is computed once on
plain floats: each node's sight and element pattern, and the desired hop's
path loss.  Neither traffic nor the drone's path reads the yaw, so the
trajectory yields one tuple of plain numbers per served step, in lists of
STEPS_PER_BATCH, and owns no pose.  ``run_step`` then evaluates one such
step from the current pose, an (x, y, z, yaw) tuple: for each yaw arm the
surface optionally rotates to null the reflected interference, and the arm
adds only the yaw-dependent interference hop, the SINR and the rate, into
one ``StepRecord``, whose fields are the steps.csv columns; the kinematic
and box constraints are verified.  A constraint violation raises: it
indicates a bug in the controller, not a runtime condition.  The arms share one trajectory: a run evaluates its configured
arm, and a paired run (``paired=True``, as each seed of the paired sweep)
evaluates control on, then off, in one pass.

``simulate`` is the generator of served steps' per-arm records, and one
reduction keeps only their rates and pair ids, one summary per arm: a run
streams its arm through it (the CLI writes each record's steps.csv row on
the way), the paired sweep both arms.  No record is kept once consumed.
A batch is stepped whole before its yaw arms are evaluated: alternating the
two phases at every step costs about a quarter of a paired seed's time.
``drs-sim run`` passes ``simulate`` the batches of ``trajectory_ahead``.

The desired hop is beamformed (the element phases track the served pair),
so its array factor stays at unit magnitude regardless of yaw; interference
reflects passively and sees the yaw-dependent array factor.  This is why
rotating to cancel interference never costs desired-link rate.
"""

from __future__ import annotations

import contextlib
import io
import marshal
import math
import os
import sys
import threading
import time
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .channel import (
    NO_PATH,
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
from .geometry import sight, step_displacement, wrap_angle
from .nullsteer import NullSteerInput, select_rotation
from .planner import optimal_location, step_towards
from .rng import SplitMix64
from .traffic import ANTENNA_HEIGHT_MAX, INTERFERER_RSU, ScenarioConfig, TrafficModel

# DRS_SIM_LOG values, matched case-insensitively, from most to least verbose.
LOG_LEVELS = ("debug", "info", "warning", "error")

# Mode recorded when no rotation was attempted (control off or no interferer).
MODE_OFF = "off"

DISPLACEMENT_TOL = 1e-9  # [m]
YAW_TOL = 1e-12  # [rad]

# Served steps per list ``trajectory`` yields: a batch is stepped whole before
# its yaw arms are evaluated, and ``trajectory_ahead``'s producer sends one a frame.
STEPS_PER_BATCH = 64

# Fewest steps a run needs for ``trajectory_ahead`` to fork its producer; in a
# shorter run the fork's fixed cost (2.1-3.4 ms to fork and reap a child of a
# process holding a run's heap) outweighs the work it moves.  Default config
# forked vs stepped in process, 10 alternated pairs per run length (2-core Xeon,
# Python 3.11.7): wall +9 % at 600 steps, +5 % at 800, level at 1200, -9 % at
# 2000; CPU +16 to +20 % at every length.  24 batches is above that break-even
# and below the 2000-step golden runs, so they fork; the 400-step fallback_scan
# benchmark steps in process.
FORK_STEPS = 24 * STEPS_PER_BATCH  # 1536


class ConstraintViolation(RuntimeError):
    """A per-step kinematic or box constraint was breached (controller bug)."""


def log(level: str, message: str) -> None:
    """Write ``LEVEL:drs_sim:message`` to stderr when DRS_SIM_LOG shows ``level``.

    ``level`` is one of LOG_LEVELS.  DRS_SIM_LOG is read at each call and
    shows its own level and the ones after it; unset or unknown, it is
    "warning".  The line is one write to the current ``sys.stderr``, so a
    redirect captures it and a forked worker's line is out (stderr is
    line-buffered) before the worker exits.  A line that cannot be written,
    stderr closed included, does not stop the run.
    """
    shown = os.environ.get("DRS_SIM_LOG", "warning").lower()
    if LOG_LEVELS.index(level) < LOG_LEVELS.index(shown if shown in LOG_LEVELS else "warning"):
        return
    line = f"{level.upper()}:drs_sim:{message}\n"
    try:
        sys.stderr.write(line)
    except (AttributeError, OSError):  # sys.stderr is None when fd 2 was closed at start
        pass


def replace(config, **changes):
    """Copy of a config object with ``changes`` applied, validated by its ``__init__``.

    Config objects are shared, default instances included, so none is
    changed in place: a changed config is always a copy.
    """
    return type(config)(**{**vars(config), **changes})


StepRecord = namedtuple("StepRecord", [
    "step", "time_s", "pair_id", "cycle_index", "tx_x", "tx_y", "rx_x", "rx_y",
    "drs_x", "drs_y", "drs_z", "drs_yaw_rad", "alpha_rad", "null_mode",
    "pl_desired_db", "pl_interf_db", "sinr_db", "rate_bps", "control",
])
StepRecord.__doc__ = """One yaw arm's metrics at a served step: one steps.csv row, field for column.

``cycle_index`` counts the steps since the pair started; ``control`` is
"on" or "off".  ``(drs_x, drs_y, drs_z, drs_yaw_rad)`` is the drone's pose.
"""


class SimConfig:
    """Everything one simulation run needs."""

    def __init__(
        self,
        scenario: ScenarioConfig = ScenarioConfig(),
        radio: RadioConfig = RadioConfig(),
        ris: RisConfig = RisConfig(),
        steps: int = 10000,
        orientation_control: bool = True,
        sinr_form: str = "standard",
    ) -> None:
        self.scenario, self.radio, self.ris = scenario, radio, ris
        self.steps, self.orientation_control, self.sinr_form = steps, orientation_control, sinr_form
        if self.steps < 1:
            raise ValueError("run.steps must be >= 1")
        if self.sinr_form != "standard":
            raise ValueError(f"run.sinr_form must be 'standard', got {self.sinr_form!r}")
        # The link budget is the far-field model: every node the surface sees must be
        # at least the Fraunhofer distance (> 0) below it, so the surface is above them all.
        top, node = ANTENNA_HEIGHT_MAX, "the highest vehicle antenna"
        if scenario.interferer_kind == INTERFERER_RSU and scenario.rsu_z > top:
            top, node = scenario.rsu_z, "scenario.rsu_z"
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
        if not pl_best > 0.0:
            raise ValueError(
                f"the best-case path loss (both nodes {clearance} m straight below the "
                "surface) is 0, as the surface's gain overflows: lower ris.gain_tx, "
                "ris.gain_rx or ris.gain_ris"
            )
        if not math.isfinite(rate(self.radio, sinr(self.radio, pl_best, NO_PATH))):
            raise ValueError(
                f"the best-case rate (both nodes {clearance} m straight below the surface, "
                "no interference) overflows to inf: lower radio.tx_power or "
                "radio.eff_bandwidth, or raise radio.noise_power"
            )
        # The closest pair the lanes allow (one vehicle on each, at the same y),
        # served from its hover point with no interference, must get a rate
        # above 0: lanes farther apart than that leave a run of zero rates.
        bounds = scenario.bounds
        tx = (bounds.x_min, bounds.y_min, ANTENNA_HEIGHT_MAX)
        rx = (bounds.x_max, bounds.y_min, ANTENNA_HEIGHT_MAX)
        hover = optimal_location(tx, rx, bounds)
        theta_tx, _, dist_tx = sight(hover, tx)
        theta_rx, _, dist_rx = sight(hover, rx)
        f_tx, f_rx = radiation_pattern(theta_tx), radiation_pattern(theta_rx)
        pl_pair = path_loss(self.ris, f_tx, f_rx, dist_tx, dist_rx, 1.0)
        if not math.isfinite(pl_pair) or not rate(self.radio, sinr(self.radio, pl_pair, NO_PATH)):
            raise ValueError(
                f"the lanes at bounds.x_min = {bounds.x_min!r} and bounds.x_max = "
                f"{bounds.x_max!r} are too far apart: a pair on both at the same y, served from "
                f"its hover point with no interference, gets rate 0 (path loss {pl_pair:.6g}); "
                "bring bounds.x_min and bounds.x_max closer, or raise radio.tx_power or lower "
                "radio.noise_power"
            )


def db(linear: float) -> float:
    return 10.0 * math.log10(linear)


def _check_constraints(previous: tuple, current: tuple, config: SimConfig) -> None:
    """Raise ConstraintViolation unless the move between two (x, y, z, yaw) poses is allowed.

    The yaw change is the wrapped difference, so a turn across the ±pi seam
    counts its true size.
    """
    limits = config.scenario.limits
    bounds = config.scenario.bounds
    moved = step_displacement(previous, current)
    if moved > limits.step_length + DISPLACEMENT_TOL:
        raise ConstraintViolation(
            f"displacement {moved:.9f} m exceeds budget {limits.step_length} m"
        )
    x, y, z, yaw = current
    turned = abs(wrap_angle(previous[3] - yaw))
    if turned > limits.yaw_budget + YAW_TOL:
        raise ConstraintViolation(
            f"yaw change {turned:.15f} rad exceeds budget {limits.yaw_budget} rad"
        )
    if not bounds.contains(x, y, z):
        raise ConstraintViolation(f"position (x={x!r}, y={y!r}, z={z!r}) outside flight box")


def _arms(config: SimConfig, paired: bool) -> tuple[bool, ...]:
    """Orientation control per yaw arm: the configured arm, or on then off when paired.

    The drone carries the first arm's pose, so an "on" arm comes first whenever one runs.
    """
    return (True, False) if paired else (config.orientation_control,)


def _start_pose(config: SimConfig) -> tuple[float, float, float, float]:
    """Where every run starts, as (x, y, z, yaw): the centre of the flight box's floor, yaw 0."""
    bounds = config.scenario.bounds
    return (
        0.5 * (bounds.x_min + bounds.x_max), 0.5 * (bounds.y_min + bounds.y_max), bounds.z_min,
        0.0,
    )


def trajectory(config: SimConfig) -> Iterator[list[tuple]]:
    """The yaw-free part of every served step, in step order, as lists of STEPS_PER_BATCH.

    Each list holds one tuple per served step; the last list may be shorter,
    and a run that serves no step yields none.

    A step is (1) traffic ticks its clock, vehicles move and leavers despawn,
    (2) arrivals spawn and a pairing event may start service; on a served
    step (3) the drone moves one bounded step toward the optimal hover point
    and the geometry every yaw arm shares is computed once.  Neither traffic
    nor the drone's path reads the yaw, so this owns both: the road starts
    empty and the drone at ``_start_pose(config)``'s position.  Every point
    (the vehicles', the interferer's, the hover target and the drone's
    position) is a plain (x, y, z) tuple.  Each tuple yielded is
    (step, time_s, pair_id, cycle_index, tx_x, tx_y, rx_x, rx_y, drs_x,
    drs_y, drs_z, pl_desired, pl_desired_db, hop): its first eleven items are
    the first eleven fields of the step's records, the desired hop is
    beamformed (|psi| = 1) so its path loss is yaw-free, and ``hop`` is None
    without an interferer, else what the interference hop needs: the
    interferer's, then the receiver's ``sight`` (elevation, bearing,
    distance), each followed by its elevation's sine and element pattern.
    Every item is an int, a float, None or a tuple of them, so ``marshal``
    sends a batch as it is.
    """
    scenario = config.scenario
    bounds, limits, ris = scenario.bounds, scenario.limits, config.ris
    traffic = TrafficModel(scenario, SplitMix64(scenario.seed))
    position = _start_pose(config)[:3]
    batch = []
    for _ in range(config.steps):
        traffic.advance()
        traffic.spawn_arrivals()
        traffic.maybe_start_pair()
        pair = traffic.active_pair
        if pair is None:
            continue
        tx = traffic.position(pair.tx_id)
        rx = traffic.position(pair.rx_id)
        target = optimal_location(tx, rx, bounds)
        position = step_towards(position, target, limits, bounds)
        theta_tx, _, dist_tx = sight(position, tx)
        theta_rx, bearing_rx, dist_rx = sight(position, rx)
        f_rx = radiation_pattern(theta_rx)
        pl_desired = path_loss(ris, radiation_pattern(theta_tx), f_rx, dist_tx, dist_rx, 1.0)
        interferer = traffic.interferer_position()
        if interferer is None:
            hop = None
        else:
            theta_i, bearing_i, dist_i = sight(position, interferer)
            hop = (
                theta_i, bearing_i, dist_i, math.sin(theta_i), radiation_pattern(theta_i),
                theta_rx, bearing_rx, dist_rx, math.sin(theta_rx), f_rx,
            )
        batch.append((
            traffic.step, traffic.clock, pair.id, traffic.step - pair.start_step,
            tx[0], tx[1], rx[0], rx[1], position[0], position[1], position[2],
            pl_desired, db(pl_desired), hop,
        ))
        if len(batch) == STEPS_PER_BATCH:
            yield batch
            batch = []
    if batch:
        yield batch


def run_step(step: tuple, drs: tuple, config: SimConfig, paired: bool = False) -> list[StepRecord]:
    """The records of one ``trajectory`` step from pose ``drs`` (x, y, z, yaw), one per arm.

    Per arm (4) the surface rotates per the arm's null-steering rule and (5)
    the yaw-dependent interference hop, the SINR and the rate are evaluated;
    then (6) constraints are checked on the first arm's move.  That covers
    every arm: all share the position and only the first may turn.  The
    drone's next pose is the first record's (drs_x, drs_y, drs_z, drs_yaw_rad).
    """
    (
        step_index, time_s, pair_id, cycle_index, tx_x, tx_y, rx_x, rx_y, x, y, z,
        pl_desired, pl_desired_db, hop,
    ) = step
    ris, radio = config.ris, config.radio
    if hop is not None:
        theta_i, bearing_i, dist_i, sin_i, f_i, theta_rx, bearing_rx, dist_rx, sin_rx, f_rx = hop

    records = []
    for control in _arms(config, paired):
        yaw = drs[3] if control else 0.0
        alpha, null_mode = 0.0, MODE_OFF
        if hop is None:
            pl_interference = NO_PATH
        else:
            if control:
                steer = select_rotation(NullSteerInput(  # positional, in field order
                    theta_i, bearing_i - yaw,  # interferer
                    theta_rx, bearing_rx - yaw,  # receiver
                    ris, config.scenario.limits.yaw_budget,  # alpha_bound
                    sin_i, sin_rx,
                ))
                alpha, null_mode = steer.alpha, steer.mode
                # Rotating the surface by alpha shifts local azimuths by
                # +alpha, which corresponds to a yaw decrease of alpha.
                yaw = wrap_angle(yaw - alpha)
            phi_i, phi_rx = wrap_angle(bearing_i - yaw), wrap_angle(bearing_rx - yaw)
            ux, uy = direction_cosine_sums(sin_i, phi_i, sin_rx, phi_rx)
            psi_value = array_factor(ris, ux, uy)
            pl_interference = path_loss(ris, f_i, f_rx, dist_i, dist_rx, psi_value)

        sinr_value = sinr(radio, pl_desired, pl_interference)
        records.append(StepRecord._make((  # in field order
            step_index, time_s, pair_id, cycle_index, tx_x, tx_y, rx_x, rx_y, x, y, z,
            yaw,  # drs_yaw_rad
            alpha,  # alpha_rad
            null_mode,
            pl_desired_db,
            db(pl_interference),  # pl_interf_db
            db(sinr_value) if sinr_value > 0.0 else -math.inf,  # sinr_db
            rate(radio, sinr_value),  # rate_bps
            "on" if control else "off",  # control
        )))

    _check_constraints(drs, records[0][8:12], config)
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


def simulate(
    config: SimConfig, paired: bool = False, batches: Iterable[list[tuple]] | None = None
) -> Iterator[list[StepRecord]]:
    """Follow one seed's shared trajectory, yielding every served step's records, one per arm.

    The arms are the configured one, or on then off when ``paired``.  The
    steps come from ``batches``, which defaults to ``trajectory(config)``
    stepped here (``drs-sim run`` passes ``trajectory_ahead(config)``); each
    batch is stepped whole before its steps' arms are evaluated.
    """
    drs = _start_pose(config)
    for batch in trajectory(config) if batches is None else batches:
        for step in batch:
            records = run_step(step, drs, config, paired)
            drs = records[0][8:12]
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
    expected = tuple("on" if control else "off" for control in arms)
    got = tuple(record.control for record in records)
    if records and got != expected:
        raise ValueError(
            f"summarize(paired={paired}) expects records with control {expected} per step, "
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
    log(
        "info",
        f"seed {config.scenario.seed}: {config.steps} steps ({on.n_records} served) "
        f"in {elapsed:.3f} s, {config.steps / elapsed:.0f} steps/s",
    )
    return on, off


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask's, or os.cpu_count() without one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_refusal() -> str | None:
    """Why this process should not ``fork_child`` a helper, or None when it may.

    The one fork decision of the sweep's workers and ``trajectory_ahead``'s
    producer.  A forked child holds only the calling thread, and any lock
    another thread held; on one CPU it only competes with its parent.
    """
    if not hasattr(os, "fork"):
        return "os.fork is not available"
    if threading.active_count() > 1:
        return f"the process runs {threading.active_count()} threads"
    if _usable_cpus() < 2:
        return "the process may run on one CPU"
    return None


class Child(contextlib.AbstractContextManager):
    """A ``fork_child``: iterating it reads its frames; leaving its ``with`` block reaps it.

    The frames end at the end of the pipe or at a frame cut off inside its
    length or blob.  Leaving the block closes the pipe, read to the end or
    not (a child still sending exits 1 at its next write), and sets
    ``status`` to the exit status.  Leaving it on an exception first kills
    the child, so it is not waited for; nobody reads that status.
    """

    def __init__(self, pid: int, outbox: io.BufferedReader) -> None:
        self.pid, self.outbox, self.status = pid, outbox, None

    def __iter__(self) -> Iterator[object]:
        read = self.outbox.read
        while len(head := read(8)) == 8:
            size = int.from_bytes(head, "little")
            blob = read(size)
            if len(blob) < size:
                return
            yield marshal.loads(blob)

    def __exit__(self, exc_type, *_) -> None:
        try:
            if exc_type is not None:
                import signal  # here only: imported at module level, it slows every start-up

                os.kill(self.pid, signal.SIGKILL)
            self.outbox.close()
        finally:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def fork_child(frames: Iterable[object]) -> Child:
    """Fork a child that sends each item of ``frames`` up a pipe; returns it as a ``Child``.

    Only the child iterates ``frames``, so a generator made here runs in the
    child alone.  A frame goes as its ``marshal.dumps`` blob after the blob's
    length (8 bytes, little-endian); iterating the ``Child`` reads them back.
    The child leaves through ``os._exit``: status 0 only once every frame is
    written.
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
            with open(write_fd, "wb") as outbox:
                for frame in frames:
                    blob = marshal.dumps(frame)
                    outbox.write(len(blob).to_bytes(8, "little") + blob)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return Child(pid, open(read_fd, "rb"))


def trajectory_ahead(config: SimConfig) -> Iterator[list[tuple]]:
    """``trajectory(config)``'s batches, run ahead of their consumer by a forked producer.

    Before any step, when the run has at least FORK_STEPS steps and
    ``fork_refusal()`` allows, ``fork_child`` forks a producer that sends
    each batch as one frame, while the consumer evaluates the yaw arms of
    the batches it has; the pipe holds a few batches, so the producer runs
    at most that far ahead.  Otherwise (logged at info), or when the fork
    fails (after one warning), the trajectory is stepped here.  Either way
    the batches are the same.  The producer is held by one ``with``: read
    to the end, it is reaped, and one that died raises OSError naming its
    exit status; closing this generator early, on an error or interrupt in
    the consumer, kills and reaps it.
    """
    if config.steps < FORK_STEPS:
        refusal = f"the run has only {config.steps} steps"
    else:
        refusal = fork_refusal()
    if refusal is not None:
        log("info", f"{refusal}; the trajectory is stepped in process")
    else:
        try:
            producer = fork_child(trajectory(config))
        except OSError as exc:
            log("warning", f"cannot fork the trajectory producer: {exc}; stepping it in process")
        else:
            with producer:
                yield from producer
            if producer.status:
                raise OSError(f"the trajectory producer exited with status {producer.status}")
            return
    yield from trajectory(config)


def paired_sweep(
    config: SimConfig, seeds: Iterable[int], jobs: int | None = None
) -> list[tuple[RunSummary, RunSummary]]:
    """Run control-on and control-off with identical traffic: (on, off) summaries per seed.

    One pass per seed steps traffic and the drone once and evaluates both yaw
    arms on that shared trajectory, so the rate difference is attributable to
    orientation control alone.  Seeds run in min(jobs, seeds, CPUs the process
    may run on) worker processes when that is more than one (jobs None adds no cap of its
    own): worker w, a ``fork_child``, runs seeds[w::workers] and sends each
    seed's summaries as one frame of plain tuples.  A share whose worker cannot be
    forked or fails runs serially here after one warning; the simulation is
    deterministic, so an error a worker hit is raised again.
    Results keep the input seed order.  Raises ValueError when jobs < 1.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    work = [replace(config, scenario=replace(config.scenario, seed=seed)) for seed in seeds]
    workers = min(jobs or len(work), len(work), _usable_cpus())
    runs: list[tuple[RunSummary, RunSummary] | None] = [None] * len(work)
    problems: list[str] = []
    forked = 0
    if workers > 1:
        refusal = fork_refusal()  # never the CPU count: workers > 1 needs two CPUs
        if refusal is not None:
            problems.append(refusal)
        with contextlib.ExitStack() as stack:  # reaps every child forked, however it ends
            children = []
            for w in range(0 if problems else workers):  # no fork once a problem is known
                try:
                    child = fork_child(
                        tuple(map(tuple, _paired_seed(c))) for c in work[w::workers]
                    )
                except OSError as exc:
                    problems.append(f"cannot fork worker {w}: {exc}")
                    break
                children.append(stack.enter_context(child))
            shares = [[tuple(map(RunSummary._make, r)) for r in child] for child in children]
        for w, (child, share) in enumerate(zip(children, shares)):
            if child.status:
                problems.append(f"worker {w} exited with status {child.status}")
            else:
                runs[w::workers] = share
                forked += 1
    missing = [i for i, run in enumerate(runs) if run is None]
    if problems:
        log("warning", f"{'; '.join(problems)}; running {len(missing)} seeds serially")
    for i in missing:
        runs[i] = _paired_seed(work[i])
    if forked:
        log("info", f"{len(work) - len(missing)} seeds ran in {forked} forked worker processes")
    if missing or not forked:
        log("info", f"{len(missing)} seeds ran serially")
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
        log(
            "warning",
            f"aggregate leaves out {len(dropped)} run(s) with no served steps or a zero "
            f"mean rate: seeds {', '.join(dropped)}",
        )
    if not kept:
        return None
    mean_on, mean_off = (_mean(arm) for arm in zip(*kept))
    return mean_on, mean_off, improvement_pct(mean_on, mean_off)
