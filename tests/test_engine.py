import io
import marshal
import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc

import pytest

from drs_sim import engine
from drs_sim.channel import array_factor, direction_cosine_sums
from drs_sim.engine import (
    LOG_LEVELS,
    ConstraintViolation,
    MODE_OFF,
    STEPS_PER_BATCH,
    Child,
    RunSummary,
    SimConfig,
    _check_constraints,
    aggregate_improvement,
    fork_child,
    fork_refusal,
    log,
    paired_sweep,
    replace,
    run_simulation,
    run_step,
    simulate,
    summarize,
    trajectory,
    trajectory_ahead,
)
from drs_sim.geometry import sight, wrap_angle
from drs_sim.nullsteer import MODE_ANALYTIC, MODE_FALLBACK, NullSteerInput, psi_interference
from drs_sim.planner import MotionLimits, WorldBounds, optimal_location, step_towards
from drs_sim.traffic import ScenarioConfig, TrafficModel

QUIET = ScenarioConfig(arrival_rate=0.0, v2v_rate=0.0)


def small_config(**kwargs):
    scenario = kwargs.pop("scenario", ScenarioConfig())
    return SimConfig(scenario=scenario, steps=kwargs.pop("steps", 1000), **kwargs)


def records_of(config, seed):
    """The run's records, streamed from the step loop."""
    return [r for r, in simulate(replace(config, scenario=replace(config.scenario, seed=seed)))]


def steps_of(config):
    """The trajectory's served steps, its batches joined."""
    return [step for batch in trajectory(config) for step in batch]


def start_pose(config):
    """The pose ``simulate`` starts from, as (x, y, z, yaw): the centre of the box's floor, yaw 0."""
    b = config.scenario.bounds
    return 0.5 * (b.x_min + b.x_max), 0.5 * (b.y_min + b.y_max), b.z_min, 0.0


def pose_of(record):
    """A record's drone pose, as ``run_step`` takes it: (x, y, z, yaw)."""
    return record.drs_x, record.drs_y, record.drs_z, record.drs_yaw_rad


def measured_turn(yaw_a, yaw_b):
    """The yaw change ``_check_constraints`` measures from yaw_a to yaw_b at one point.

    The budget is 1 nrad, so any larger turn raises and the message reports it.
    """
    config = small_config(scenario=ScenarioConfig(limits=MotionLimits(rot_rate=2e-9)))
    with pytest.raises(ConstraintViolation, match="^yaw change") as info:
        _check_constraints((250.0, 2500.0, 100.0, yaw_a), (250.0, 2500.0, 100.0, yaw_b), config)
    return float(re.search(r"yaw change (\S+) rad", str(info.value)).group(1))


class TestRunStep:
    def test_no_pair_no_record(self, monkeypatch):
        # Every step still ticks the clock; none is served, so no batch is yielded.
        ticks = []
        advance = TrafficModel.advance

        def counted(self):
            advance(self)
            ticks.append((self.step, self.clock))

        monkeypatch.setattr(TrafficModel, "advance", counted)
        config = SimConfig(scenario=QUIET, steps=10)
        assert list(trajectory(config)) == []
        assert [step for step, _ in ticks] == list(range(1, 11))
        assert ticks[-1][1] == pytest.approx(5.0)

    def test_drone_hovers_without_a_pair(self):
        # The first served step starts from the start pose: one bounded step toward the target.
        config = small_config(steps=2000)
        scenario = config.scenario
        start = start_pose(config)
        step = next(trajectory(config))[0]
        (record,) = run_step(step, start, config)
        assert record.step > 1  # the road starts empty: unserved steps came first
        assert record[:8] == step[:8]
        # optimal_location reads only the vehicles' x and y
        tx, rx = (record.tx_x, record.tx_y, 0.0), (record.rx_x, record.rx_y, 0.0)
        target = optimal_location(tx, rx, scenario.bounds)
        moved = step_towards(start[:3], target, scenario.limits, scenario.bounds)
        assert pose_of(record)[:3] == moved
        assert next(simulate(config)) == [record]

    @pytest.mark.parametrize("interferer", ["rsu", "vehicle", "none"])
    def test_trajectory_steps_go_through_marshal_as_they_are(self, interferer):
        # trajectory_ahead's producer pipes the batches with marshal, with no adapter.
        def types(value):
            return tuple(map(types, value)) if type(value) is tuple else type(value)

        config = small_config(steps=2000, scenario=ScenarioConfig(interferer_kind=interferer))
        batches = list(trajectory(config))
        assert batches
        back = [marshal.loads(marshal.dumps(batch)) for batch in batches]
        assert back == batches
        assert [types(step) for batch in back for step in batch] == [
            types(step) for batch in batches for step in batch
        ]

    def test_cycle_index_starts_at_zero_per_pair(self):
        first_seen = {}
        for record in records_of(small_config(steps=2000), 3):
            first_seen.setdefault(record.pair_id, record.cycle_index)
        assert all(cycle == 0 for cycle in first_seen.values())

    def test_interferer_absent_control_is_inert(self):
        scenario = ScenarioConfig(interferer_kind="none")
        on = records_of(SimConfig(scenario=scenario, steps=1500, orientation_control=True), 8)
        off = records_of(SimConfig(scenario=scenario, steps=1500, orientation_control=False), 8)
        assert len(on) == len(off)
        for a, b in zip(on, off):
            assert a.rate_bps == b.rate_bps
            assert a.null_mode == MODE_OFF
        assert all(math.isinf(r.pl_interf_db) for r in on)


class TestControlEffect:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_paired_cumulative_rate_never_worse(self, seed):
        on = records_of(small_config(orientation_control=True), seed)
        off = records_of(small_config(orientation_control=False), seed)
        total_on = math.fsum(r.rate_bps for r in on)
        total_off = math.fsum(r.rate_bps for r in off)
        assert total_on >= total_off - 1e-9

    def test_rotation_only_reduces_interference_factor(self):
        config = small_config(steps=1500)
        rsu = (config.scenario.rsu_x, config.scenario.rsu_y, config.scenario.rsu_z)
        budget = config.scenario.limits.yaw_budget
        checked = 0
        seeded = replace(config, scenario=replace(config.scenario, seed=4))
        for step, record in zip(steps_of(seeded), records_of(config, 4), strict=True):
            if record.null_mode not in (MODE_ANALYTIC, MODE_FALLBACK):
                continue
            theta_i, bearing_i, _ = sight(pose_of(record)[:3], rsu)
            hop = step[13]  # the record holds no antenna height: the receiver's sight is the step's
            assert (theta_i, bearing_i) == hop[:2]
            theta_r, bearing_r = hop[5:7]
            before = wrap_angle(record.drs_yaw_rad + record.alpha_rad)
            inp = NullSteerInput(
                theta_i, wrap_angle(bearing_i - before),
                theta_r, wrap_angle(bearing_r - before),
                ris=config.ris,
                alpha_bound=budget,
                sin_i=math.sin(theta_i),
                sin_r=math.sin(theta_r),
            )
            applied = abs(psi_interference(inp, record.alpha_rad))
            baseline = abs(psi_interference(inp, 0.0))
            assert applied <= baseline + 1e-12
            # the rotated pose realizes exactly the factor the controller chose
            yaw = record.drs_yaw_rad
            realized = abs(array_factor(config.ris, *direction_cosine_sums(
                math.sin(theta_i), wrap_angle(bearing_i - yaw),
                math.sin(theta_r), wrap_angle(bearing_r - yaw),
            )))
            assert realized == pytest.approx(applied, abs=1e-12)
            checked += 1
        assert checked > 50

    def test_analytic_nulls_annihilate_interference(self):
        records = records_of(small_config(steps=1500), 6)
        analytic = [r for r in records if r.null_mode == MODE_ANALYTIC]
        assert analytic
        for record in analytic:
            assert record.pl_interf_db > 200.0  # > 20 orders of magnitude


class TestConstraints:
    def test_recorded_motion_stays_within_budgets(self):
        config = small_config(steps=2000)
        records = records_of(config, 12)
        limits = config.scenario.limits
        bounds = config.scenario.bounds
        assert records
        previous = None
        for record in records:
            x, y, z, yaw = pose_of(record)
            assert bounds.x_min - 1e-9 <= x <= bounds.x_max + 1e-9
            assert bounds.y_min - 1e-9 <= y <= bounds.y_max + 1e-9
            assert bounds.z_min - 1e-9 <= z <= bounds.z_max + 1e-9
            assert abs(record.alpha_rad) <= limits.yaw_budget + 1e-12
            if previous is not None:
                moved = math.dist((x, y, z), previous[:3])
                assert moved <= limits.step_length + 1e-9
                turned = abs(wrap_angle(yaw - previous[3]))
                assert turned <= limits.yaw_budget + 1e-12
            previous = x, y, z, yaw

    def test_check_constraints_raises_on_teleport(self):
        config = small_config()
        a = (250.0, 2500.0, 100.0, 0.0)
        b = (250.0, 2600.0, 100.0, 0.0)
        with pytest.raises(ConstraintViolation):
            _check_constraints(a, b, config)

    def test_check_constraints_raises_on_overspin(self):
        config = small_config()
        a = (250.0, 2500.0, 100.0, 0.0)
        b = (250.0, 2500.0, 100.0, 0.2)
        with pytest.raises(ConstraintViolation):
            _check_constraints(a, b, config)

    def test_check_constraints_raises_outside_box(self):
        config = small_config()
        a = (250.0, 2500.0, 100.0, 0.0)
        b = (250.0, 2500.0, 99.0, 0.0)
        with pytest.raises(
            ConstraintViolation,
            match=re.escape("position (x=250.0, y=2500.0, z=99.0) outside flight box"),
        ):
            _check_constraints(a, b, config)

    def test_turn_across_the_seam_within_budget_passes(self):
        # pi - 0.04 to -pi + 0.04 is a 0.08 rad turn, within the default
        # 0.08725 rad budget; the raw difference is about 2 pi.
        config = small_config()
        assert config.scenario.limits.yaw_budget == pytest.approx(0.08725)
        a = (250.0, 2500.0, 100.0, math.pi - 0.04)
        b = (250.0, 2500.0, 100.0, -math.pi + 0.04)
        _check_constraints(a, b, config)
        _check_constraints(b, a, config)
        # a 0.1 rad turn across the seam passes at a 0.125 rad budget
        wider = small_config(scenario=ScenarioConfig(limits=MotionLimits(rot_rate=0.25)))
        a = (250.0, 2500.0, 100.0, math.pi - 0.05)
        b = (250.0, 2500.0, 100.0, -math.pi + 0.05)
        _check_constraints(a, b, wider)
        _check_constraints(b, a, wider)

    def test_turn_across_the_seam_beyond_budget_raises(self):
        config = small_config()
        a = (250.0, 2500.0, 100.0, math.pi - 0.1)
        b = (250.0, 2500.0, 100.0, -math.pi + 0.1)
        for previous, current in ((a, b), (b, a)):
            with pytest.raises(ConstraintViolation, match=r"^yaw change 0\.2000000000000\d\d rad"):
                _check_constraints(previous, current, config)

    # The yaw change between two poses, as the budget check measures it.
    def test_identical_yaws_do_not_turn(self):
        config = small_config(scenario=ScenarioConfig(limits=MotionLimits(rot_rate=2e-9)))
        pose = (1.0, 2.0, 100.0, 0.4)
        _check_constraints(pose, pose, config)  # passes a 1 nrad budget

    def test_small_turn_measures_its_size(self):
        assert measured_turn(0.1, 0.0) == pytest.approx(0.1, abs=1e-15)

    def test_turn_wraps_across_half_turn(self):
        assert measured_turn(math.pi - 0.05, -math.pi + 0.05) == pytest.approx(0.1, abs=1e-12)


class TestRunSimulation:
    def test_zero_arrivals_empty_aggregates(self):
        summary = run_simulation(SimConfig(scenario=QUIET, steps=200))
        assert summary.n_records == 0
        assert summary.mean_rate_bps is None
        assert summary.n_pairs == 0
        assert list(simulate(SimConfig(scenario=QUIET, steps=200))) == []

    def test_deterministic_records(self):
        assert records_of(small_config(), 5) == records_of(small_config(), 5)
        a = run_simulation(small_config(), seed=5)
        b = run_simulation(small_config(), seed=5)
        assert a == b

    def test_summary_consistency(self):
        summary = run_simulation(small_config(steps=1500), seed=9)
        records = records_of(small_config(steps=1500), 9)
        assert records
        assert summary.n_records == len(records)
        assert summary.mean_rate_bps == math.fsum(r.rate_bps for r in records) / len(records)
        assert summary.n_pairs == len({r.pair_id for r in records})

    def test_records_are_not_buffered(self):
        # About 2.4 MB when every record was kept; the streamed run holds only
        # its rates and pair ids, about 0.15 MB.
        tracemalloc.start()
        try:
            run_simulation(SimConfig(steps=4000), seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_vehicle_interferer_mode_runs(self):
        scenario = ScenarioConfig(interferer_kind="vehicle", v2v_rate=0.1)
        records = records_of(SimConfig(scenario=scenario, steps=1500), 10)
        assert records
        finite = [r for r in records if not math.isinf(r.pl_interf_db)]
        assert finite  # some bystander actually interfered

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            SimConfig(steps=0)
        with pytest.raises(ValueError):
            SimConfig(sinr_form="bogus")

    @pytest.mark.parametrize(
        "interferer, rsu_z, z_min, node",
        [
            ("rsu", 700.0, 60.0, "scenario.rsu_z (700.0 m)"),
            ("rsu", 5.0, 5.0, "scenario.rsu_z (5.0 m)"),
            ("rsu", 1.0, 2.0, "the highest vehicle antenna (2.0 m)"),
            ("vehicle", 700.0, 2.0, "the highest vehicle antenna (2.0 m)"),
        ],
    )
    def test_height_rule_names_the_binding_node(self, interferer, rsu_z, z_min, node):
        # A scenario alone has no height rule: the run's far-field rule holds it.
        scenario = ScenarioConfig(
            bounds=WorldBounds(z_min=z_min), rsu_x=250.0, rsu_y=2500.0, rsu_z=rsu_z,
            interferer_kind=interferer,
        )
        with pytest.raises(ValueError) as info:
            SimConfig(scenario=scenario)
        message = str(info.value)
        assert message.startswith("bounds.z_min must be at least the surface's far-field distance")
        assert f"above {node}, got {z_min}" in message


class TestLog:
    @pytest.mark.parametrize(
        "setting, shown",
        [
            (None, ["warning", "error"]),
            ("debug", LOG_LEVELS),
            ("INFO", ["info", "warning", "error"]),
            ("Warning", ["warning", "error"]),
            ("error", ["error"]),
            ("", ["warning", "error"]),  # unknown values show the default
            ("verbose", ["warning", "error"]),
        ],
    )
    def test_setting_shows_its_level_and_above(self, setting, shown, monkeypatch, capsys):
        monkeypatch.delenv("DRS_SIM_LOG", raising=False)
        if setting is not None:
            monkeypatch.setenv("DRS_SIM_LOG", setting)
        for level in LOG_LEVELS:
            log(level, f"a {level} message")
        assert capsys.readouterr().err == "".join(
            f"{level.upper()}:drs_sim:a {level} message\n" for level in shown
        )

    def test_each_line_is_one_write_to_the_current_stderr(self, monkeypatch):
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(sys, "stderr", Recorder())
        monkeypatch.setenv("DRS_SIM_LOG", "info")
        log("info", "seed 3: served")
        assert writes == ["INFO:drs_sim:seed 3: served\n"]

    @pytest.mark.parametrize("closed", [True, False], ids=["no stderr", "write fails"])
    def test_unwritable_stderr_does_not_stop_the_run(self, closed, monkeypatch):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        # sys.stderr is None when the process started with fd 2 closed.
        monkeypatch.setattr(sys, "stderr", None if closed else Full())
        monkeypatch.setenv("DRS_SIM_LOG", "warning")
        log("warning", "the run served no step")


def counted_trajectory(monkeypatch):
    """Wrap ``engine.trajectory``; returns a one-item list holding the steps it has yielded."""
    yielded = [0]
    batches_of = engine.trajectory

    def counted(config):
        for batch in batches_of(config):
            yielded[0] += len(batch)
            yield batch

    monkeypatch.setattr(engine, "trajectory", counted)
    return yielded


class TestBatching:
    def test_trajectory_yields_full_batches_but_the_last(self):
        config = small_config(steps=1000)
        batches = list(trajectory(config))
        assert len(batches) > 2
        assert [len(batch) for batch in batches[:-1]] == [STEPS_PER_BATCH] * (len(batches) - 1)
        assert 0 < len(batches[-1]) <= STEPS_PER_BATCH
        with fork_child(trajectory(config)) as child:
            assert list(child) == batches
        assert child.status == 0
        assert_no_child_left()

    # 1000 steps serve more than two batches, 50 fewer than one.
    @pytest.mark.parametrize("steps", [1000, 50])
    def test_simulate_steps_the_trajectory_a_batch_ahead(self, steps, monkeypatch):
        config = small_config(steps=steps)
        served = len(steps_of(config))
        assert served > 2 * STEPS_PER_BATCH if steps == 1000 else 0 < served < STEPS_PER_BATCH
        yielded = counted_trajectory(monkeypatch)
        for i, _ in enumerate(simulate(config, paired=True)):
            assert yielded[0] == min(served, (i // STEPS_PER_BATCH + 1) * STEPS_PER_BATCH)
        assert yielded[0] == served

    def test_fork_refused_trajectory_ahead_steps_a_batch_ahead(self, monkeypatch, cpus):
        cpus(1)
        config = small_config(steps=1000)
        expected = list(trajectory(config))
        assert len(expected) > 2
        yielded = counted_trajectory(monkeypatch)
        batches = []
        for i, batch in enumerate(trajectory_ahead(config)):
            assert yielded[0] == i * STEPS_PER_BATCH + len(batch)
            batches.append(batch)
        assert batches == expected

    @pytest.mark.parametrize("paired", [False, True])
    def test_records_are_run_step_over_the_listed_trajectory(self, paired):
        config = small_config(steps=1000)
        drs, expected = start_pose(config), []
        for step in steps_of(config):
            records = run_step(step, drs, config, paired)
            drs = pose_of(records[0])
            expected.append(records)
        assert len(expected) > STEPS_PER_BATCH
        assert list(simulate(config, paired=paired)) == expected


class TestPairedSweep:
    @pytest.mark.parametrize("interferer", ["rsu", "vehicle", "none"])
    def test_single_pass_matches_two_separate_runs(self, interferer, cpus):
        cpus(2)
        config = small_config(steps=2000, scenario=ScenarioConfig(interferer_kind=interferer))
        off = replace(config, orientation_control=False)
        seeds = [1, 2, 3, 4, 5]
        expected = [(run_simulation(config, s), run_simulation(off, s)) for s in seeds]
        assert all(on.control_on and not off.control_on for on, off in expected)
        for jobs in (1, 2):  # serial, then two forked workers
            assert paired_sweep(config, seeds, jobs=jobs) == expected

    @pytest.mark.parametrize("interferer", ["rsu", "vehicle", "none"])
    def test_paired_records_equal_the_one_arm_runs(self, interferer):
        # Record by record: control on first, then off, each as its own run has it.
        config = small_config(steps=2000, scenario=ScenarioConfig(interferer_kind=interferer))
        on = simulate(replace(config, orientation_control=True))
        off = simulate(replace(config, orientation_control=False))
        paired = list(simulate(config, paired=True))
        assert paired
        assert paired == [[a, b] for (a,), (b,) in zip(on, off, strict=True)]
        assert any(a.alpha_rad for a, _ in paired) == (interferer != "none")

    @pytest.mark.parametrize("run_paired, paired", [(False, True), (True, False)])
    def test_summarize_rejects_steps_of_the_other_paired(self, run_paired, paired):
        # A served step's records must be one per arm of ``paired``, in arm order.
        config = small_config(steps=2000, orientation_control=False)
        with pytest.raises(ValueError, match=rf"summarize\(paired={paired}\)"):
            summarize(config, simulate(config, paired=run_paired), paired=paired)

    def test_one_seed_advances_traffic_once_per_step(self, monkeypatch):
        calls = 0
        advance = TrafficModel.advance

        def counted(self):
            nonlocal calls
            calls += 1
            advance(self)

        monkeypatch.setattr(TrafficModel, "advance", counted)
        config = small_config(steps=300)
        ((on, off),) = paired_sweep(config, [3], jobs=1)
        assert on.mean_rate_bps is not None and off.mean_rate_bps is not None
        assert calls == config.steps

    def test_each_seed_logs_its_time(self, monkeypatch, capsys):
        config = small_config(steps=300)
        monkeypatch.setenv("DRS_SIM_LOG", "info")
        runs = paired_sweep(config, [3, 4], jobs=1)
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("INFO:drs_sim:seed ")
        ]
        assert len(lines) == 2
        for (run, _), line in zip(runs, lines):
            match = re.fullmatch(
                r"INFO:drs_sim:seed (\d+): (\d+) steps \((\d+) served\) in (\d+\.\d{3}) s, "
                r"(\d+) steps/s",
                line,
            )
            assert match, line
            assert int(match[1]) == run.seed
            assert int(match[2]) == config.steps
            assert int(match[3]) == run_simulation(config, run.seed).n_records

    def test_serial_fallback_is_logged(self, monkeypatch, capsys, cpus):
        def fork():
            raise OSError("no fork here")

        monkeypatch.setattr(os, "fork", fork)
        cpus(2)
        monkeypatch.setenv("DRS_SIM_LOG", "warning")
        config = small_config(steps=300)
        runs = paired_sweep(config, [3, 4], jobs=2)
        assert [on.seed for on, _ in runs] == [3, 4]
        assert runs == paired_sweep(config, [3, 4], jobs=1)
        assert capsys.readouterr().err.splitlines() == [
            "WARNING:drs_sim:cannot fork worker 0: no fork here; running 2 seeds serially"
        ]

    def test_without_fork_seeds_run_serially(self, monkeypatch, capsys, cpus):
        monkeypatch.delattr(os, "fork")
        cpus(2)
        monkeypatch.setenv("DRS_SIM_LOG", "warning")
        config = small_config(steps=300)
        runs = paired_sweep(config, [3, 4], jobs=2)
        assert runs == paired_sweep(config, [3, 4], jobs=1)
        assert capsys.readouterr().err.splitlines() == [
            "WARNING:drs_sim:os.fork is not available; running 2 seeds serially"
        ]

    @pytest.mark.parametrize(
        "seeds, jobs, cores, workers",
        [
            ([3, 4], 10**20, 8, 2),  # capped at the seed count
            ([3, 4, 5], None, 2, 2),  # capped at the cores
            ([3, 4, 5], 2, 8, 2),  # capped at --jobs
            ([3, 4], 10**20, 1, None),  # one core: serial
            ([3, 4], 1, 8, None),  # one job: serial
        ],
    )
    def test_worker_count(self, seeds, jobs, cores, workers, monkeypatch, capsys, cpus):
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        cpus(cores)
        monkeypatch.setenv("DRS_SIM_LOG", "info")
        config = small_config(steps=100)
        runs = paired_sweep(config, seeds, jobs=jobs)
        messages = [line for line in capsys.readouterr().err.splitlines() if "seeds ran" in line]
        assert [on.seed for on, _ in runs] == seeds
        if workers is None:
            assert forks == []
            assert messages == [f"INFO:drs_sim:{len(seeds)} seeds ran serially"]
        else:
            assert len(forks) == workers
            assert messages == [
                f"INFO:drs_sim:{len(seeds)} seeds ran in {workers} forked worker processes"
            ]
            assert runs == paired_sweep(config, seeds, jobs=1)

    def test_workers_return_runs_in_seed_order(self, monkeypatch, capsys, cpus):
        cpus(2)
        monkeypatch.setenv("DRS_SIM_LOG", "info")
        config = small_config(steps=200)
        seeds = [9, 3, 7, 1, 5]
        runs = paired_sweep(config, seeds, jobs=2)
        assert (
            "INFO:drs_sim:5 seeds ran in 2 forked worker processes\n" in capsys.readouterr().err
        )
        assert runs == paired_sweep(config, seeds, jobs=1)
        assert [on.seed for on, _ in runs] == seeds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_error_is_raised_again(self, monkeypatch, capsys, cpus):
        """A worker that fails exits non-zero; its share reruns here and raises the same error."""
        def fails_for_seed_4(config, paired=False):
            if config.scenario.seed == 4:
                raise ConstraintViolation("yaw step of 9 rad exceeds the budget")
            return simulate(config, paired)

        monkeypatch.setattr(engine, "simulate", fails_for_seed_4)
        cpus(2)
        monkeypatch.setenv("DRS_SIM_LOG", "warning")
        with pytest.raises(ConstraintViolation) as raised:
            paired_sweep(small_config(steps=100), [3, 4], jobs=2)
        assert type(raised.value) is ConstraintViolation
        assert str(raised.value) == "yaw step of 9 rad exceeds the budget"
        assert capsys.readouterr().err.splitlines() == [
            "WARNING:drs_sim:worker 1 exited with status 1; running 1 seeds serially"
        ]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_bad_frame_from_one_worker_reaps_every_worker(self, monkeypatch, cpus):
        # Worker 0 sends a frame that is not a pair of summaries; reading it raises,
        # and no worker may be left unreaped or with its pipe open.
        fork_child = engine.fork_child
        bad = [[[12345]]]
        monkeypatch.setattr(engine, "fork_child", lambda frames: fork_child(
            bad.pop() if bad else frames
        ))
        cpus(2)
        with pytest.raises(TypeError):
            paired_sweep(small_config(steps=50), [1, 2], jobs=2)
        assert_no_child_left()

    def test_bad_frame_does_not_wait_out_the_other_workers(self, monkeypatch, cpus):
        # Worker 0 sends a bad frame while worker 1 sleeps 30 s before it sends:
        # the error kills worker 1 rather than waiting for it.
        def late(frames):
            time.sleep(30)
            yield from frames

        fork_child = engine.fork_child
        bad = [[[12345]]]
        monkeypatch.setattr(engine, "fork_child", lambda frames: fork_child(
            bad.pop() if bad else late(frames)
        ))
        cpus(2)
        start = time.monotonic()
        with pytest.raises(TypeError):
            paired_sweep(small_config(steps=50), [1, 2], jobs=2)
        assert time.monotonic() - start < 10
        assert_no_child_left()

    def test_threaded_process_does_not_fork(self, monkeypatch, capsys, cpus):
        cpus(2)
        monkeypatch.setenv("DRS_SIM_LOG", "warning")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            runs = paired_sweep(small_config(steps=100), [3, 4], jobs=2)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert [on.seed for on, _ in runs] == [3, 4]
        assert capsys.readouterr().err.splitlines() == [
            "WARNING:drs_sim:the process runs 2 threads; running 2 seeds serially"
        ]

    @pytest.mark.parametrize(
        "cores, refusal",
        [
            (2, None),
            (1, "the process may run on one CPU"),
            (None, "the process may run on one CPU"),
        ],
    )
    def test_fork_refusal_needs_two_cores(self, cores, refusal, monkeypatch):
        # Where the platform has no affinity calls, os.cpu_count() is the count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert fork_refusal() == refusal

    def test_one_cpu_of_two_runs_the_sweep_serially(self, monkeypatch, capsys):
        # As under ``taskset -c 0``: the affinity is counted, not the machine's cores.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
        monkeypatch.setenv("DRS_SIM_LOG", "info")
        assert fork_refusal() == "the process may run on one CPU"
        config = small_config(steps=100)
        runs = paired_sweep(config, [3, 4], jobs=2)
        assert runs == paired_sweep(config, [3, 4], jobs=1)
        assert "INFO:drs_sim:2 seeds ran serially\n" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            paired_sweep(SimConfig(steps=50), [1, 2], jobs=jobs)

    def test_zero_rate_runs_are_logged(self, monkeypatch, capsys):
        monkeypatch.setenv("DRS_SIM_LOG", "warning")
        quiet = paired_sweep(SimConfig(scenario=QUIET, steps=200), [5, 6], jobs=1)
        assert [(on.mean_rate_bps, off.mean_rate_bps) for on, off in quiet] == [(None, None)] * 2
        runs = quiet + [(RunSummary(9, True, 4, 1, 110.0), RunSummary(9, False, 4, 1, 100.0))]
        assert aggregate_improvement(iter(runs)) == (110.0, 100.0, 10.0)
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 1
        message = warnings[0].removeprefix("WARNING:drs_sim:")
        assert message != warnings[0]
        assert "seeds 5, 6" in message
        assert "9" not in message


class TestForkChild:
    def test_result_comes_back_with_status_0(self):
        frames = [[(1, 2.5, "on"), None], -math.inf, []]
        with fork_child(frames) as child:
            assert list(child) == frames
        assert child.status == 0
        assert_no_child_left()

    def test_raising_body_exits_1_with_no_blob(self):
        def fails():
            raise ValueError("not sent")
            yield  # a generator: its body runs in the child only

        with fork_child(fails()) as child:
            assert list(child) == []
        assert child.status == 1
        assert_no_child_left()

    def test_child_dropped_mid_stream_is_reaped(self):
        # A child that would send forever meets the closed pipe and exits 1.
        def endless():
            while True:
                yield list(range(1000))

        with fork_child(endless()) as child:
            assert next(iter(child)) == list(range(1000))
        assert child.status == 1
        assert child.outbox.closed
        assert_no_child_left()

    def test_leaving_on_an_exception_kills_the_child(self):
        # The child would send forever; it is killed, not left to meet the closed pipe.
        def endless():
            while True:
                yield list(range(1000))

        with pytest.raises(RuntimeError, match="the consumer failed"):
            with fork_child(endless()) as child:
                assert next(iter(child)) == list(range(1000))
                raise RuntimeError("the consumer failed")
        assert child.status == -signal.SIGKILL
        assert child.outbox.closed
        assert_no_child_left()

    def test_cut_off_frame_ends_the_frames(self):
        # A child killed inside a frame leaves a short blob, not read as a frame.
        def cut_off():
            yield "whole"
            yield "x" * 4_000_000  # more than the pipe holds: the child blocks inside it

        with fork_child(cut_off()) as child:
            frames = iter(child)
            assert next(frames) == "whole"
            assert child.outbox.peek(1)  # the second frame has begun
            os.kill(child.pid, signal.SIGKILL)
            assert list(frames) == []
        assert child.status == -signal.SIGKILL
        assert_no_child_left()
        # A cut inside the blob, right after the length, or inside the length.
        blobs = [marshal.dumps("whole"), marshal.dumps("x" * 1000)]
        stream = b"".join(len(blob).to_bytes(8, "little") + blob for blob in blobs)
        whole = 8 + len(blobs[0])
        for cut in (len(stream) - 1, whole + 8, whole + 3):
            assert list(Child(0, io.BytesIO(stream[:cut]))) == ["whole"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
