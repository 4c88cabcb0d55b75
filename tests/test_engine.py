import concurrent.futures
import logging
import math
import tracemalloc
from dataclasses import astuple, replace

import pytest

from drs_sim.channel import array_factor, direction_cosine_sums
from drs_sim.engine import (
    ConstraintViolation,
    MODE_OFF,
    PairedRun,
    SimConfig,
    _check_constraints,
    aggregate_improvement,
    initial_state,
    paired_sweep,
    run_simulation,
    run_step,
    simulate,
)
from drs_sim.geometry import AngularCoords, Pose, Vec3, local_azimuth, sight, wrap_angle
from drs_sim.nullsteer import MODE_ANALYTIC, MODE_FALLBACK, NullSteerInput, psi_interference
from drs_sim.traffic import ScenarioConfig, TrafficModel

QUIET = ScenarioConfig(arrival_rate=0.0, v2v_rate=0.0)


def small_config(**kwargs):
    scenario = kwargs.pop("scenario", ScenarioConfig())
    return SimConfig(scenario=scenario, steps=kwargs.pop("steps", 1000), **kwargs)


def records_of(config, seed):
    """The run's records, streamed from the step loop."""
    return list(simulate(replace(config, scenario=replace(config.scenario, seed=seed))))


class TestRunStep:
    def test_no_pair_no_record(self):
        config = SimConfig(scenario=QUIET, steps=10)
        state = initial_state(config)
        for _ in range(10):
            assert run_step(state, config) is None
        assert state.step_index == 10
        assert state.clock == pytest.approx(5.0)

    def test_drone_hovers_without_a_pair(self):
        config = SimConfig(scenario=QUIET, steps=5)
        state = initial_state(config)
        start = state.drs
        for _ in range(5):
            run_step(state, config)
        assert state.drs == start

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
        assert all(math.isinf(r.pl_interference_db) for r in on)


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
        rsu = config.scenario.rsu_position
        budget = config.scenario.limits.yaw_budget
        checked = 0
        for record in records_of(config, 4):
            if record.null_mode not in (MODE_ANALYTIC, MODE_FALLBACK):
                continue
            theta_i, bearing_i, _ = sight(record.drs.position, rsu)
            theta_r, bearing_r, _ = sight(record.drs.position, record.rx_pos)
            before = wrap_angle(record.drs.yaw + record.alpha_applied)
            inp = NullSteerInput(
                interferer=AngularCoords(theta_i, local_azimuth(bearing_i, before)),
                receiver=AngularCoords(theta_r, local_azimuth(bearing_r, before)),
                ris=config.ris,
                alpha_bound=budget,
            )
            applied = abs(psi_interference(inp, record.alpha_applied))
            baseline = abs(psi_interference(inp, 0.0))
            assert applied <= baseline + 1e-12
            # the rotated pose realizes exactly the factor the controller chose
            yaw = record.drs.yaw
            realized = abs(array_factor(config.ris, *direction_cosine_sums(
                theta_i, local_azimuth(bearing_i, yaw), theta_r, local_azimuth(bearing_r, yaw)
            )))
            assert realized == pytest.approx(applied, abs=1e-12)
            checked += 1
        assert checked > 50

    def test_analytic_nulls_annihilate_interference(self):
        records = records_of(small_config(steps=1500), 6)
        analytic = [r for r in records if r.null_mode == MODE_ANALYTIC]
        assert analytic
        for record in analytic:
            assert record.pl_interference_db > 200.0  # > 20 orders of magnitude


class TestConstraints:
    def test_recorded_motion_stays_within_budgets(self):
        config = small_config(steps=2000)
        records = records_of(config, 12)
        limits = config.scenario.limits
        bounds = config.scenario.bounds
        assert records
        previous = None
        for record in records:
            pose = record.drs
            p = pose.position
            assert bounds.x_min - 1e-9 <= p.x <= bounds.x_max + 1e-9
            assert bounds.y_min - 1e-9 <= p.y <= bounds.y_max + 1e-9
            assert bounds.z_min - 1e-9 <= p.z <= bounds.z_max + 1e-9
            assert abs(record.alpha_applied) <= limits.yaw_budget + 1e-12
            if previous is not None:
                moved = math.dist(astuple(p), astuple(previous.position))
                assert moved <= limits.step_length + 1e-9
                turned = abs(wrap_angle(pose.yaw - previous.yaw))
                assert turned <= limits.yaw_budget + 1e-12
            previous = pose

    def test_check_constraints_raises_on_teleport(self):
        config = small_config()
        a = Pose(Vec3(250.0, 2500.0, 100.0), 0.0)
        b = Pose(Vec3(250.0, 2600.0, 100.0), 0.0)
        with pytest.raises(ConstraintViolation):
            _check_constraints(a, b, config)

    def test_check_constraints_raises_on_overspin(self):
        config = small_config()
        a = Pose(Vec3(250.0, 2500.0, 100.0), 0.0)
        b = Pose(Vec3(250.0, 2500.0, 100.0), 0.2)
        with pytest.raises(ConstraintViolation):
            _check_constraints(a, b, config)

    def test_check_constraints_raises_outside_box(self):
        config = small_config()
        a = Pose(Vec3(250.0, 2500.0, 100.0), 0.0)
        b = Pose(Vec3(250.0, 2500.0, 99.0), 0.0)
        with pytest.raises(ConstraintViolation):
            _check_constraints(a, b, config)


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
        finite = [r for r in records if not math.isinf(r.pl_interference_db)]
        assert finite  # some bystander actually interfered

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            SimConfig(steps=0)
        with pytest.raises(ValueError):
            SimConfig(sinr_form="bogus")


class TestPairedSweep:
    @pytest.mark.parametrize("interferer", ["rsu", "vehicle", "none"])
    def test_single_pass_matches_two_separate_runs(self, interferer):
        config = small_config(steps=2000, scenario=ScenarioConfig(interferer_kind=interferer))
        off = replace(config, orientation_control=False)
        for run in paired_sweep(config, [1, 2, 3, 4, 5], jobs=1):
            assert run.mean_rate_on == run_simulation(config, run.seed).mean_rate_bps
            assert run.mean_rate_off == run_simulation(off, run.seed).mean_rate_bps

    def test_one_seed_advances_traffic_once_per_step(self, monkeypatch):
        calls = 0
        advance = TrafficModel.advance

        def counted(self):
            nonlocal calls
            calls += 1
            advance(self)

        monkeypatch.setattr(TrafficModel, "advance", counted)
        config = small_config(steps=300)
        (run,) = paired_sweep(config, [3], jobs=1)
        assert run.mean_rate_on is not None and run.mean_rate_off is not None
        assert calls == config.steps

    def test_serial_fallback_is_logged(self, monkeypatch, caplog):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pool here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        config = small_config(steps=300)
        with caplog.at_level(logging.WARNING, logger="drs_sim"):
            runs = paired_sweep(config, [3, 4], jobs=2)
        assert [r.seed for r in runs] == [3, 4]
        assert runs == paired_sweep(config, [3, 4], jobs=1)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "serially" in warnings[0].getMessage()
        assert "no process pool here" in warnings[0].getMessage()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            paired_sweep(SimConfig(steps=50), [1, 2], jobs=jobs)

    def test_zero_rate_runs_are_logged(self, caplog):
        quiet = paired_sweep(SimConfig(scenario=QUIET, steps=200), [5, 6], jobs=1)
        assert [(r.mean_rate_on, r.mean_rate_off) for r in quiet] == [(None, None)] * 2
        runs = quiet + [PairedRun(9, 110.0, 100.0)]
        with caplog.at_level(logging.WARNING, logger="drs_sim"):
            assert aggregate_improvement(iter(runs)) == (110.0, 100.0, 10.0)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        message = warnings[0].getMessage()
        assert "seeds 5, 6" in message
        assert "9" not in message
