"""Acceptance gates for the whole package, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them on
success).  Tolerances are fixed here and nowhere else; the expected values
come from independent oracles (dense scans, closed forms, phasor sums,
reference sequences), not from the code under test.
"""

import math
import os
from dataclasses import astuple

import numpy as np

from drs_sim.channel import (
    RisConfig,
    array_factor,
    direction_cosine_sums,
    path_loss,
    radiation_pattern,
)
from drs_sim.cli import main
from drs_sim.engine import SimConfig, aggregate_improvement, paired_sweep, simulate
from drs_sim.geometry import AngularCoords, wrap_angle
from drs_sim.nullsteer import (
    MODE_ANALYTIC,
    NullSteerInput,
    harmonic_coefficients,
    select_rotation,
)
from drs_sim.planner import WorldBounds, optimal_height
from drs_sim.rng import SplitMix64
from drs_sim.traffic import ScenarioConfig

from _oracles import candidate_alphas, clamp, rotated_factor_magnitude

YAW_BUDGET = 0.08725  # default rotation rate x default step duration


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_steer_input(rng: SplitMix64, ris: RisConfig) -> NullSteerInput:
    return NullSteerInput(
        interferer=AngularCoords(rng.uniform(0.1, 1.45), rng.uniform(-math.pi, math.pi)),
        receiver=AngularCoords(rng.uniform(0.1, 1.45), rng.uniform(-math.pi, math.pi)),
        ris=ris,
        alpha_bound=YAW_BUDGET,
    )


def test_criterion_01_orientation_control_improves_rate():
    """Paired 20-seed sweep: relative rate improvement positive and below 10%."""
    jobs = max(1, min(4, os.cpu_count() or 1))
    runs = paired_sweep(SimConfig(steps=10000), seeds=range(1, 21), jobs=jobs)
    aggregate = aggregate_improvement(runs)
    assert aggregate is not None, "no run produced served steps"
    mean_on, mean_off, improvement = aggregate
    ok = mean_on > mean_off and 0.0 < improvement < 10.0
    _report(
        1,
        "orientation-control improvement",
        ok,
        f"mean on {mean_on:.3f} vs off {mean_off:.3f} bit/s, {improvement:+.3e}%",
    )


def test_criterion_02_null_quality():
    """1000 analytic nulls: residual <= 1e-9, scan finds nothing better, and
    interference path loss grows by > 1e3 in at least 99% of instances."""
    ris = RisConfig()
    rng = SplitMix64(2718281828)
    alphas = np.linspace(-YAW_BUDGET, YAW_BUDGET, 100_000)
    found = 0
    attempts = 0
    ratio_hits = 0
    worst_residual = 0.0
    while found < 1000:
        attempts += 1
        assert attempts < 50_000, "could not find enough analytic-null instances"
        inp = _random_steer_input(rng, ris)
        if not candidate_alphas(inp):
            continue
        found += 1
        sol = select_rotation(inp)
        assert sol.mode == MODE_ANALYTIC
        worst_residual = max(worst_residual, sol.residual)
        assert sol.residual <= 1e-9

        scan = rotated_factor_magnitude(
            ris.m_rows,
            ris.n_cols,
            ris.dx,
            ris.dy,
            ris.wavelength,
            inp.interferer.theta,
            inp.interferer.phi,
            inp.receiver.theta,
            inp.receiver.phi,
            alphas,
        )
        assert float(scan.min()) >= sol.residual - 1e-9

        # interference path loss over 200 m hops, with the surface rotated by alpha
        ti, pi_ = inp.interferer.theta, inp.interferer.phi
        tr, pr = inp.receiver.theta, inp.receiver.phi
        f_i, f_r = radiation_pattern(ti), radiation_pattern(tr)

        def hop_loss(alpha: float) -> float:
            sums = direction_cosine_sums(ti, wrap_angle(pi_ + alpha), tr, wrap_angle(pr + alpha))
            return path_loss(ris, f_i, f_r, 200.0, 200.0, array_factor(ris, *sums))

        pl_nulled = hop_loss(sol.alpha)
        pl_baseline = hop_loss(0.0)
        if pl_nulled > 1e3 * pl_baseline:
            ratio_hits += 1

    ok = ratio_hits >= 990
    _report(
        2,
        "analytic null quality",
        ok,
        f"worst residual {worst_residual:.3e}, path-loss ratio hits {ratio_hits}/1000",
    )


def test_criterion_03_height_optimizer_matches_closed_form():
    """100 random separations: bounded minimizer within 1e-3 m of clamp(sqrt(3) d)."""
    bounds = WorldBounds(z_min=100.0, z_max=600.0)
    rng = SplitMix64(31415926)
    worst = 0.0
    for _ in range(100):
        d_2d = rng.uniform(10.0, 500.0)
        got = optimal_height(d_2d, bounds)
        expected = clamp(math.sqrt(3.0) * d_2d, 100.0, 600.0)
        worst = max(worst, abs(got - expected))
    ok = worst <= 1e-3
    _report(3, "height optimizer vs closed form", ok, f"worst |error| {worst:.2e} m")


def test_criterion_04_array_factor_matches_phasor_sum():
    """All (M, N) in {1,2,4,8,16}^2, 1000 random angle tuples each, |psi| within 1e-9."""
    from _oracles import phasor_sum_psi

    data_rng = np.random.default_rng(20240528)
    worst = 0.0
    for m in (1, 2, 4, 8, 16):
        for n in (1, 2, 4, 8, 16):
            ris = RisConfig(m_rows=m, n_cols=n)
            theta_t = data_rng.uniform(0.0, math.pi / 2, 1000)
            theta_r = data_rng.uniform(0.0, math.pi / 2, 1000)
            phi_t = data_rng.uniform(-math.pi, math.pi, 1000)
            phi_r = data_rng.uniform(-math.pi, math.pi, 1000)
            oracle = phasor_sum_psi(
                m, n, ris.dx, ris.dy, ris.wavelength, theta_t, phi_t, theta_r, phi_r
            )
            for i in range(1000):
                sums = direction_cosine_sums(theta_t[i], phi_t[i], theta_r[i], phi_r[i])
                got = abs(array_factor(ris, *sums))
                worst = max(worst, abs(got - oracle[i]))
    ok = worst <= 1e-9
    _report(4, "array factor vs phasor-sum oracle", ok, f"worst |diff| {worst:.2e}")


def test_criterion_05_constraints_hold_over_long_run():
    """10^4-step run: zero violations of motion, rotation and box constraints."""
    config = SimConfig(scenario=ScenarioConfig(seed=11), steps=10000)
    limits = config.scenario.limits
    bounds = config.scenario.bounds
    violations = 0
    served = 0
    previous = None
    for record in simulate(config):  # raises on any internal violation
        served += 1
        pose = record.drs
        p = pose.position
        if not (
            bounds.x_min - 1e-9 <= p.x <= bounds.x_max + 1e-9
            and bounds.y_min - 1e-9 <= p.y <= bounds.y_max + 1e-9
            and bounds.z_min - 1e-9 <= p.z <= bounds.z_max + 1e-9
        ):
            violations += 1
        if previous is not None:
            if math.dist(astuple(p), astuple(previous.position)) > limits.step_length + 1e-9:
                violations += 1
            if abs(wrap_angle(pose.yaw - previous.yaw)) > limits.yaw_budget + 1e-12:
                violations += 1
        previous = pose
    ok = violations == 0 and served > 1000
    _report(
        5,
        "constraint suite over 10^4 steps",
        ok,
        f"{violations} violations across {served} served steps",
    )


def test_criterion_06_harmonic_identity():
    """1000 inputs x 100 rotations: P cos(a) - Q sin(a) reproduces the direct sum to 1e-12."""
    rng = SplitMix64(1618033988)
    ris = RisConfig()
    worst = 0.0
    for _ in range(1000):
        inp = _random_steer_input(rng, ris)
        p, q = harmonic_coefficients(inp)
        ti, pi_ = inp.interferer.theta, inp.interferer.phi
        tr, pr = inp.receiver.theta, inp.receiver.phi
        for _ in range(100):
            alpha = rng.uniform(-math.pi, math.pi)
            direct = math.sin(ti) * math.cos(pi_ + alpha) + math.sin(tr) * math.cos(pr + alpha)
            harmonic = p * math.cos(alpha) - q * math.sin(alpha)
            worst = max(worst, abs(direct - harmonic))
    ok = worst <= 1e-12
    _report(6, "harmonic-addition identity", ok, f"worst |diff| {worst:.2e}")


def test_criterion_07_byte_identical_runs(tmp_path):
    """Identical config and seed produce byte-identical steps.csv."""
    config = tmp_path / "repro.cfg"
    config.write_text(
        "scenario.seed = 42\nrun.steps = 3000\n", encoding="utf-8"
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        outputs.append((out / "steps.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(7, "byte-identical reruns", ok, f"{len(outputs[0])} bytes")


def test_criterion_08_sampler_moments():
    """10^5 draws: exponential and Poisson sample means within 2% of targets."""
    rng = SplitMix64(5772156649)
    n = 100_000
    exp_mean = math.fsum(rng.expovariate(0.1) for _ in range(n)) / n
    poisson_mean = math.fsum(rng.poisson(0.5) for _ in range(n)) / n
    exp_err = abs(exp_mean - 10.0) / 10.0
    poi_err = abs(poisson_mean - 0.5) / 0.5
    ok = exp_err < 0.02 and poi_err < 0.02
    _report(
        8,
        "sampler moments",
        ok,
        f"exponential mean {exp_mean:.4f} (err {exp_err:.2%}), "
        f"poisson mean {poisson_mean:.4f} (err {poi_err:.2%})",
    )
