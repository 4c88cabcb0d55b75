import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drs_sim.channel import RisConfig, array_factor, direction_cosine_sums
from drs_sim import nullsteer
from drs_sim.geometry import wrap_angle
from drs_sim.nullsteer import (
    MODE_ANALYTIC,
    MODE_FALLBACK,
    MODE_NONE,
    NullSteerInput,
    nearest_null,
    null_rotations,
    psi_interference,
    select_rotation,
)

from _oracles import (
    candidate_alphas,
    composed_psi_interference,
    enumerated_selection,
    exhaustive_candidate_alphas,
    grid_fallback_min,
    rotated_factor_magnitude,
    rotation_grid,
)

RIS = RisConfig()
BOUND = 0.08725  # default per-step rotation budget

elevations = st.floats(0.05, math.pi / 2 - 0.05, allow_nan=False)
azimuths = st.floats(-math.pi, math.pi, allow_nan=False, exclude_min=True)


def make_input(theta_i, phi_i, theta_r, phi_r, bound=BOUND, ris=RIS):
    return NullSteerInput(
        theta_i, phi_i, theta_r, phi_r, ris=ris, alpha_bound=bound,
        sin_i=math.sin(theta_i), sin_r=math.sin(theta_r),
    )


# default grid, a non-square grid with unequal pitch, and a single row
GRIDS = (
    RIS,
    RisConfig(m_rows=3, n_cols=5, dx=0.031, dy=0.017),
    RisConfig(m_rows=1, n_cols=8, dx=0.02, dy=0.0254),
)


# the fallback search is also checked on a wide grid, at four budgets from a
# tight one to a full radian
FALLBACK_GRIDS = GRIDS + (RisConfig(m_rows=7, n_cols=40),)
FALLBACK_BOUNDS = (0.001, BOUND, 0.3, 1.0)


def oracle_candidates(inp):
    p, q = direction_cosine_sums(
        math.sin(inp.theta_i), inp.phi_i, math.sin(inp.theta_r), inp.phi_r
    )
    ris = inp.ris
    return exhaustive_candidate_alphas(
        p, q, ris.m_rows, ris.n_cols, ris.dx, ris.dy, ris.wavelength,
        inp.alpha_bound, lambda a: psi_interference(inp, a),
    )


def oracle_fallback(inp):
    ris = inp.ris
    return grid_fallback_min(
        ris.m_rows, ris.n_cols, ris.dx, ris.dy, ris.wavelength,
        inp.theta_i, inp.phi_i, inp.theta_r, inp.phi_r, inp.alpha_bound,
    )


def assert_matches_enumeration(inp):
    """select_rotation picks what the full null enumeration picks, bit for bit."""
    sol = select_rotation(inp)
    expected = enumerated_selection(inp)
    if expected is None:
        assert sol.mode != MODE_ANALYTIC
    else:
        assert (sol.alpha, sol.residual, sol.mode) == expected
        assert math.copysign(1.0, sol.alpha) == math.copysign(1.0, expected[0])


def no_null_instances(seed, count):
    """Seeded inputs with no analytic candidate, so select_rotation searches.

    Two thirds draw small elevations, which keep the direction-cosine
    amplitude below most null levels; the rest are unrestricted.
    """
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        top = rng.choice((math.pi / 2, 0.05, 0.01))
        inp = make_input(
            rng.uniform(0.0, top),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(0.0, top),
            rng.uniform(-math.pi, math.pi),
            bound=rng.choice(FALLBACK_BOUNDS),
            ris=rng.choice(FALLBACK_GRIDS),
        )
        if not candidate_alphas(inp):
            found.append(inp)
    return found


def assert_fallback_no_worse_than_grid(inp):
    sol = select_rotation(inp)
    _, grid_residual, _ = oracle_fallback(inp)
    assert sol.mode in (MODE_FALLBACK, MODE_NONE)
    assert sol.residual <= grid_residual + 1e-12
    assert abs(sol.alpha) <= inp.alpha_bound + 1e-12
    assert sol.residual == abs(psi_interference(inp, sol.alpha))
    if sol.mode == MODE_NONE:
        assert sol.alpha == 0.0


def oracle_magnitudes(inp, grid):
    return rotated_factor_magnitude(
        inp.ris.m_rows,
        inp.ris.n_cols,
        inp.ris.dx,
        inp.ris.dy,
        inp.ris.wavelength,
        inp.theta_i,
        inp.phi_i,
        inp.theta_r,
        inp.phi_r,
        grid,
    )


class TestNullSteerInput:
    def test_rejects_bad_elevation(self):
        for theta in (-0.1, math.pi + 0.1, math.nan):
            with pytest.raises(ValueError, match=r"theta must be in \[0, pi\]"):
                make_input(theta, 0.0, 0.5, 0.0)
            with pytest.raises(ValueError, match=r"theta must be in \[0, pi\]"):
                make_input(0.5, 0.0, theta, 0.0)

    def test_wraps_azimuth(self):
        inp = make_input(0.5, 2 * math.pi + 0.25, 0.5, 2 * math.pi + 0.25)
        assert inp.phi_i == pytest.approx(0.25)
        assert inp.phi_r == pytest.approx(0.25)


class TestPsiInterference:
    def test_zero_rotation_is_identity(self):
        inp = make_input(0.7, 0.4, 0.9, -1.2)
        sums = direction_cosine_sums(math.sin(0.7), 0.4, math.sin(0.9), -1.2)
        unrotated = array_factor(RIS, *sums)
        assert psi_interference(inp, 0.0) == unrotated

    def test_full_turn_periodicity(self):
        inp = make_input(0.7, 0.4, 0.9, -1.2)
        assert psi_interference(inp, 2 * math.pi) == pytest.approx(
            psi_interference(inp, 0.0), abs=1e-12
        )

    def test_scan_matches_direct_evaluation(self):
        inp = make_input(0.6, 1.0, 1.1, -0.3)
        alphas = np.linspace(-BOUND, BOUND, 201)
        oracle = oracle_magnitudes(inp, rotation_grid(alphas))
        got = np.array([abs(psi_interference(inp, a)) for a in alphas])
        assert np.all(got >= 0.0)
        assert np.max(np.abs(got - oracle)) < 1e-12


# square and non-square grids, a single row, and a grid whose pitch is one
# wavelength (every integer sum is a grating lobe)
EVALUATION_GRIDS = FALLBACK_GRIDS + (
    RisConfig(m_rows=8, n_cols=8),
    RisConfig(m_rows=64, n_cols=2, dx=0.01, dy=0.05),
    RisConfig(m_rows=5, n_cols=3, dx=0.0508, dy=0.0508),
)


def near_lobe_inputs(rng, count):
    """Inputs whose axis arguments pi * u * pitch / wavelength lie near a multiple of pi.

    Half are near-specular (u near 0: the receiver opposite the interferer
    at the same elevation); half put both nodes at grazing elevation on one
    grid axis (u near (+-2, 0) or (0, +-2): a grating lobe of the
    half-wavelength grid on one axis, u near 0 on the other).  Each is
    perturbed by up to 1e-7, so some arguments fall inside the 1e-8 snap to
    the analytic limit and some just outside it.
    """
    found = []
    for _ in range(count):
        ris = rng.choice(EVALUATION_GRIDS)
        jitter = [rng.uniform(-1e-7, 1e-7) * rng.choice((1.0, 1e-1, 1e-3)) for _ in range(2)]
        if rng.random() < 0.5:
            theta, phi = rng.uniform(0.0, math.pi / 2), rng.uniform(-math.pi, math.pi)
            angles = (theta, phi, theta + abs(jitter[0]), phi + math.pi + jitter[1])
        else:
            phi = rng.choice((0.0, math.pi / 2, math.pi, -math.pi / 2))
            angles = (math.pi / 2, phi, math.pi / 2 - abs(jitter[0]), phi + jitter[1])
        found.append((make_input(*angles, ris=ris), rng.uniform(-1e-9, 1e-9)))
    return found


def near_a_multiple_of_pi(inp, alpha):
    """Whether either axis argument lies within the 1e-8 snap of a multiple of pi."""
    ris = inp.ris
    sin_i, sin_r = math.sin(inp.theta_i), math.sin(inp.theta_r)
    rot_i, rot_r = inp.phi_i + alpha, inp.phi_r + alpha
    ux = sin_i * math.cos(rot_i) + sin_r * math.cos(rot_r)
    uy = sin_i * math.sin(rot_i) + sin_r * math.sin(rot_r)
    args = (math.pi * ux * ris.dx / ris.wavelength, math.pi * uy * ris.dy / ris.wavelength)
    return any(abs(x - round(x / math.pi) * math.pi) < 1e-8 for x in args)


class TestEvaluationBitForBit:
    """psi_interference equals the composed evaluation exactly."""

    def assert_exact(self, inp, alpha):
        assert psi_interference(inp, alpha) == composed_psi_interference(inp, alpha)

    def test_seeded_random_inputs(self):
        rng = random.Random(20261019)
        for _ in range(5000):
            top = rng.choice((math.pi / 2, math.pi))
            inp = make_input(
                rng.uniform(0.0, top),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.0, top),
                rng.uniform(-math.pi, math.pi),
                ris=rng.choice(EVALUATION_GRIDS),
            )
            bound = rng.choice((0.001, BOUND, 1.0, 4.0))
            self.assert_exact(inp, rng.uniform(-bound, bound))

    def test_rotations_that_carry_an_azimuth_across_pi(self):
        rng = random.Random(31)
        crossed = 0
        for _ in range(2000):
            margin = rng.uniform(0.0, 0.1)
            side = rng.choice((1.0, -1.0))
            phi = side * (math.pi - margin)
            alpha = side * (margin + rng.uniform(-0.05, 0.05))
            other = rng.uniform(-math.pi, math.pi)
            phis = (phi, other) if rng.random() < 0.5 else (other, phi)
            inp = make_input(
                rng.uniform(0.0, math.pi / 2), phis[0],
                rng.uniform(0.0, math.pi / 2), phis[1],
                ris=rng.choice(EVALUATION_GRIDS),
            )
            crossed += not -math.pi < phi + alpha <= math.pi
            self.assert_exact(inp, alpha)
        assert crossed > 500
        # sums that land on -pi exactly wrap to pi, and on pi stay there; the
        # sign of sin(+-pi) shows in the other node's share of u_y
        for phi, alpha in ((-math.pi / 2, -math.pi / 2), (math.pi / 2, math.pi / 2), (0.0, math.pi)):
            assert phi + alpha in (-math.pi, math.pi)
            for _ in range(50):
                theta, other = rng.uniform(0.1, math.pi / 2), rng.uniform(-math.pi, math.pi)
                self.assert_exact(make_input(0.7, phi, theta, other, ris=RIS), alpha)
                self.assert_exact(make_input(theta, other, 0.7, phi, ris=RIS), alpha)

    def test_zero_elevations(self):
        rng = random.Random(5)
        for _ in range(500):
            theta = rng.uniform(0.0, math.pi / 2)
            thetas = rng.choice(((0.0, theta), (theta, 0.0), (0.0, 0.0)))
            inp = make_input(
                thetas[0], rng.uniform(-math.pi, math.pi),
                thetas[1], rng.uniform(-math.pi, math.pi),
                ris=rng.choice(EVALUATION_GRIDS),
            )
            self.assert_exact(inp, rng.uniform(-1.0, 1.0))

    def test_arguments_near_a_multiple_of_pi(self):
        cases = near_lobe_inputs(random.Random(77), 3000)
        for inp, alpha in cases:
            self.assert_exact(inp, alpha)
        near = sum(near_a_multiple_of_pi(inp, alpha) for inp, alpha in cases)
        assert 500 < near < len(cases) - 500


class TestFallbackWork:
    """Every evaluation of |psi|, residual check or search point, is one psi_interference call."""

    @staticmethod
    def count_evaluations(monkeypatch):
        calls = []
        evaluate = nullsteer.psi_interference

        def counted(inp, alpha):
            calls.append(alpha)
            return evaluate(inp, alpha)

        monkeypatch.setattr(nullsteer, "psi_interference", counted)
        return calls

    def test_a_fallback_step_scans_17_points_and_refines_each_bracket(self, monkeypatch):
        calls = self.count_evaluations(monkeypatch)
        refine = 2 + nullsteer._REFINE_STEPS
        for inp in no_null_instances(4242, 200):
            roots = sorted(null_rotations(inp), key=abs)
            calls.clear()
            select_rotation(inp)
            assert calls[: len(roots)] == roots
            coarse = calls[len(roots) : len(roots) + 17]
            assert coarse == [inp.alpha_bound * (i - 8) / 8 for i in range(17)]
            residuals = [abs(psi_interference(inp, alpha)) for alpha in coarse]
            brackets = sum(
                residual <= residuals[max(i - 1, 0)] and residual <= residuals[min(i + 1, 16)]
                for i, residual in enumerate(residuals)
            )
            assert brackets >= 1
            assert len(calls) == len(roots) + 17 + brackets * refine

    def test_an_analytic_step_evaluates_only_root_residuals(self, monkeypatch):
        calls = self.count_evaluations(monkeypatch)
        assert select_rotation(make_input(0.6, 0.3, 0.4, -1.0)).mode == MODE_ANALYTIC
        assert len(calls) == 1
        rng = random.Random(8)
        modes = set()
        for _ in range(2000):
            inp = make_input(
                rng.uniform(0.0, math.pi / 2), rng.uniform(-math.pi, math.pi),
                rng.uniform(0.0, math.pi / 2), rng.uniform(-math.pi, math.pi),
                bound=rng.choice(FALLBACK_BOUNDS), ris=rng.choice(FALLBACK_GRIDS),
            )
            roots = sorted(null_rotations(inp), key=abs)
            calls.clear()
            mode = select_rotation(inp).mode
            modes.add(mode)
            if mode == MODE_ANALYTIC:
                assert 1 <= len(calls) <= len(roots)
                assert calls == roots[: len(calls)]
            else:
                assert len(calls) > len(roots) + 17
        assert MODE_ANALYTIC in modes and MODE_FALLBACK in modes


class TestHarmonicCoefficients:
    def test_antipodal_cancellation(self):
        p, q = direction_cosine_sums(math.sin(math.pi / 2), 0.0, math.sin(math.pi / 2), math.pi)
        assert p == 0.0
        assert abs(q) < 1e-12

    def test_symmetric_example(self):
        p, q = direction_cosine_sums(
            math.sin(math.pi / 4), 0.0, math.sin(math.pi / 4), math.pi / 2
        )
        assert p == pytest.approx(math.sqrt(2) / 2, rel=1e-12)
        assert q == pytest.approx(math.sqrt(2) / 2, rel=1e-12)

    @settings(max_examples=200)
    @given(
        elevations,
        azimuths,
        elevations,
        azimuths,
        st.floats(-10.0, 10.0, allow_nan=False),
    )
    def test_defining_identities(self, theta_i, phi_i, theta_r, phi_r, alpha):
        p, q = direction_cosine_sums(math.sin(theta_i), phi_i, math.sin(theta_r), phi_r)
        pi_, pr = phi_i, phi_r
        lhs_cos = math.sin(theta_i) * math.cos(pi_ + alpha) + math.sin(theta_r) * math.cos(
            pr + alpha
        )
        lhs_sin = math.sin(theta_i) * math.sin(pi_ + alpha) + math.sin(theta_r) * math.sin(
            pr + alpha
        )
        assert abs(lhs_cos - (p * math.cos(alpha) - q * math.sin(alpha))) < 1e-12
        assert abs(lhs_sin - (q * math.cos(alpha) + p * math.sin(alpha))) < 1e-12
        amplitude = math.hypot(p, q)
        assert abs(
            lhs_cos - amplitude * math.cos(alpha + math.atan2(q, p))
        ) < 1e-12


class TestCandidateAlphas:
    def test_symmetric_example_contains_known_roots(self):
        inp = make_input(math.pi / 4, 0.0, math.pi / 4, math.pi / 2)
        expected = math.acos(11.0 / 16.0) - math.pi / 4
        for cands in (null_rotations(inp), candidate_alphas(inp)):
            assert any(abs(a - expected) < 1e-9 for a in cands)
            assert any(abs(a + expected) < 1e-9 for a in cands)
            residuals = oracle_magnitudes(inp, rotation_grid(cands))
            assert np.all(residuals <= 1e-9)
            assert all(abs(a) <= inp.alpha_bound + 1e-12 for a in cands)

    def test_zero_amplitude_has_no_candidates(self):
        inp = make_input(math.pi / 2, 0.0, math.pi / 2, math.pi)
        assert null_rotations(inp) == []
        assert candidate_alphas(inp) == []

    @settings(max_examples=100, deadline=None)
    @given(elevations, azimuths, elevations, azimuths)
    def test_unconstrained_candidates_are_true_nulls(self, ti, pi_, tr, pr):
        inp = make_input(ti, pi_, tr, pr, bound=math.pi)
        sol = select_rotation(inp)
        p, q = direction_cosine_sums(math.sin(ti), pi_, math.sin(tr), pr)
        if math.hypot(p, q) >= inp.ris.wavelength / (inp.ris.m_rows * inp.ris.dx):
            # a row null is always admissible at full freedom
            assert sol.mode == MODE_ANALYTIC
        if sol.mode == MODE_ANALYTIC:
            assert oracle_magnitudes(inp, rotation_grid([sol.alpha]))[0] <= 1e-9
        roots = [a for a in null_rotations(inp) if abs(psi_interference(inp, a)) <= 1e-9]
        if roots:
            assert np.all(oracle_magnitudes(inp, rotation_grid(roots)) <= 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        elevations,
        azimuths,
        elevations,
        azimuths,
        st.floats(-2.0, 2.0, allow_nan=False),
    )
    def test_azimuth_shift_equivariance(self, ti, pi_, tr, pr, delta):
        base = candidate_alphas(make_input(ti, pi_, tr, pr, bound=math.pi))
        shifted = candidate_alphas(
            make_input(ti, pi_ + delta, tr, pr + delta, bound=math.pi)
        )
        assume(base)
        # keep clear of candidate collisions and of the +/- pi branch cut,
        # where sorting order is not stable under tiny perturbations
        if len(base) > 1:
            min_gap = min(
                abs(wrap_angle(x - y)) for i, x in enumerate(base) for y in base[i + 1 :]
            )
            assume(min_gap > 1e-6)
        assume(all(abs(abs(wrap_angle(a - delta)) - math.pi) > 1e-6 for a in base))
        assert len(base) == len(shifted)
        expected = sorted(wrap_angle(a - delta) for a in base)
        got = sorted(shifted)
        for a, b in zip(expected, got):
            assert abs(wrap_angle(a - b)) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, math.pi, allow_nan=False),
        azimuths,
        st.floats(0.0, math.pi, allow_nan=False),
        azimuths,
        st.one_of(
            st.floats(1e-6, math.pi, allow_nan=False),
            st.floats(math.pi, 10.0, allow_nan=False),
        ),
        st.sampled_from(GRIDS),
    )
    def test_matches_exhaustive_enumeration(self, ti, pi_, tr, pr, bound, ris):
        inp = make_input(ti, pi_, tr, pr, bound=bound, ris=ris)
        assert candidate_alphas(inp) == oracle_candidates(inp)
        assert_matches_enumeration(inp)

    @settings(max_examples=200, deadline=None)
    @given(
        elevations,
        azimuths,
        elevations,
        azimuths,
        st.integers(0, 10**6),
        st.sampled_from([-2e-12, -1e-12, -5e-13, 0.0, 1e-15, 1e-12]),
        st.sampled_from(GRIDS),
    )
    def test_matches_enumeration_with_a_null_on_the_bound(
        self, ti, pi_, tr, pr, pick, offset, ris
    ):
        # a budget that ends exactly at a null: the searched interval's edge
        everywhere = oracle_candidates(make_input(ti, pi_, tr, pr, bound=math.pi, ris=ris))
        assume(everywhere)
        bound = abs(everywhere[pick % len(everywhere)]) + offset
        assume(bound > 0.0)
        inp = make_input(ti, pi_, tr, pr, bound=bound, ris=ris)
        assert candidate_alphas(inp) == oracle_candidates(inp)
        assert_matches_enumeration(inp)

    def test_matches_enumeration_on_seeded_instances(self):
        rng = random.Random(20250326)
        for _ in range(3000):
            inp = make_input(
                rng.uniform(0.0, math.pi / 2),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.0, math.pi / 2),
                rng.uniform(-math.pi, math.pi),
                bound=rng.choice((BOUND, 0.001, rng.uniform(1e-6, 4.0))),
                ris=rng.choice(GRIDS),
            )
            assert candidate_alphas(inp) == oracle_candidates(inp)
            assert_matches_enumeration(inp)

    @settings(max_examples=100, deadline=None)
    @given(elevations, azimuths, elevations, azimuths)
    def test_bound_respected(self, ti, pi_, tr, pr):
        inp = make_input(ti, pi_, tr, pr)
        for alpha in null_rotations(inp) + candidate_alphas(inp):
            assert abs(alpha) <= inp.alpha_bound + 1e-12


class TestSelectRotation:
    def test_already_nulled_at_zero(self):
        # u_x(0) = 1 + 0.3125 = 21 * wavelength / (32 * dx) holds exactly
        inp = make_input(math.pi / 2, 0.0, math.asin(0.3125), 0.0)
        sol = select_rotation(inp)
        assert sol.alpha == 0.0
        assert sol.mode == MODE_ANALYTIC
        assert sol.residual <= 1e-9

    def test_symmetric_example_selects_smallest_magnitude(self):
        inp = make_input(math.pi / 4, 0.0, math.pi / 4, math.pi / 2)
        sol = select_rotation(inp)
        assert sol.mode == MODE_ANALYTIC
        assert abs(sol.alpha) == pytest.approx(
            math.acos(11.0 / 16.0) - math.pi / 4, abs=1e-9
        )
        # the row and column candidates tie in magnitude exactly here, and
        # the tie-break takes the more negative one
        assert sol.alpha < 0.0
        assert sol.residual <= 1e-9
        cands = candidate_alphas(inp)
        assert all(abs(sol.alpha) <= abs(a) + 1e-15 for a in cands)

    def test_zero_amplitude_leaves_pose_alone(self):
        inp = make_input(math.pi / 2, 0.0, math.pi / 2, math.pi)
        sol = select_rotation(inp)
        assert sol.alpha == 0.0
        assert sol.mode == MODE_NONE

    def test_fallback_when_no_null_reachable(self):
        # tiny elevations keep the direction-cosine amplitude below the first
        # null spacing, so no analytic candidate exists at any rotation
        inp = make_input(0.01, 0.3, 0.012, -1.0)
        assert candidate_alphas(inp) == []
        sol = select_rotation(inp)
        assert sol.mode in (MODE_FALLBACK, MODE_NONE)
        assert abs(sol.alpha) <= inp.alpha_bound
        assert sol.residual <= abs(psi_interference(inp, 0.0))

    @settings(max_examples=100, deadline=None)
    @given(elevations, azimuths, elevations, azimuths)
    def test_never_exceeds_budget_and_never_hurts(self, ti, pi_, tr, pr):
        inp = make_input(ti, pi_, tr, pr)
        sol = select_rotation(inp)
        assert abs(sol.alpha) <= inp.alpha_bound + 1e-12
        assert sol.residual <= abs(psi_interference(inp, 0.0)) + 1e-15
        assert sol.residual == pytest.approx(
            abs(psi_interference(inp, sol.alpha)), abs=1e-15
        )

    def test_fallback_no_worse_than_the_2001_point_grid(self):
        for inp in no_null_instances(20260418, 10**4):
            assert_fallback_no_worse_than_grid(inp)

    def test_fallback_reaches_the_fine_grid_minimum(self):
        # one 10^5-point grid per budget, shared by the instances drawn with it
        grids = {b: rotation_grid(np.linspace(-b, b, 10**5)) for b in FALLBACK_BOUNDS}
        for inp in no_null_instances(7, 200):
            fine = oracle_magnitudes(inp, grids[inp.alpha_bound])
            assert select_rotation(inp).residual <= fine.min() + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.floats(0.0, 0.03), elevations),
        azimuths,
        st.one_of(st.floats(0.0, 0.03), elevations),
        azimuths,
        st.floats(1e-4, 1.0),
        st.sampled_from(FALLBACK_GRIDS),
    )
    def test_fallback_property(self, ti, pi_, tr, pr, bound, ris):
        inp = make_input(ti, pi_, tr, pr, bound=bound, ris=ris)
        assume(not candidate_alphas(inp))
        assert_fallback_no_worse_than_grid(inp)

    @pytest.mark.parametrize(
        "theta_r, phi_r", [(math.asin(0.3125), 0.0), (0.6, 0.4), (0.012, -1.0), (0.0, 0.0)]
    )
    def test_interferer_straight_below_ignores_its_bearing(self, theta_r, phi_r):
        # sin(theta_i) = 0 zeroes the interferer's direction-cosine terms, so the
        # bearing ``sight`` gives a node straight below (0.0) is as good as any.
        seen = set()
        for phi_i in (0.0, 1.0, -2.5, math.pi):
            inp = make_input(0.0, phi_i, theta_r, phi_r)
            sol = select_rotation(inp)
            psi = [abs(psi_interference(inp, a)) for a in (0.0, sol.alpha, BOUND, -BOUND)]
            seen.add((sol.alpha, sol.residual, sol.mode, *psi))
        assert len(seen) == 1

    def test_rejects_nonpositive_budget(self):
        for bound in (0.0, -1.0, math.nan, math.inf):  # NaN and inf reached the array factor
            with pytest.raises(ValueError, match="alpha_bound must be finite and > 0"):
                make_input(0.5, 0.0, 0.5, 1.0, bound=bound)


def merging_roots(kind):
    """Inputs whose nearest null is a row root and a column root less than 1e-12 apart.

    With the receiver straight below and sin(theta_i) = 5/16, the sum
    u = (3/16, 4/16) zeroes both the row and the column factor of the default
    grid (a 3-4-5 triangle), so one rotation solves a row and a column level
    and the two computed roots differ by rounding only.  ``kind`` "negative"
    turns that common root to about -delta; "straddling" keeps it at zero,
    where the two roots fall on either side.  Only inputs where the rounding
    makes the closer root differ from the one the enumeration keeps are
    returned.
    """
    theta = math.asin(0.3125)
    azimuth = math.atan2(4.0, 3.0)
    if kind == "negative":
        shapes = [(theta, azimuth + 0.002 * j) for j in range(1, 40)]
    else:
        shapes = [
            (theta + i * 2e-16, azimuth + j * 1.1e-16) for i in range(-8, 8) for j in range(-8, 8)
        ]
    found = []
    for theta_i, phi_i in shapes:
        inp = make_input(theta_i, phi_i, 0.0, 0.0)
        passing = sorted(
            a for a in null_rotations(inp) if abs(psi_interference(inp, a)) <= 1e-9
        )
        pairs = [(a, b) for a, b in zip(passing, passing[1:]) if 0.0 < b - a <= 1e-12]
        if not pairs:
            continue
        low, high = pairs[0]
        side = high < 0.0 if kind == "negative" else low < 0.0 < high
        if side and abs(high) < abs(low):
            found.append(inp)
    return found


class TestNearestNull:
    """select_rotation against the full enumeration of every null level."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, math.pi, allow_nan=False),
        azimuths,
        st.floats(0.0, math.pi, allow_nan=False),
        azimuths,
        st.one_of(
            st.floats(1e-6, math.pi, allow_nan=False),
            st.floats(math.pi, 10.0, allow_nan=False),
        ),
        st.sampled_from(FALLBACK_GRIDS),
    )
    def test_selection_matches_enumeration(self, ti, pi_, tr, pr, bound, ris):
        assert_matches_enumeration(make_input(ti, pi_, tr, pr, bound=bound, ris=ris))

    def test_selection_matches_enumeration_on_seeded_instances(self):
        rng = random.Random(20261018)
        grids = FALLBACK_GRIDS + (RisConfig(m_rows=64, n_cols=2, dx=0.01, dy=0.05),)
        for _ in range(10**4):
            top = rng.choice((math.pi / 2, math.pi / 2, 0.3, math.pi))
            inp = make_input(
                rng.uniform(0.0, top),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.0, top),
                rng.uniform(-math.pi, math.pi),
                bound=rng.choice((0.001, BOUND, 0.3, 1.0, math.pi, rng.uniform(1e-6, 4.0))),
                ris=rng.choice(grids),
            )
            assert_matches_enumeration(inp)

    @pytest.mark.parametrize("kind", ["negative", "straddling"])
    def test_roots_closer_than_the_merge_gap(self, kind):
        cases = merging_roots(kind)
        assert len(cases) >= 5
        for inp in cases:
            assert_matches_enumeration(inp)

    def test_an_isolated_nearest_null_stops_after_one_residual(self, monkeypatch):
        inp = make_input(0.6, 0.3, 0.4, -1.0)
        roots = sorted(null_rotations(inp), key=abs)
        assert len(roots) == 3
        assert abs(roots[1]) - abs(roots[0]) > 1e-12
        expected = enumerated_selection(inp)[:2]
        calls = []

        def counted(inp, alpha):
            calls.append(alpha)
            return psi_interference(inp, alpha)

        monkeypatch.setattr(nullsteer, "psi_interference", counted)
        assert nearest_null(inp) == expected
        assert calls == [roots[0]]
