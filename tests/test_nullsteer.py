import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drs_sim.channel import RisConfig, array_factor, direction_cosine_sums
from drs_sim import nullsteer
from drs_sim.geometry import AngularCoords, wrap_angle
from drs_sim.nullsteer import (
    MODE_ANALYTIC,
    MODE_FALLBACK,
    MODE_NONE,
    NullSteerInput,
    harmonic_coefficients,
    nearest_null,
    null_rotations,
    psi_interference,
    select_rotation,
)

from _oracles import (
    candidate_alphas,
    enumerated_selection,
    exhaustive_candidate_alphas,
    grid_fallback_min,
    rotated_factor_magnitude,
)

RIS = RisConfig()
BOUND = 0.08725  # default per-step rotation budget

elevations = st.floats(0.05, math.pi / 2 - 0.05, allow_nan=False)
azimuths = st.floats(-math.pi, math.pi, allow_nan=False, exclude_min=True)


def make_input(theta_i, phi_i, theta_r, phi_r, bound=BOUND, ris=RIS):
    return NullSteerInput(
        interferer=AngularCoords(theta_i, phi_i),
        receiver=AngularCoords(theta_r, phi_r),
        ris=ris,
        alpha_bound=bound,
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
    p, q = harmonic_coefficients(inp)
    ris = inp.ris
    return exhaustive_candidate_alphas(
        p, q, ris.m_rows, ris.n_cols, ris.dx, ris.dy, ris.wavelength,
        inp.alpha_bound, lambda a: psi_interference(inp, a),
    )


def oracle_fallback(inp):
    ris, i, r = inp.ris, inp.interferer, inp.receiver
    return grid_fallback_min(
        ris.m_rows, ris.n_cols, ris.dx, ris.dy, ris.wavelength,
        i.theta, i.phi, r.theta, r.phi, inp.alpha_bound,
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


def oracle_magnitudes(inp, alphas):
    return rotated_factor_magnitude(
        inp.ris.m_rows,
        inp.ris.n_cols,
        inp.ris.dx,
        inp.ris.dy,
        inp.ris.wavelength,
        inp.interferer.theta,
        inp.interferer.phi,
        inp.receiver.theta,
        inp.receiver.phi,
        alphas,
    )


class TestPsiInterference:
    def test_zero_rotation_is_identity(self):
        inp = make_input(0.7, 0.4, 0.9, -1.2)
        interferer, receiver = inp.interferer, inp.receiver
        unrotated = array_factor(
            RIS,
            *direction_cosine_sums(interferer.theta, interferer.phi, receiver.theta, receiver.phi),
        )
        assert psi_interference(inp, 0.0) == unrotated

    def test_full_turn_periodicity(self):
        inp = make_input(0.7, 0.4, 0.9, -1.2)
        assert psi_interference(inp, 2 * math.pi) == pytest.approx(
            psi_interference(inp, 0.0), abs=1e-12
        )

    def test_scan_matches_direct_evaluation(self):
        inp = make_input(0.6, 1.0, 1.1, -0.3)
        alphas = np.linspace(-BOUND, BOUND, 201)
        oracle = oracle_magnitudes(inp, alphas)
        got = np.array([abs(psi_interference(inp, a)) for a in alphas])
        assert np.all(got >= 0.0)
        assert np.max(np.abs(got - oracle)) < 1e-12


class TestHarmonicCoefficients:
    def test_antipodal_cancellation(self):
        p, q = harmonic_coefficients(make_input(math.pi / 2, 0.0, math.pi / 2, math.pi))
        assert p == 0.0
        assert abs(q) < 1e-12

    def test_symmetric_example(self):
        p, q = harmonic_coefficients(make_input(math.pi / 4, 0.0, math.pi / 4, math.pi / 2))
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
        inp = make_input(theta_i, phi_i, theta_r, phi_r)
        p, q = harmonic_coefficients(inp)
        pi_, pr = inp.interferer.phi, inp.receiver.phi
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
            residuals = oracle_magnitudes(inp, np.array(cands))
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
        p, q = harmonic_coefficients(inp)
        if math.hypot(p, q) >= inp.ris.wavelength / (inp.ris.m_rows * inp.ris.dx):
            # a row null is always admissible at full freedom
            assert sol.mode == MODE_ANALYTIC
        if sol.mode == MODE_ANALYTIC:
            assert oracle_magnitudes(inp, np.array([sol.alpha]))[0] <= 1e-9
        roots = [a for a in null_rotations(inp) if abs(psi_interference(inp, a)) <= 1e-9]
        if roots:
            assert np.all(oracle_magnitudes(inp, np.array(roots)) <= 1e-9)

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
        for inp in no_null_instances(7, 200):
            fine = oracle_magnitudes(inp, np.linspace(-inp.alpha_bound, inp.alpha_bound, 10**5))
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

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            make_input(0.5, 0.0, 0.5, 1.0, bound=0.0)


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
