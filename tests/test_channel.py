import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drs_sim.channel import (
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
from drs_sim.geometry import sight

from _oracles import phasor_sum_psi_scalar

RIS = RisConfig()

elevations = st.floats(0.0, math.pi / 2 - 1e-3, allow_nan=False)
azimuths = st.floats(-math.pi, math.pi, allow_nan=False, exclude_min=True)

# Element patterns of the hop most path-loss tests use: elevations 0.5 and 0.4.
F_T, F_R = radiation_pattern(0.5), radiation_pattern(0.4)


class TestRadiationPattern:
    def test_boresight(self):
        assert radiation_pattern(0.0) == 1.0

    def test_sixty_degrees(self):
        assert radiation_pattern(math.pi / 3) == pytest.approx(0.125, abs=1e-15)

    def test_behind_surface_is_zero(self):
        assert radiation_pattern(2.0) == 0.0
        assert radiation_pattern(math.pi) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            radiation_pattern(-0.01)
        with pytest.raises(ValueError):
            radiation_pattern(math.pi + 0.01)


def dirichlet(count: int, arg: float) -> float:
    """The Dirichlet ratio at ``arg`` as ``array_factor`` computes it, on either axis.

    On a ``count`` x 1 surface with dx = wavelength the row argument
    pi * ux * dx / wavelength is pi * ux, and the one column's factor is
    exactly 1.0.  The 1 x ``count`` surface does the same for the column
    factor, and the two axes must agree.
    """
    u = arg / math.pi
    row = array_factor(RisConfig(m_rows=count, n_cols=1, dx=1.0, wavelength=1.0), u, 0.0)
    col = array_factor(RisConfig(m_rows=1, n_cols=count, dy=1.0, wavelength=1.0), 0.0, u)
    assert row == col
    return row


class TestDirichletRatio:
    def test_single_element_is_flat(self):
        for arg in (0.0, 0.3, math.pi / 4, 2.9, -1.7):
            assert dirichlet(1, arg) == 1.0

    def test_main_lobe(self):
        assert dirichlet(4, 0.0) == 1.0

    def test_null(self):
        assert dirichlet(4, math.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_bad_count(self):
        for bad in ({"m_rows": 0}, {"n_cols": 0}, {"m_rows": -1}):
            with pytest.raises(ValueError, match="must be >= 1"):
                RisConfig(**bad)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 8, 16, 32])
    @pytest.mark.parametrize("k", [-3, -2, -1, 0, 1, 2, 3])
    def test_grating_lobe_limits(self, count, k):
        expected = -1.0 if (k * (count - 1)) % 2 else 1.0
        assert dirichlet(count, k * math.pi) == expected

    @pytest.mark.parametrize("count", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 2])
    def test_continuity_at_grating_lobes(self, count, k):
        limit = dirichlet(count, k * math.pi)
        for eps in (1e-9, -1e-9):
            assert abs(dirichlet(count, k * math.pi + eps) - limit) < 1e-6

    @given(st.integers(1, 64), st.floats(-50.0, 50.0, allow_nan=False))
    def test_bounded_by_unit_magnitude(self, count, arg):
        assert abs(dirichlet(count, arg)) <= 1.0 + 1e-12


class TestPsi:
    def test_specular_pair_is_unity(self):
        sums = direction_cosine_sums(math.sin(0.7), 0.3, math.sin(0.7), 0.3 + math.pi)
        assert array_factor(RIS, *sums) == 1.0

    def test_single_element_any_angles(self):
        one = RisConfig(m_rows=1, n_cols=1)
        sums = direction_cosine_sums(math.sin(0.5), 1.1, math.sin(1.2), -2.0)
        assert array_factor(one, *sums) == 1.0

    def test_spot_value_against_phasor_sum(self):
        ris = RisConfig(m_rows=8, n_cols=8)
        sums = direction_cosine_sums(
            math.sin(math.pi / 4), 0.0, math.sin(math.pi / 4), math.pi / 3
        )
        got = abs(array_factor(ris, *sums))
        # frozen from the explicit 64-element phasor sum
        assert got == pytest.approx(0.01304806761775329, abs=1e-12)
        oracle = phasor_sum_psi_scalar(
            8, 8, ris.dx, ris.dy, ris.wavelength, math.pi / 4, 0.0, math.pi / 4, math.pi / 3
        )
        assert got == pytest.approx(oracle, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.floats(0.0, math.pi / 2, allow_nan=False),
        azimuths,
        st.floats(0.0, math.pi / 2, allow_nan=False),
        azimuths,
    )
    def test_matches_phasor_sum(self, m, n, theta_t, phi_t, theta_r, phi_r):
        ris = RisConfig(m_rows=m, n_cols=n)
        sums = direction_cosine_sums(math.sin(theta_t), phi_t, math.sin(theta_r), phi_r)
        got = abs(array_factor(ris, *sums))
        oracle = phasor_sum_psi_scalar(
            m, n, ris.dx, ris.dy, ris.wavelength, theta_t, phi_t, theta_r, phi_r
        )
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got <= 1.0 + 1e-12


class TestPathLoss:
    def test_quadratic_in_first_distance(self):
        near = path_loss(RIS, F_T, F_R, 100.0, 200.0, 1.0)
        far = path_loss(RIS, F_T, F_R, 200.0, 200.0, 1.0)
        assert far == pytest.approx(4.0 * near, rel=1e-12)

    def test_blocked_when_elevation_behind_surface(self):
        f_behind = radiation_pattern(1.6)
        assert path_loss(RIS, f_behind, radiation_pattern(0.4), 200.0, 200.0, 1.0) == NO_PATH
        assert math.isinf(path_loss(RIS, radiation_pattern(0.4), f_behind, 200.0, 200.0, 1.0))

    def test_nulled_array_factor_gives_no_path(self):
        assert path_loss(RIS, F_T, F_R, 200.0, 200.0, 0.0) == NO_PATH

    def test_underflowing_denominator_gives_no_path(self):
        assert path_loss(RIS, F_T, F_R, 200.0, 200.0, 1e-170) == NO_PATH
        tiny_gains = RisConfig(gain_tx=1e-200, gain_rx=1e-200)
        assert path_loss(tiny_gains, F_T, F_R, 200.0, 200.0, 1.0) == NO_PATH

    def test_spot_value(self):
        # frozen from independent term-by-term evaluation:
        # 64 pi^3 * 200^4 / (32^4 * 0.0254^2 * 0.0508^2 * cos^3(pi/6)^2)
        f = radiation_pattern(math.pi / 6)
        got = path_loss(RIS, f, f, 200.0, 200.0, 1.0)
        assert got == pytest.approx(4310930422200.9893, rel=1e-12)

    @given(
        st.floats(1.5, 3.0, allow_nan=False),
        st.floats(0.1, 0.99, allow_nan=False),
    )
    def test_monotonic_in_gain_and_array_factor(self, gain, smaller_psi):
        base = path_loss(RIS, F_T, F_R, 200.0, 200.0, 1.0)
        assert path_loss(RisConfig(gain_ris=gain), F_T, F_R, 200.0, 200.0, 1.0) < base
        assert path_loss(RIS, F_T, F_R, 200.0, 200.0, smaller_psi) > base


def beamformed_loss(surface, tx, rx):
    """Path loss of the desired hop (|psi| = 1) through a surface at ``surface``."""
    theta_t, _, d_t = sight(surface, tx)
    theta_r, _, d_r = sight(surface, rx)
    return path_loss(RIS, radiation_pattern(theta_t), radiation_pattern(theta_r), d_t, d_r, 1.0)


class TestLinkBudgetOptimum:
    """Where the beamformed hop's own path loss is least, for a pair at (0, -d) and (0, d).

    Above the midpoint the loss grows as (d^2 + h^2)^5 / h^6 (two squared
    distances over two cos^3 patterns), so its best height is sqrt(3/2) d.
    Along the tx-rx axis the distance product has curvature 2 (h^2 - d^2) at
    the midpoint: a minimum above h = d, a saddle below it.
    """

    @pytest.mark.parametrize("d", [10.0, 100.0, 250.0, 1000.0])
    def test_best_height_is_sqrt_three_halves_d(self, d):
        tx, rx = (0.0, -d, 0.0), (0.0, d, 0.0)
        heights = np.linspace(0.2 * d, 5.0 * d, 20_001)
        losses = np.array([beamformed_loss((0.0, 0.0, h), tx, rx) for h in heights])
        best = heights[int(np.argmin(losses))]
        assert abs(best - math.sqrt(1.5) * d) <= heights[1] - heights[0]

    @pytest.mark.parametrize("d", [100.0, 600.0])
    @pytest.mark.parametrize("ratio", [0.3, 0.9, 1.1, 3.0])
    def test_midpoint_is_a_minimum_only_above_h_equals_d(self, d, ratio):
        tx, rx = (0.0, -d, 0.0), (0.0, d, 0.0)
        h, offsets = ratio * d, np.linspace(-0.01 * d, 0.01 * d, 3)
        along = [beamformed_loss((0.0, s, h), tx, rx) for s in offsets]
        across = [beamformed_loss((s, 0.0, h), tx, rx) for s in offsets]
        assert np.diff(across, 2)[0] > 0.0
        if ratio > 1.0:
            assert np.diff(along, 2)[0] > 0.0  # a minimum in every direction
        else:
            assert np.diff(along, 2)[0] < 0.0  # falls toward either vehicle: a saddle


class TestFraunhofer:
    def test_single_element(self):
        ris = RisConfig(m_rows=1, n_cols=1)
        assert fraunhofer_distance(ris) == pytest.approx(0.0508, rel=1e-12)

    def test_default_panel(self):
        assert fraunhofer_distance(RIS) == pytest.approx(52.0192, rel=1e-9)

    def test_doubling_panel_quadruples_distance(self):
        small = fraunhofer_distance(RisConfig(m_rows=8, n_cols=8))
        large = fraunhofer_distance(RisConfig(m_rows=16, n_cols=16))
        assert large == pytest.approx(4.0 * small, rel=1e-12)


class TestSinr:
    RADIO = RadioConfig(tx_power=0.2, noise_power=1e-13)

    def test_no_interference_standard(self):
        value = sinr(self.RADIO, 1e10, NO_PATH)
        assert value == pytest.approx(0.2 / (1e10 * 1e-13), rel=1e-12)
        assert value == pytest.approx(200.0, rel=1e-12)

    def test_with_interference(self):
        value = sinr(self.RADIO, 1e10, 1e12)
        assert value == pytest.approx((0.2 / 1e10) / (1e-13 + 0.2 / 1e12), rel=1e-12)

    def test_halving_interference_path_loss_hurts(self):
        strong = sinr(self.RADIO, 1e10, 5e11)
        weak = sinr(self.RADIO, 1e10, 1e12)
        assert strong < weak

    def test_monotonically_decreasing_in_path_loss(self):
        assert sinr(self.RADIO, 2e10, 1e12) < sinr(self.RADIO, 1e10, 1e12)

    def test_blocked_desired_link_gives_zero(self):
        assert sinr(self.RADIO, NO_PATH, 1e12) == 0.0
        assert sinr(self.RADIO, NO_PATH, NO_PATH) == 0.0


class TestRate:
    def test_zero_sinr(self):
        assert rate(RadioConfig(), 0.0) == 0.0

    def test_unit_case(self):
        assert rate(RadioConfig(efficiency=1.0, eff_bandwidth=1.0), 1.0) == 1.0

    def test_log_scaling(self):
        assert rate(RadioConfig(efficiency=0.8, eff_bandwidth=1e7), 3.0) == pytest.approx(
            1.6e7, rel=1e-12
        )

    def test_tiny_sinr_keeps_its_rate(self):
        # log2(1.0 + 1e-20) would round 1 + SINR to 1 and the rate to 0; for
        # SINR << 1 the rate is linear in it.
        radio = RadioConfig(efficiency=0.8, eff_bandwidth=1e7)
        expected = 0.8 * 1e7 * 1e-20 / math.log(2.0)
        assert rate(radio, 1e-20) == pytest.approx(expected, rel=1e-15)

    @given(st.floats(0.0, 1e6, allow_nan=False), st.floats(1.0, 1e6, allow_nan=False))
    def test_monotonic(self, low, bump):
        radio = RadioConfig()
        assert rate(radio, low + bump) > rate(radio, low)


class TestConfigValidation:
    def test_ris_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            RisConfig(m_rows=0)

    def test_ris_rejects_bad_amplitude(self):
        with pytest.raises(ValueError):
            RisConfig(amplitude=0.0)
        with pytest.raises(ValueError):
            RisConfig(amplitude=1.5)

    def test_radio_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            RadioConfig(efficiency=1.2)

    def test_link_rejects_nonpositive_distance(self):
        # Hop distances come from sight(), which refuses a node level with the
        # surface; a zero-distance hop's path loss is refused by sinr().
        with pytest.raises(ValueError):
            sight((0.0, 0.0, 100.0), (0.0, 0.0, 100.0))
        f = radiation_pattern(0.3)
        with pytest.raises(ValueError):
            sinr(RadioConfig(), path_loss(RIS, f, f, 0.0, 200.0, 1.0), NO_PATH)
