import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drs_sim.geometry import local_azimuth, sight, step_displacement, wrap_angle

coords = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
yaws = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
heights = st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False)


class TestWrapAngle:
    def test_half_turn_maps_to_positive_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi

    @given(yaws)
    def test_idempotent(self, angle):
        assert wrap_angle(wrap_angle(angle)) == wrap_angle(angle)

    # Around +-pi, +-2pi and the signed zeros, where a shortcut for angles
    # already in range could differ from remainder() in the last bit or the sign.
    EDGES = [
        math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0),
        math.nextafter(-math.pi, 0.0), math.nextafter(-math.pi, -4.0), 2 * math.pi,
        -2 * math.pi, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
    ]

    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGES)))
    def test_equals_remainder_reference_bit_for_bit(self, angle):
        reference = math.remainder(angle, 2 * math.pi)
        if reference <= -math.pi:
            reference += 2 * math.pi
        assert struct.pack("<d", wrap_angle(angle)) == struct.pack("<d", reference)

    def test_nan_stays_nan(self):
        assert math.isnan(wrap_angle(math.nan))

    @pytest.mark.parametrize("angle", [math.inf, -math.inf])
    def test_infinity_raises(self, angle):
        with pytest.raises(ValueError):
            wrap_angle(angle)

    def test_yaw_beyond_a_half_turn_wraps(self):
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == math.pi

    @given(yaws, yaws)
    def test_turned_yaw_accumulates_and_wraps(self, yaw, delta):
        # the engine turns the drone by wrapping the new yaw
        turned = wrap_angle(wrap_angle(yaw) + delta)
        assert -math.pi < turned <= math.pi
        assert abs(wrap_angle(turned - (yaw + delta))) < 1e-9

    @given(yaws, yaws)
    def test_yaw_change_is_symmetric_and_bounded(self, ya, yb):
        # the yaw change the constraint check measures between two yaws
        turned = abs(wrap_angle(ya - yb))
        assert turned == abs(wrap_angle(yb - ya))
        assert 0.0 <= turned <= math.pi


# Elevation and yawed azimuth of a node, as the step kernel computes them:
# sight() from the surface, then local_azimuth() of its bearing.
class TestAnglesTo:
    def test_directly_below(self):
        theta, bearing, _ = sight((0, 0, 100), (0, 0, 1.5))
        assert theta == 0.0
        assert local_azimuth(bearing, 0.0) == 0.0

    def test_forty_five_degrees(self):
        theta, bearing, _ = sight((0, 0, 100), (98.5, 0, 1.5))
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert local_azimuth(bearing, 0.0) == 0.0

    def test_yaw_subtracts_from_azimuth(self):
        theta, bearing, _ = sight((0, 0, 100), (98.5, 0, 1.5))
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert local_azimuth(bearing, math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_rejects_target_at_or_above(self):
        surface = (0, 0, 100)
        with pytest.raises(ValueError):
            sight(surface, (5, 5, 100))
        with pytest.raises(ValueError):
            sight(surface, (5, 5, 101))

    @given(coords, coords, coords, coords, heights, yaws)
    def test_elevation_in_front_quarter(self, px, py, tx, ty, dh, yaw):
        theta, bearing, _ = sight((px, py, 50.0), (tx, ty, 50.0 - dh))
        assert 0.0 <= theta < math.pi / 2
        assert -math.pi < local_azimuth(bearing, wrap_angle(yaw)) <= math.pi

    @given(coords, coords, coords, coords, heights, yaws, yaws)
    def test_yaw_changes_only_azimuth(self, px, py, tx, ty, dh, yaw_a, yaw_b):
        # sight() takes no yaw, so the elevation cannot depend on it; the
        # azimuths in the two frames differ by exactly the yaw difference.
        _, bearing, _ = sight((px, py, 50.0), (tx, ty, 50.0 - dh))
        a = local_azimuth(bearing, wrap_angle(yaw_a))
        b = local_azimuth(bearing, wrap_angle(yaw_b))
        if bearing is not None:
            assert abs(wrap_angle(a - b - (yaw_b - yaw_a))) < 1e-9

    @given(
        st.floats(-math.pi, math.pi, allow_nan=False),
        yaws,
        st.floats(1.0, 1e3, allow_nan=False),
    )
    def test_azimuth_round_trip(self, phi0, yaw, radius):
        surface = (10.0, -20.0, 300.0)
        target = (
            surface[0] + radius * math.cos(phi0),
            surface[1] + radius * math.sin(phi0),
            1.5,
        )
        _, bearing, _ = sight(surface, target)
        expected = wrap_angle(phi0 - yaw)
        # compare as directions to avoid the branch point at +/- pi
        assert abs(wrap_angle(local_azimuth(bearing, wrap_angle(yaw)) - expected)) < 1e-9


class TestStepDisplacement:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((0, 0, 0), (0, 0, 0), 0.0),
            ((0, 0, 0), (3, 4, 0), 5.0),
            ((1, 1, 1), (1, 1, 10), 9.0),
        ],
    )
    def test_examples(self, a, b, expected):
        assert step_displacement(a, b) == expected

    @given(coords, coords, coords, coords)
    def test_matches_hypot(self, ax, ay, bx, by):
        got = step_displacement((ax, ay, 5.0), (bx, by, 5.0))
        assert got == pytest.approx(math.hypot(bx - ax, by - ay), rel=1e-12, abs=1e-12)
