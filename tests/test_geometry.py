import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drs_sim.geometry import (
    AngularCoords,
    Pose,
    Vec3,
    local_azimuth,
    rotation_between,
    sight,
    step_displacement,
    wrap_angle,
)

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


# Elevation and yawed azimuth of a node, as the step kernel computes them:
# sight() from the surface, then local_azimuth() of its bearing.
class TestAnglesTo:
    def test_directly_below(self):
        theta, bearing, _ = sight(Vec3(0, 0, 100), Vec3(0, 0, 1.5))
        assert theta == 0.0
        assert local_azimuth(bearing, 0.0) == 0.0

    def test_forty_five_degrees(self):
        theta, bearing, _ = sight(Vec3(0, 0, 100), Vec3(98.5, 0, 1.5))
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert local_azimuth(bearing, 0.0) == 0.0

    def test_yaw_subtracts_from_azimuth(self):
        theta, bearing, _ = sight(Vec3(0, 0, 100), Vec3(98.5, 0, 1.5))
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert local_azimuth(bearing, math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_rejects_target_at_or_above(self):
        surface = Vec3(0, 0, 100)
        with pytest.raises(ValueError):
            sight(surface, Vec3(5, 5, 100))
        with pytest.raises(ValueError):
            sight(surface, Vec3(5, 5, 101))

    @given(coords, coords, coords, coords, heights, yaws)
    def test_elevation_in_front_quarter(self, px, py, tx, ty, dh, yaw):
        pose = Pose(Vec3(px, py, 50.0), yaw)
        theta, bearing, _ = sight(pose.position, Vec3(tx, ty, 50.0 - dh))
        assert 0.0 <= theta < math.pi / 2
        assert -math.pi < local_azimuth(bearing, pose.yaw) <= math.pi

    @given(coords, coords, coords, coords, heights, yaws, yaws)
    def test_yaw_changes_only_azimuth(self, px, py, tx, ty, dh, yaw_a, yaw_b):
        # sight() takes no yaw, so the elevation cannot depend on it; the
        # azimuths in the two frames differ by exactly the yaw difference.
        _, bearing, _ = sight(Vec3(px, py, 50.0), Vec3(tx, ty, 50.0 - dh))
        a = local_azimuth(bearing, Pose(Vec3(px, py, 50.0), yaw_a).yaw)
        b = local_azimuth(bearing, Pose(Vec3(px, py, 50.0), yaw_b).yaw)
        if bearing is not None:
            assert abs(wrap_angle(a - b - (yaw_b - yaw_a))) < 1e-9

    @given(
        st.floats(-math.pi, math.pi, allow_nan=False),
        yaws,
        st.floats(1.0, 1e3, allow_nan=False),
    )
    def test_azimuth_round_trip(self, phi0, yaw, radius):
        pose = Pose(Vec3(10.0, -20.0, 300.0), yaw)
        target = Vec3(
            pose.position.x + radius * math.cos(phi0),
            pose.position.y + radius * math.sin(phi0),
            1.5,
        )
        _, bearing, _ = sight(pose.position, target)
        expected = wrap_angle(phi0 - yaw)
        # compare as directions to avoid the branch point at +/- pi
        assert abs(wrap_angle(local_azimuth(bearing, pose.yaw) - expected)) < 1e-9


class TestRotationBetween:
    def test_identical_poses(self):
        pose = Pose(Vec3(1, 2, 100), 0.4)
        assert rotation_between(pose, pose) == 0.0

    def test_small_difference(self):
        a = Pose(Vec3(0, 0, 100), 0.1)
        b = Pose(Vec3(0, 0, 100), 0.0)
        assert rotation_between(a, b) == pytest.approx(0.1, abs=1e-15)

    def test_wraps_across_half_turn(self):
        a = Pose(Vec3(0, 0, 100), math.pi - 0.05)
        b = Pose(Vec3(0, 0, 100), -math.pi + 0.05)
        assert rotation_between(a, b) == pytest.approx(0.1, abs=1e-12)

    @given(yaws, yaws)
    def test_symmetric_and_bounded(self, ya, yb):
        a = Pose(Vec3(0, 0, 100), ya)
        b = Pose(Vec3(0, 0, 100), yb)
        assert rotation_between(a, b) == rotation_between(b, a)
        assert 0.0 <= rotation_between(a, b) <= math.pi


class TestStepDisplacement:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (Vec3(0, 0, 0), Vec3(0, 0, 0), 0.0),
            (Vec3(0, 0, 0), Vec3(3, 4, 0), 5.0),
            (Vec3(1, 1, 1), Vec3(1, 1, 10), 9.0),
        ],
    )
    def test_examples(self, a, b, expected):
        assert step_displacement(a, b) == expected

    @given(coords, coords, coords, coords)
    def test_matches_hypot(self, ax, ay, bx, by):
        got = step_displacement(Vec3(ax, ay, 5.0), Vec3(bx, by, 5.0))
        assert got == pytest.approx(math.hypot(bx - ax, by - ay), rel=1e-12, abs=1e-12)


class TestPose:
    def test_yaw_normalized_on_construction(self):
        assert Pose(Vec3(0, 0, 1), 3 * math.pi).yaw == pytest.approx(math.pi)
        assert Pose(Vec3(0, 0, 1), -math.pi).yaw == math.pi

    @given(yaws, yaws)
    def test_rotated_accumulates_and_wraps(self, yaw, delta):
        # the engine turns a pose by building a new one from the wrapped yaw
        start = Pose(Vec3(0, 0, 1), yaw)
        pose = Pose(start.position, start.yaw + delta)
        assert -math.pi < pose.yaw <= math.pi
        assert abs(wrap_angle(pose.yaw - (yaw + delta))) < 1e-9


class TestAngularCoords:
    def test_rejects_bad_elevation(self):
        with pytest.raises(ValueError):
            AngularCoords(-0.1, 0.0)
        with pytest.raises(ValueError):
            AngularCoords(math.pi + 0.1, 0.0)

    def test_wraps_azimuth(self):
        assert AngularCoords(0.5, 2 * math.pi + 0.25).phi == pytest.approx(0.25)
