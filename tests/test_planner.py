import math
from dataclasses import astuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drs_sim.geometry import Vec3
from drs_sim.planner import (
    MotionLimits,
    WorldBounds,
    optimal_height,
    optimal_location,
    step_towards,
)

from _oracles import clamp, grid_min_height, relay_height_cost

BOUNDS = WorldBounds()
LIMITS = MotionLimits()

distances = st.floats(0.1, 1000.0, allow_nan=False)
box_coords = st.floats(0.0, 500.0, allow_nan=False)


class TestOptimalHeight:
    def test_interior_minimum(self):
        assert optimal_height(100.0, BOUNDS) == pytest.approx(173.205, abs=1e-3)

    def test_clamped_low(self):
        assert optimal_height(40.0, BOUNDS) == pytest.approx(100.0, abs=1e-3)

    def test_clamped_high(self):
        assert optimal_height(400.0, BOUNDS) == pytest.approx(600.0, abs=1e-3)

    def test_zero_distance_returns_floor(self):
        assert optimal_height(0.0, BOUNDS) == BOUNDS.z_min

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            optimal_height(-1.0, BOUNDS)

    def test_against_dense_grid(self):
        got = optimal_height(100.0, BOUNDS)
        oracle = grid_min_height(100.0, 100.0, 600.0, 1_000_000)
        assert got == pytest.approx(oracle, abs=1e-3)

    @settings(max_examples=200, deadline=None)
    @given(distances)
    def test_matches_stationary_point_clamped(self, d_2d):
        got = optimal_height(d_2d, BOUNDS)
        assert BOUNDS.z_min <= got <= BOUNDS.z_max
        assert got == pytest.approx(
            clamp(math.sqrt(3.0) * d_2d, BOUNDS.z_min, BOUNDS.z_max), abs=1e-3
        )

    @settings(max_examples=50, deadline=None)
    @given(distances)
    def test_no_grid_point_beats_result(self, d_2d):
        got = optimal_height(d_2d, BOUNDS)
        best = relay_height_cost(d_2d, got)
        for i in range(2001):
            h = 100.0 + i * 0.25
            assert best <= relay_height_cost(d_2d, h) * (1.0 + 1e-6)


class TestOptimalLocation:
    def test_example_geometry(self):
        got = optimal_location(Vec3(0, 1000, 1.5), Vec3(500, 1200, 1.5), BOUNDS)
        assert got.x == pytest.approx(250.0, abs=1e-12)
        assert got.y == pytest.approx(1100.0, abs=1e-12)
        assert got.z == pytest.approx(466.37, abs=1e-2)

    def test_co_located_pair(self):
        got = optimal_location(Vec3(100, 100, 1.5), Vec3(100, 100, 1.5), BOUNDS)
        assert (got.x, got.y, got.z) == (100.0, 100.0, BOUNDS.z_min)

    def test_symmetric_in_arguments(self):
        tx, rx = Vec3(0, 1000, 1.5), Vec3(500, 1200, 1.8)
        assert optimal_location(tx, rx, BOUNDS) == optimal_location(rx, tx, BOUNDS)

    @given(box_coords, st.floats(0.0, 5000.0), box_coords, st.floats(0.0, 5000.0))
    def test_midpoint_exact_when_inside(self, x1, y1, x2, y2):
        got = optimal_location(Vec3(x1, y1, 1.5), Vec3(x2, y2, 2.0), BOUNDS)
        assert got.x == 0.5 * (x1 + x2)
        assert got.y == 0.5 * (y1 + y2)
        assert BOUNDS.z_min <= got.z <= BOUNDS.z_max

    def test_midpoint_clamped_into_box(self):
        got = optimal_location(Vec3(-4000, -100, 1.5), Vec3(-3000, -50, 1.5), BOUNDS)
        assert got.x == BOUNDS.x_min
        assert got.y == BOUNDS.y_min


class TestStepTowards:
    def test_exact_reach(self):
        got = step_towards(Vec3(0, 0, 100), Vec3(9, 0, 100), LIMITS, BOUNDS)
        assert got == Vec3(9, 0, 100)

    def test_partial_step_along_unit_direction(self):
        got = step_towards(Vec3(0, 0, 100), Vec3(100, 0, 100), LIMITS, BOUNDS)
        assert got.x == pytest.approx(9.0, abs=1e-9)
        assert got.y == 0.0
        assert got.z == 100.0

    def test_already_there(self):
        here = Vec3(250, 2500, 300)
        assert step_towards(here, here, LIMITS, BOUNDS) == here

    @given(
        box_coords,
        st.floats(0.0, 5000.0),
        st.floats(100.0, 600.0),
        box_coords,
        st.floats(0.0, 5000.0),
        st.floats(100.0, 600.0),
    )
    def test_displacement_within_budget_and_in_box(self, cx, cy, cz, tx, ty, tz):
        current = Vec3(cx, cy, cz)
        target = Vec3(tx, ty, tz)
        got = step_towards(current, target, LIMITS, BOUNDS)
        assert math.dist(astuple(got), astuple(current)) <= LIMITS.step_length + 1e-9
        assert BOUNDS.contains(got)

    @settings(max_examples=100, deadline=None)
    @given(
        box_coords,
        st.floats(0.0, 5000.0),
        st.floats(100.0, 600.0),
        box_coords,
        st.floats(0.0, 5000.0),
        st.floats(100.0, 600.0),
    )
    def test_reaches_target_in_ceil_steps(self, cx, cy, cz, tx, ty, tz):
        current = Vec3(cx, cy, cz)
        target = Vec3(tx, ty, tz)
        distance = math.dist(astuple(target), astuple(current))
        ratio = distance / LIMITS.step_length
        # stay away from exact multiples where float rounding flips the ceil
        assume(abs(ratio - round(ratio)) > 1e-6)
        expected = max(1, math.ceil(ratio))
        steps = 0
        while current != target:
            current = step_towards(current, target, LIMITS, BOUNDS)
            steps += 1
            assert steps <= expected
        assert steps == expected


class TestLimitsValidation:
    def test_rejects_slow_drone(self):
        with pytest.raises(ValueError):
            MotionLimits(v_drone=10.0, v_vehicle=15.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            WorldBounds(z_min=600.0, z_max=100.0)

    def test_budget_properties(self):
        assert LIMITS.step_length == pytest.approx(9.0)
        assert LIMITS.yaw_budget == pytest.approx(0.08725)
