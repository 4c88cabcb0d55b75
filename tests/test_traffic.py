import math

import pytest

from drs_sim.planner import MotionLimits, WorldBounds
from drs_sim.rng import SplitMix64
from drs_sim.traffic import (
    ANTENNA_HEIGHT_MAX,
    ANTENNA_HEIGHT_MIN,
    MAX_LANE_VEHICLES,
    ScenarioConfig,
    TrafficModel,
    V2VPair,
    Vehicle,
)

from _oracles import summed_lane_trace

BOUNDS = WorldBounds()


class TestSplitMix64:
    def test_reference_sequence_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_reference_sequence_seed_42(self):
        rng = SplitMix64(42)
        assert [rng.next_u64() for _ in range(3)] == [
            13679457532755275413,
            2949826092126892291,
            5139283748462763858,
        ]

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(987654321), SplitMix64(987654321)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_random_is_open_unit_interval(self):
        rng = SplitMix64(7)
        for _ in range(10000):
            u = rng.random()
            assert 0.0 < u < 1.0

    def test_randrange_uniformish_and_in_range(self):
        rng = SplitMix64(5)
        draws = [rng.randrange(7) for _ in range(7000)]
        assert set(draws) == set(range(7))


class _FixedUniform(SplitMix64):
    """Generator stub returning a fixed uniform draw."""

    def __init__(self, value):
        super().__init__(0)
        self._value = value

    def random(self):
        return self._value


class TestArrivalSampler:
    def test_inverse_cdf_spot_value(self):
        rng = _FixedUniform(1.0 / math.e)
        assert rng.expovariate(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rate_never_arrives(self):
        assert SplitMix64(1).expovariate(0.0) == math.inf

    def test_fixed_seed_reproduces_sequence(self):
        a = [SplitMix64(123).expovariate(0.2)]
        b = [SplitMix64(123).expovariate(0.2)]
        assert a == b

    def test_sample_mean(self):
        rng = SplitMix64(2024)
        n = 100_000
        mean = math.fsum(rng.expovariate(0.1) for _ in range(n)) / n
        assert abs(mean - 10.0) / 10.0 < 0.02


class TestEventSampler:
    def test_zero_rate_draws_nothing(self):
        rng = SplitMix64(9)
        assert rng.poisson(0.0) == 0
        assert rng.next_u64() == SplitMix64(9).next_u64()

    def test_sample_mean(self):
        rng = SplitMix64(77)
        n = 100_000
        mean = math.fsum(rng.poisson(0.5) for _ in range(n)) / n
        assert abs(mean - 0.5) / 0.5 < 0.02

    def test_fixed_seed_reproduces_trace(self):
        rng_a, rng_b = SplitMix64(4), SplitMix64(4)
        assert [rng_a.poisson(0.8) for _ in range(50)] == [
            rng_b.poisson(0.8) for _ in range(50)
        ]


def model_with(*placed, **limits):
    """A model without arrivals whose road holds vehicles placed as (lane, age in steps)."""
    config = ScenarioConfig(arrival_rate=0.0, limits=MotionLimits(**limits))
    model = TrafficModel(config, SplitMix64(0))
    for vid, (lane, age) in enumerate(placed):
        model.vehicles[vid] = Vehicle(vid, lane, model.step - age, 1.6)
        model.lanes[lane].append(vid)
    return model


class TestAdvanceVehicles:
    def test_despawn_past_segment_end(self):
        model = model_with((0, 666))
        assert model.position(0)[1] == 4995.0
        model.advance()
        assert model.vehicles == {}
        assert not model.lanes[0]

    def test_empty_world(self):
        model = model_with()
        model.advance()
        assert model.vehicles == {} and model.active_pair is None

    def test_two_half_steps_equal_one_full_step(self):
        a = model_with((0, 200), time_step=0.5)
        b = model_with((0, 100), time_step=1.0)
        a.advance()
        a.advance()
        b.advance()
        assert a.position(0) == b.position(0)

    def test_backward_lane_moves_down(self):
        model = model_with((1, 133))
        assert model.position(0)[1] == 4002.5
        model.advance()
        assert model.position(0) == (BOUNDS.x_max, 3995.0, 1.6)

    def test_pair_deactivated_when_member_leaves(self):
        model = model_with((0, 666), (1, 400))
        model.active_pair = V2VPair(0, 0, 1, start_step=10)
        model.advance()
        assert list(model.vehicles) == [1]
        assert model.active_pair is None

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            model_with(time_step=0.0)

    @pytest.mark.parametrize(
        "limits, tol",
        [
            ({}, 0.0),  # v * dt = 7.5: every partial sum is exact
            ({"time_step": 0.3, "v_vehicle": 13.7}, 1e-9),
        ],
    )
    def test_closed_form_matches_summed_motion(self, limits, tol):
        config = ScenarioConfig(seed=3, limits=MotionLimits(**limits))
        model = TrafficModel(config, SplitMix64(config.seed))
        steps, spawns, got = 2000, {}, []
        for step in range(1, steps + 1):
            model.advance()
            before = set(model.vehicles)
            model.spawn_arrivals()
            spawns[step] = [(v, model.vehicles[v].lane) for v in model.vehicles if v not in before]
            got.append({v: model.position(v)[1] for v in model.vehicles})
        stride = config.limits.v_vehicle * config.limits.time_step
        want = summed_lane_trace(spawns, BOUNDS.y_min, BOUNDS.y_max, stride, steps)
        assert sum(map(len, spawns.values())) > 200
        assert len(got[-1]) < sum(map(len, spawns.values()))  # vehicles also left
        for got_step, want_step in zip(got, want):
            assert list(got_step) == list(want_step)
            for vid, y in got_step.items():
                assert abs(y - want_step[vid]) <= tol


class TestTrafficModel:
    def run_model(self, seed, steps=400, **overrides):
        config = ScenarioConfig(seed=seed, **overrides)
        rng = SplitMix64(config.seed)
        model = TrafficModel(config, rng)
        for _ in range(steps):
            model.advance()
            model.spawn_arrivals()
            model.maybe_start_pair()
            snapshot = [(v, *model.position(v)[:2]) for v in model.vehicles]
            yield model, snapshot

    def test_positions_stay_on_lanes(self):
        for model, _ in self.run_model(seed=11):
            for vid, v in model.vehicles.items():
                x, y, z = model.position(vid)
                assert x == (BOUNDS.x_min if v.lane == 0 else BOUNDS.x_max)
                assert BOUNDS.y_min <= y <= BOUNDS.y_max
                assert ANTENNA_HEIGHT_MIN <= v.antenna_height <= ANTENNA_HEIGHT_MAX
                assert z == v.antenna_height
                assert vid in model.lanes[v.lane]

    def test_at_most_one_active_pair_with_valid_members(self):
        pairs_seen = set()
        for model, _ in self.run_model(seed=13, v2v_rate=0.3):
            pair = model.active_pair
            if pair is not None:
                pairs_seen.add(pair.id)
                tx = model.vehicles.get(pair.tx_id)
                rx = model.vehicles.get(pair.rx_id)
                assert tx is not None and rx is not None
                assert tx.id != rx.id
                assert tx.lane != rx.lane
        assert pairs_seen  # the scenario actually served someone

    def test_receiver_is_the_nearest_opposite_lane_vehicle(self):
        # maybe_start_pair computes the partners' y without position(); the
        # choice must be the one position() gives, ties to the lower id.
        config = ScenarioConfig(seed=17, arrival_rate=0.8, v2v_rate=0.3)
        model = TrafficModel(config, SplitMix64(config.seed))
        started = 0
        for _ in range(600):
            model.advance()
            model.spawn_arrivals()
            model.active_pair = None  # so that every pairing event may start a pair
            pair = model.maybe_start_pair()
            if pair is None:
                continue
            tx = model.vehicles[pair.tx_id]
            tx_y = model.position(tx.id)[1]
            partners = model.lanes[1 - tx.lane]
            assert pair.rx_id == min(partners, key=lambda v: (abs(model.position(v)[1] - tx_y), v))
            started += 1
        assert started > 50

    def test_trace_determinism(self):
        trace_a = [snap for _, snap in self.run_model(seed=21)]
        trace_b = [snap for _, snap in self.run_model(seed=21)]
        assert trace_a == trace_b

    def test_different_seeds_differ(self):
        trace_a = [snap for _, snap in self.run_model(seed=1, steps=200)]
        trace_b = [snap for _, snap in self.run_model(seed=2, steps=200)]
        assert trace_a != trace_b

    def test_interferer_vehicle_mode_designates_bystander(self):
        for model, _ in self.run_model(seed=5, steps=600, interferer_kind="vehicle", v2v_rate=0.3):
            pair = model.active_pair
            if pair is not None and model.interferer_id is not None:
                assert model.interferer_id not in (pair.tx_id, pair.rx_id)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(arrival_rate=-0.1)
        with pytest.raises(ValueError):
            ScenarioConfig(interferer_kind="martian")

    # Configs here are only built, never run: a rate of 1e9 would spawn
    # about 5e8 vehicles per lane in the first step.
    @pytest.mark.parametrize(
        "y_max, time_step, largest",
        [
            (5000.0, 0.5, 29.95),  # 333.8 s on the default lane: 9998 vehicles
            (500.0, 0.5, 295.5),  # a tenth of the lane holds ten times the rate
            (1e-6, 0.001, 9.99e6),  # a lane crossed within a step holds a step's arrivals
        ],
    )
    def test_arrival_rate_bounded_by_vehicles_on_a_lane(self, y_max, time_step, largest):
        config = {
            "bounds": WorldBounds(y_max=y_max), "limits": MotionLimits(time_step=time_step),
        }
        assert ScenarioConfig(arrival_rate=largest, **config).arrival_rate == largest
        for rate in (1.01 * largest, 1e9):
            with pytest.raises(ValueError, match=rf"^scenario\.arrival_rate = .* {MAX_LANE_VEHICLES}$"):
                ScenarioConfig(arrival_rate=rate, **config)
