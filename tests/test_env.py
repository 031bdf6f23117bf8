import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrosac.env import (
    LAST_WEEK_PRICE,
    MAX_PRICE,
    TERMINAL_PRICE_RULES,
    EnvConfig,
    EnvState,
    feasible_max_action,
    observe,
    price_factors,
    reset,
    reward,
    step,
    step_years,
    terminal_value,
)
from hydrosac.scenario import Scenario


def make_scenario(price=0.8, inflow=0.01):
    return Scenario(prices=np.full(52, price), inflows=np.full(52, inflow))


def make_state(week=1, storage=0.5, price=0.8, inflow=0.01, f_max=0.03):
    return EnvState(
        week=week, storage=storage, price=price, inflow=inflow,
        weeks_to_empty=storage / f_max,
    )


class TestReset:
    def test_degenerate_interval(self):
        cfg = EnvConfig(init_low=0.5, init_high=0.5)
        state = reset(cfg, make_scenario(), np.random.default_rng(0))
        assert state.storage == 0.5
        assert state.week == 1

    def test_initial_storage_window(self):
        cfg = EnvConfig()
        rng = np.random.default_rng(1)
        scn = make_scenario()
        storages = [reset(cfg, scn, rng).storage for _ in range(10_000)]
        assert min(storages) >= 0.4
        assert max(storages) <= 0.6

    def test_weeks_to_empty(self):
        cfg = EnvConfig(init_low=0.5, init_high=0.5, f_max=0.03)
        state = reset(cfg, make_scenario(), np.random.default_rng(0))
        assert state.weeks_to_empty == pytest.approx(0.5 / 0.03, rel=1e-12)

    def test_takes_week_one_scenario_values(self):
        scn = make_scenario(price=0.3, inflow=0.07)
        state = reset(EnvConfig(), scn, np.random.default_rng(0))
        assert state.price == 0.3
        assert state.inflow == 0.07


class TestFeasibleMaxAction:
    def test_ample_storage(self):
        assert feasible_max_action(make_state(storage=0.5), EnvConfig()) == 1.0

    def test_limited_storage(self):
        a = feasible_max_action(make_state(storage=0.015), EnvConfig(f_max=0.03))
        assert a == pytest.approx(0.5, rel=1e-12)

    def test_empty_reservoir(self):
        assert feasible_max_action(make_state(storage=0.0), EnvConfig()) == 0.0

    def test_release_never_exceeds_storage(self):
        rng = np.random.default_rng(2)
        cfg_base = EnvConfig()
        for _ in range(5000):
            f_max = float(rng.uniform(0.001, 1.0))
            storage = float(rng.uniform(0.0, 1.0)) * f_max  # scarce region
            state = make_state(storage=storage, f_max=f_max)
            cfg = EnvConfig(f_max=f_max)
            a = feasible_max_action(state, cfg)
            assert a * f_max <= storage


class TestReward:
    def test_zero_action(self):
        assert reward(0.0, 0.9, EnvConfig()) == 0.0

    def test_hand_case_linear(self):
        # 1 * 0.03 * 1000 * (1*1)^1 = 30
        cfg = EnvConfig(f_max=0.03, r_max=1000.0, k_price=1.0, q_price=1.0)
        assert reward(1.0, 1.0, cfg) == pytest.approx(30.0, rel=1e-12)

    def test_hand_case_quadratic(self):
        # 0.5 * 0.03 * 1000 * (0.8)^2 = 9.6
        cfg = EnvConfig(f_max=0.03, r_max=1000.0, k_price=1.0, q_price=2.0)
        assert reward(0.5, 0.8, cfg) == pytest.approx(9.6, rel=1e-12)

    def test_monotone_in_action_and_price(self):
        cfg = EnvConfig(q_price=1.7)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a1, a2 = sorted(rng.uniform(0, 1, 2))
            y1, y2 = sorted(rng.uniform(0, 1, 2))
            assert reward(a1, y1, cfg) <= reward(a2, y1, cfg)
            assert reward(a1, y1, cfg) <= reward(a1, y2, cfg)


class TestTerminalValue:
    def test_outside_window(self):
        assert terminal_value(0.3, 1.0, EnvConfig()) == 0.0

    def test_max_price_rule_value(self):
        # 0.5 * 1000 * 1 = 500
        assert terminal_value(0.5, 1.0, EnvConfig()) == pytest.approx(500.0, rel=1e-12)

    def test_last_week_price_value(self):
        # 0.5 * 1000 * 0.6 = 300
        assert terminal_value(0.5, 0.6, EnvConfig()) == pytest.approx(300.0, rel=1e-12)


class TestStep:
    def test_mass_balance_by_hand(self):
        # storage 0.5, full action releases f_max=0.03, inflow 0.02 -> 0.49
        state = make_state(storage=0.5, inflow=0.02)
        out = step(state, 1.0, make_scenario(inflow=0.02), EnvConfig())
        assert out.effective_action == 1.0
        assert out.end_storage == pytest.approx(0.49, rel=1e-12)
        assert out.spill == 0.0

    def test_flooding(self):
        state = make_state(storage=0.99, inflow=0.05)
        out = step(state, 0.0, make_scenario(inflow=0.05), EnvConfig())
        assert out.end_storage == 1.0
        assert out.spill == pytest.approx(0.04, rel=1e-9)
        assert out.reward == 0.0

    def test_feasibility_clamp(self):
        state = make_state(storage=0.01, inflow=0.0)
        out = step(state, 1.0, make_scenario(inflow=0.0), EnvConfig(f_max=0.03))
        assert out.effective_action == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert out.end_storage == pytest.approx(0.0, abs=1e-15)

    def test_week_advances_with_scenario_values(self):
        scn = Scenario(prices=np.linspace(0.1, 1.0, 52), inflows=np.linspace(0, 0.05, 52))
        state = make_state(week=1, price=float(scn.prices[0]), inflow=float(scn.inflows[0]))
        out = step(state, 0.5, scn, EnvConfig())
        assert out.next_state.week == 2
        assert out.next_state.price == scn.prices[1]
        assert out.next_state.inflow == scn.inflows[1]

    def test_terminal_week_adds_bonus(self):
        cfg = EnvConfig(terminal_price_rule=LAST_WEEK_PRICE)
        state = make_state(week=52, storage=0.5, price=0.6, inflow=0.0)
        out = step(state, 0.0, make_scenario(), cfg)
        assert out.done
        assert out.next_state is None
        assert out.terminal_bonus == pytest.approx(300.0, rel=1e-12)
        assert out.reward == pytest.approx(300.0, rel=1e-12)

    def test_terminal_max_price_rule(self):
        cfg = EnvConfig(terminal_price_rule=MAX_PRICE)
        state = make_state(week=52, storage=0.5, price=0.6, inflow=0.0)
        out = step(state, 0.0, make_scenario(), cfg)
        assert out.terminal_bonus == pytest.approx(500.0, rel=1e-12)

    def test_rejects_bad_action(self):
        with pytest.raises(ValueError):
            step(make_state(), 1.5, make_scenario(), EnvConfig())

    @given(
        storage=st.floats(0.0, 1.0),
        action=st.floats(0.0, 1.0),
        inflow=st.floats(0.0, 1.0),
        price=st.floats(0.0, 1.0),
        f_max=st.floats(0.001, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_mass_balance_property(self, storage, action, inflow, price, f_max):
        cfg = EnvConfig(f_max=f_max)
        state = make_state(storage=storage, price=price, inflow=inflow, f_max=f_max)
        out = step(state, action, make_scenario(price, inflow), cfg)
        released = out.effective_action * f_max
        assert abs(out.end_storage + out.spill + released - (storage + inflow)) < 1e-12
        if out.spill > 0:
            assert out.end_storage == 1.0
        assert out.end_storage >= 0.0
        assert released <= storage + 1e-18

    def test_full_year_emits_done_once(self):
        scn = make_scenario()
        cfg = EnvConfig()
        state = reset(cfg, scn, np.random.default_rng(5))
        dones = []
        for _ in range(52):
            out = step(state, 0.5, scn, cfg)
            dones.append(out.done)
            if not out.done:
                state = out.next_state
        assert dones == [False] * 51 + [True]


class TestObserve:
    def test_hand_case(self):
        state = make_state(week=52, storage=1.0, price=1.0, inflow=1.0, f_max=0.03)
        obs = observe(state)
        assert obs[0] == 1.0
        assert obs[1] == 1.0
        assert obs[2] == 1.0
        assert obs[3] == 1.0
        assert obs[4] == pytest.approx((1.0 / 0.03) / 52, rel=1e-12)

    def test_empty_reservoir(self):
        state = make_state(week=1, storage=0.0, price=0.4, inflow=0.2)
        obs = observe(state)
        assert obs[0] == pytest.approx(1 / 52, rel=1e-12)
        assert obs[1] == 0.0
        assert obs[4] == 0.0

    def test_weeks_to_empty_capped(self):
        state = make_state(storage=1.0, f_max=0.001)
        assert observe(state)[4] == 1.0

    def test_all_components_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            state = make_state(
                week=int(rng.integers(1, 53)),
                storage=float(rng.uniform(0, 1)),
                price=float(rng.uniform(0, 1)),
                inflow=float(rng.uniform(0, 1)),
                f_max=float(rng.uniform(0.001, 1)),
            )
            obs = observe(state)
            assert obs.min() >= 0.0 and obs.max() <= 1.0


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def scalar_steps(week, years, cfg):
    """The scalar step's outcomes of each (storage, price, inflow, action) year,
    as the five arrays step_years returns."""
    outs = []
    for storage, price, inflow, action in years:
        state = EnvState(week, storage, price, inflow, storage / cfg.f_max)
        out = step(state, action, make_scenario(price, inflow), cfg)
        outs.append((out.reward, out.effective_action, out.spill, out.end_storage,
                     out.terminal_bonus))
    return [np.array(column) for column in zip(*outs)]


def array_steps(week, years, cfg):
    storage, price, inflow, action = map(np.array, zip(*years))
    return step_years(week, storage, price_factors(price, cfg), inflow, action, cfg)


# storage 0.0019305 at f_max 0.03: storage / f_max times f_max exceeds storage
# by one ulp, so feasible_max_action rounds the quotient down once
NEXTAFTER_STORAGE = 0.0019305
WINDOW = dict(terminal_low=0.35, terminal_high=0.65)
EDGE_CASES = {
    "nextafter": (3, [(NEXTAFTER_STORAGE, 0.7, 0.0, 1.0), (0.5, 0.7, 0.0, 1.0)], EnvConfig()),
    "spill": (10, [(0.99, 0.5, 0.2, 0.1), (1.0, 0.5, 1.0, 0.0)], EnvConfig()),
    "window_edges_last_week_price": (52, [(0.35, 0.6, 0.0, 0.0), (0.65, 0.6, 0.0, 0.0),
                                          (math.nextafter(0.65, 1.0), 0.6, 0.0, 0.0)],
                                     EnvConfig(q_price=1.7, **WINDOW)),
    "window_edges_max_price": (52, [(0.35, 0.6, 0.0, 0.0), (0.65, 0.6, 0.0, 0.0),
                                    (math.nextafter(0.35, 0.0), 0.6, 0.0, 0.0)],
                               EnvConfig(k_price=0.8, q_price=1.3,
                                         terminal_price_rule=MAX_PRICE, **WINDOW)),
    # an action of -0.0 earns -0.0, which week 52's bonus turns into +0.0
    "negative_zero_reward": (1, [(0.5, 0.7, 0.01, -0.0), (0.5, 0.0, 0.01, 0.3)], EnvConfig()),
    "negative_zero_last_week": (52, [(0.9, 0.7, 0.01, -0.0)], EnvConfig()),
}


@st.composite
def step_batches(draw):
    """(week, years, cfg): 1 to 6 years of (storage, price, inflow, action) sharing a week,
    drawn among random floats and the values at which a branch of the step turns."""
    low = draw(st.floats(0.0, 1.0))
    high = draw(st.floats(low, 1.0))
    cfg = EnvConfig(
        r_max=draw(st.sampled_from([1000.0, 1.0]) | st.floats(1.0, 1e4)),
        f_max=draw(st.sampled_from([0.03, 0.1, 1.0]) | st.floats(1e-3, 1.0)),
        k_price=draw(st.sampled_from([1.0, 0.8]) | st.floats(0.1, 2.0)),
        q_price=draw(st.sampled_from([1.0, 1.7, 0.5]) | st.floats(0.1, 3.0)),
        terminal_low=low,
        terminal_high=high,
        terminal_price_rule=draw(st.sampled_from(TERMINAL_PRICE_RULES)),
    )
    week = draw(st.sampled_from([1, 51, 52]) | st.integers(1, 52))
    unit = st.floats(0.0, 1.0)
    storage = unit | st.sampled_from([0.0, 1.0, low, high, cfg.f_max, NEXTAFTER_STORAGE])
    year = st.tuples(storage, unit, unit | st.just(0.0), unit | st.sampled_from([0.0, -0.0, 1.0]))
    return week, draw(st.lists(year, min_size=1, max_size=6)), cfg


class TestStepYears:
    @given(step_batches())
    @settings(max_examples=400, deadline=None)
    @example(EDGE_CASES["nextafter"])
    @example(EDGE_CASES["spill"])
    @example(EDGE_CASES["window_edges_last_week_price"])
    @example(EDGE_CASES["window_edges_max_price"])
    @example(EDGE_CASES["negative_zero_reward"])
    @example(EDGE_CASES["negative_zero_last_week"])
    def test_bits_match_the_scalar_step(self, batch):
        week, years, cfg = batch
        for name, want, got in zip(("reward", "effective_action", "spill", "end_storage",
                                    "terminal_bonus"),
                                   scalar_steps(week, years, cfg), array_steps(week, years, cfg)):
            assert np.array_equal(bits(want), bits(got)), name

    def test_edge_cases_take_their_branches(self):
        # each example above reaches the branch it is named for
        _, years, cfg = EDGE_CASES["nextafter"]
        storage = years[0][0]
        assert storage / cfg.f_max < 1.0 and storage / cfg.f_max * cfg.f_max > storage
        _, a_eff, *_ = array_steps(*EDGE_CASES["nextafter"])
        assert a_eff[0] == math.nextafter(storage / cfg.f_max, 0.0)
        _, _, spill, end, _ = array_steps(*EDGE_CASES["spill"])
        assert spill.tolist() == [0.99 - 0.1 * 0.03 + 0.2 - 1.0, 1.0] and end.tolist() == [1.0, 1.0]
        for name in ("window_edges_last_week_price", "window_edges_max_price"):
            _, _, _, end, bonus = array_steps(*EDGE_CASES[name])
            assert end.tolist()[:2] == [0.35, 0.65] and (bonus[:2] > 0).all() and bonus[2] == 0.0
        rewards, *_ = array_steps(*EDGE_CASES["negative_zero_reward"])
        assert bits(rewards[0]) == bits(-0.0)
        rewards, *_ = array_steps(*EDGE_CASES["negative_zero_last_week"])
        assert bits(rewards[0]) == bits(0.0)

    @pytest.mark.parametrize("actions", [[0.5, 1.5, float("nan")], [0.5, float("nan"), -1.0],
                                         [-0.5, 2.0]])
    def test_first_bad_action_raises_the_scalar_message(self, actions):
        first = next(a for a in actions if not 0.0 <= a <= 1.0)
        with pytest.raises(ValueError) as scalar:
            step(make_state(), first, make_scenario(), EnvConfig())
        n = len(actions)
        with pytest.raises(ValueError) as array:
            step_years(1, np.full(n, 0.5), np.full(n, 0.8), np.full(n, 0.01), np.array(actions),
                       EnvConfig())
        assert str(array.value) == str(scalar.value)

    def test_rejects_a_week_outside_the_year(self):
        with pytest.raises(ValueError, match="week 53 outside 1..52"):
            step_years(53, np.full(1, 0.5), np.full(1, 0.8), np.full(1, 0.01), np.full(1, 0.5),
                       EnvConfig())


def test_price_factors_are_python_powers():
    cfg = EnvConfig(k_price=0.8, q_price=1.7)
    prices = np.random.default_rng(3).random((4, 52))
    want = [[(p * 0.8) ** 1.7 for p in row] for row in prices.tolist()]
    assert np.array_equal(bits(price_factors(prices, cfg)), bits(want))
