import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrosac import scenario as sc
from hydrosac import trainer as tr
from hydrosac.env import (
    LAST_WEEK_PRICE,
    MAX_PRICE,
    OBS_DIM,
    TERMINAL_PRICE_RULES,
    EnvConfig,
    feasible_max_action,
    observe,
    observe_years,
    reward,
    step,
    step_years,
    terminal_value,
)
from hydrosac.sac import SacConfig
from hydrosac.scenario import ArtificialConfig, generate_artificial_pools
from hydrosac.trainer import TrainConfig, train

YEARS = 200


def trained_years(env_cfg, years):
    """(scenarios, obs): the scenario train draws for each year and the
    observation of each (year, week), read back from the replay memory."""
    pools = generate_artificial_pools(ArtificialConfig(samples_per_week=10), seed=17)
    scenarios = []

    def recorded(pools, rng):
        scenarios.append(sc.sample_scenario(pools, rng))
        return scenarios[-1]

    cfg = TrainConfig(total_weeks=52 * years, exploration_weeks=52 * (years - 1),
                      batch_size=20, seed=123, agent=SacConfig(hidden_width=12),
                      env=env_cfg, include_replay_in_checkpoint=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tr, "sample_scenario", recorded)
        ckpt, _ = train(cfg, pools)
    assert len(scenarios) == years
    return scenarios, ckpt.replay["obs"].reshape(years, 52, 5)


@pytest.fixture(scope="module")
def years():
    return trained_years(EnvConfig(), YEARS)


class TestReset:
    # each year starts in week 1 from a storage train draws in the init window
    def test_degenerate_interval(self):
        _, obs = trained_years(EnvConfig(init_low=0.5, init_high=0.5), 3)
        assert obs[:, 0, 1].tolist() == [0.5] * 3
        assert obs[:, 0, 0].tolist() == [1 / 52] * 3

    def test_initial_storage_window(self, years):
        _, obs = years
        first = obs[:, 0, 1]
        assert first.min() >= 0.4 and first.max() <= 0.6
        assert len(np.unique(first)) == YEARS  # drawn, not fixed

    def test_weeks_to_empty(self):
        _, obs = trained_years(EnvConfig(init_low=0.5, init_high=0.5, f_max=0.03), 3)
        assert obs[:, 0, 4] == pytest.approx(0.5 / 0.03 / 52, rel=1e-12)

    def test_takes_week_one_scenario_values(self, years):
        scenarios, obs = years
        assert np.array_equal(bits(obs[:, 0, 2]), bits([s.prices[0] for s in scenarios]))
        assert np.array_equal(bits(obs[:, 0, 3]), bits([s.inflows[0] for s in scenarios]))
        want = [min(s / 0.03, 52.0) / 52 for s in obs[:, 0, 1].tolist()]  # weeks to empty
        assert np.array_equal(bits(obs[:, 0, 4]), bits(want))


class TestFeasibleMaxAction:
    def test_ample_storage(self):
        assert feasible_max_action(0.5, EnvConfig()) == 1.0

    def test_limited_storage(self):
        a = feasible_max_action(0.015, EnvConfig(f_max=0.03))
        assert a == pytest.approx(0.5, rel=1e-12)

    def test_empty_reservoir(self):
        assert feasible_max_action(0.0, EnvConfig()) == 0.0

    def test_release_never_exceeds_storage(self):
        rng = np.random.default_rng(2)
        for _ in range(5000):
            f_max = float(rng.uniform(0.001, 1.0))
            storage = float(rng.uniform(0.0, 1.0)) * f_max  # scarce region
            a = feasible_max_action(storage, EnvConfig(f_max=f_max))
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
    # step(week, storage, price, inflow, action, cfg) returns
    # (reward, effective_action, spill, end_storage, terminal_bonus)
    def test_mass_balance_by_hand(self):
        # storage 0.5, full action releases f_max=0.03, inflow 0.02 -> 0.49
        _, a_eff, spill, end, _ = step(1, 0.5, 0.8, 0.02, 1.0, EnvConfig())
        assert a_eff == 1.0
        assert end == pytest.approx(0.49, rel=1e-12)
        assert spill == 0.0

    def test_flooding(self):
        r, _, spill, end, _ = step(1, 0.99, 0.8, 0.05, 0.0, EnvConfig())
        assert end == 1.0
        assert spill == pytest.approx(0.04, rel=1e-9)
        assert r == 0.0

    def test_feasibility_clamp(self):
        _, a_eff, _, end, _ = step(1, 0.01, 0.8, 0.0, 1.0, EnvConfig(f_max=0.03))
        assert a_eff == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert end == pytest.approx(0.0, abs=1e-15)

    def test_earns_this_weeks_price_and_adds_this_weeks_inflow(self):
        cfg = EnvConfig(q_price=1.7)
        r, a_eff, _, end, bonus = step(7, 0.5, 0.3, 0.02, 0.5, cfg)
        assert r == reward(0.5, 0.3, cfg) and a_eff == 0.5
        assert end == 0.5 - 0.5 * cfg.f_max + 0.02
        assert bonus == 0.0

    def test_week_advances_with_scenario_values(self, years):
        # after each step, train observes the next week's price and inflow
        scenarios, obs = years
        assert np.array_equal(bits(obs[:, :, 0]), bits(np.tile(np.arange(1, 53) / 52, (YEARS, 1))))
        assert np.array_equal(bits(obs[:, :, 2]), bits([s.prices for s in scenarios]))
        assert np.array_equal(bits(obs[:, :, 3]), bits([s.inflows for s in scenarios]))

    def test_terminal_week_adds_bonus(self):
        cfg = EnvConfig(terminal_price_rule=LAST_WEEK_PRICE)
        r, _, _, _, bonus = step(52, 0.5, 0.6, 0.0, 0.0, cfg)
        assert bonus == pytest.approx(300.0, rel=1e-12)
        assert r == pytest.approx(300.0, rel=1e-12)

    def test_terminal_max_price_rule(self):
        cfg = EnvConfig(terminal_price_rule=MAX_PRICE)
        *_, bonus = step(52, 0.5, 0.6, 0.0, 0.0, cfg)
        assert bonus == pytest.approx(500.0, rel=1e-12)

    def test_rejects_bad_action(self):
        with pytest.raises(ValueError):
            step(1, 0.5, 0.8, 0.01, 1.5, EnvConfig())

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
        _, a_eff, spill, end, _ = step(1, storage, price, inflow, action, cfg)
        released = a_eff * f_max
        assert abs(end + spill + released - (storage + inflow)) < 1e-12
        if spill > 0:
            assert end == 1.0
        assert end >= 0.0
        assert released <= storage + 1e-18

    def test_full_year_pays_the_bonus_once(self):
        # the year ends after week 52: only that week pays a bonus, and there is no week 53
        cfg = EnvConfig()
        storage, bonuses = 0.5, []
        for week in range(1, 53):
            _, _, _, storage, bonus = step(week, storage, 0.8, 0.003, 0.1, cfg)  # holds 0.5
            bonuses.append(bonus)
        assert [b > 0.0 for b in bonuses] == [False] * 51 + [True]
        with pytest.raises(ValueError, match="week 53 outside 1..52"):
            step(53, storage, 0.8, 0.003, 0.1, cfg)


class TestObserve:
    def test_hand_case(self):
        obs = observe(52, 1.0, 1.0, 1.0, EnvConfig(f_max=0.03))
        assert obs[0] == 1.0
        assert obs[1] == 1.0
        assert obs[2] == 1.0
        assert obs[3] == 1.0
        assert obs[4] == pytest.approx((1.0 / 0.03) / 52, rel=1e-12)

    def test_empty_reservoir(self):
        obs = observe(1, 0.0, 0.4, 0.2, EnvConfig())
        assert obs[0] == pytest.approx(1 / 52, rel=1e-12)
        assert obs[1] == 0.0
        assert obs[4] == 0.0

    def test_weeks_to_empty_capped(self):
        assert observe(1, 1.0, 0.8, 0.01, EnvConfig(f_max=0.001))[4] == 1.0

    def test_all_components_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            obs = observe(
                int(rng.integers(1, 53)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(0, 1)),
                EnvConfig(f_max=float(rng.uniform(0.001, 1))),
            )
            assert obs.min() >= 0.0 and obs.max() <= 1.0


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def scalar_steps(week, years, cfg):
    """The scalar step's outcomes of each (storage, price, inflow, action) year,
    as the five arrays step_years returns."""
    outs = [step(week, storage, price, inflow, action, cfg)
            for storage, price, inflow, action in years]
    return [np.array(column) for column in zip(*outs)]


def array_steps(week, years, cfg):
    storage, price, inflow, action = map(np.array, zip(*years))
    return step_years(week, storage, price, inflow, action, cfg)


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


@st.composite
def observe_batches(draw):
    """(week, years, cfg): 1 to 6 years of (storage, price, inflow) sharing a week, with
    storage drawn among random floats, empty, one week's release and the weeks-to-empty cap."""
    cfg = EnvConfig(f_max=draw(st.sampled_from([0.03, 1 / 52, 1.0]) | st.floats(1e-3, 1.0)))
    unit = st.floats(0.0, 1.0)
    storage = unit | st.sampled_from([0.0, cfg.f_max, 52 * cfg.f_max])
    year = st.tuples(storage, unit, unit)
    return draw(st.integers(1, 52)), draw(st.lists(year, min_size=1, max_size=6)), cfg


class TestObserveYears:
    @given(observe_batches())
    @settings(max_examples=300, deadline=None)
    @example((1, [(0.0, 0.4, 0.2), (0.03, 0.5, 0.0), (52 * 0.03, 1.0, 1.0)], EnvConfig()))
    def test_rows_match_the_scalar_observe(self, batch):
        week, years, cfg = batch
        storage, price, inflow = map(np.array, zip(*years))
        rows = observe_years(week, storage, price, inflow, cfg)
        assert rows.shape == (len(years), OBS_DIM)
        for row, year in zip(rows, years, strict=True):
            assert np.array_equal(bits(row), bits(observe(week, *year, cfg))), year


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
            step(1, 0.5, 0.8, 0.01, first, EnvConfig())
        n = len(actions)
        with pytest.raises(ValueError) as array:
            step_years(1, np.full(n, 0.5), np.full(n, 0.8), np.full(n, 0.01), np.array(actions),
                       EnvConfig())
        assert str(array.value) == str(scalar.value)

    def test_rejects_a_week_outside_the_year(self):
        with pytest.raises(ValueError, match="week 53 outside 1..52"):
            step_years(53, np.full(1, 0.5), np.full(1, 0.8), np.full(1, 0.01), np.full(1, 0.5),
                       EnvConfig())


def test_step_years_prices_by_python_powers():
    # (p * k) ** q through np.power differs from Python's ** in the last bit on
    # about 5% of inputs under numpy's X86_V4 dispatch; these 208 prices include such inputs
    cfg = EnvConfig(k_price=0.8, q_price=1.7)
    prices = np.random.default_rng(3).random((4, 52))
    for week in range(1, 53):
        rewards, *_ = step_years(week, np.full(4, 1.0), prices[:, week - 1], np.zeros(4),
                                 np.full(4, 1.0), cfg)
        want = [cfg.f_max * cfg.r_max * ((p * 0.8) ** 1.7) for p in prices[:, week - 1].tolist()]
        assert np.array_equal(bits(rewards), bits(want)), week
