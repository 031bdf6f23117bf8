"""The oracles of tests/oracles.py against closed forms, brute force and policies.

Every episode's return must lie at or below the perfect-foresight value of
its year: pathwise, with no sampling tolerance. The bound is checked on
both reference stations (the flexible default, and the high-throughput
one of `--f-max 0.10 --annual-inflow 4000`), both terminal price rules,
and artificial and `--synthetic-historic` pools, for the random policy,
the constant actions 0, 0.5 and 1, each year's perfect-foresight plan
played open loop, which scores close to the bound, and the SDP policy.

The SDP solve restates the environment's dynamics in array form. Its
policy's simulated returns are checked week by week against the returns
it predicts, and on average against its predicted value; a brute-force
search over actions checks the solve itself on a 3-week instance.
"""

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from hydrosac.env import LAST_WEEK_PRICE, MAX_PRICE, WEEKS, EnvConfig
from hydrosac.scenario import HISTORIC, ArtificialConfig, generate_artificial_pools
from hydrosac.trainer import evaluate_policy_fn
from oracles import (assert_replayed, assert_within_bounds, constant_policy, episode_starts,
                     perfect_foresight_bounds, perfect_foresight_plan, plan_policy, random_policy,
                     sdp_choice, sdp_policy, sdp_solve)

POOLS_SEED = 11
EVAL_SEED = 12345
N_EPISODES = 10
SDP_POINTS = 51

STATIONS = {
    "flexible": ({}, {}),
    "high_throughput": ({"f_max": 0.10}, {"annual_inflow": 4000.0}),
}


def weeks(first, rest=0.0):
    return np.array([first] + [rest] * (WEEKS - 1))


# Closed forms, with f_max 0.03, r_max 1000, k_price = q_price = 1 and the
# window [0.4, 0.6]: at price 1 a unit of water is worth 1000 sold or kept.
@pytest.mark.parametrize("prices, inflows, s0, rule, expected", [
    # every unit is worth the same however it is used: s0 * r_max
    (np.ones(WEEKS), np.zeros(WEEKS), 0.5, LAST_WEEK_PRICE, 500.0),
    # only week 1 pays, at most f_max of storage, and kept water is worth nothing
    (weeks(1.0), np.zeros(WEEKS), 0.5, LAST_WEEK_PRICE, 30.0),
    # week 1 sells f_max, the rest above the window's top spills: (0.03 + 0.6) * 1000
    (weeks(1.0), np.zeros(WEEKS), 0.7, MAX_PRICE, 630.0),
    # week 1's inflow overflows: 0.5 - 0.03 + 1.0 leaves 0.47 to spill, 1.03 to use
    (np.ones(WEEKS), weeks(1.0), 0.5, LAST_WEEK_PRICE, 1030.0),
    # too little water to reach the window: the program without it decides
    (weeks(1.0), np.zeros(WEEKS), 0.2, MAX_PRICE, 30.0),
], ids=["all_worth_the_same", "release_cap", "window_top", "forced_spill", "window_out_of_reach"])
def test_closed_forms(prices, inflows, s0, rule, expected):
    cfg = EnvConfig(terminal_price_rule=rule)
    value, _ = perfect_foresight_plan(prices, inflows, s0, cfg)
    assert value == pytest.approx(expected, rel=1e-9)


@pytest.fixture(scope="module")
def pools():
    """(station, pools kind) -> pools: artificial, or the wider `--synthetic-historic` noise."""
    out = {}
    for station, (_, artificial) in STATIONS.items():
        cfg = ArtificialConfig(**artificial)
        out[station, "artificial"] = generate_artificial_pools(cfg, POOLS_SEED)
        wide = dataclasses.replace(cfg, price_noise=0.5, inflow_noise=0.8)
        out[station, "historic"] = generate_artificial_pools(wide, POOLS_SEED, mode=HISTORIC)
    return out


@pytest.fixture(scope="module")
def sdp(pools):
    """(station, rule, pools kind) -> its SDP solve on SDP_POINTS storages, solved once."""
    @functools.cache
    def solve(station, rule, kind):
        cfg = EnvConfig(**STATIONS[station][0], terminal_price_rule=rule)
        return sdp_solve(pools[station, kind].price_pool, pools[station, kind].inflow_pool, cfg,
                         SDP_POINTS)
    return solve


@pytest.mark.parametrize("kind", ["artificial", "historic"])
@pytest.mark.parametrize("rule", [LAST_WEEK_PRICE, MAX_PRICE])
@pytest.mark.parametrize("station", list(STATIONS))
def test_no_policy_beats_perfect_foresight(station, rule, kind, pools, sdp):
    cfg = EnvConfig(**STATIONS[station][0], terminal_price_rule=rule)
    scenario_pools = pools[station, kind]
    bounds = perfect_foresight_bounds(scenario_pools, cfg, N_EPISODES, EVAL_SEED)
    policies = {"random": random_policy,
                **{f"constant {level}": constant_policy(level) for level in (0.0, 0.5, 1.0)},
                "plan": plan_policy(scenario_pools, cfg, N_EPISODES, EVAL_SEED),
                "sdp": sdp_policy(sdp(station, rule, kind))}
    for label, action_fn in policies.items():
        traces = evaluate_policy_fn(action_fn, scenario_pools, cfg, N_EPISODES, EVAL_SEED)
        assert_replayed(traces, scenario_pools, cfg, EVAL_SEED)
        # the plans of these years spill nothing below capacity, which the
        # environment cannot do, so it must pay each plan its value (it
        # came within 6e-10 relative); an environment that pays more or
        # less than the linear program counts fails here
        assert_within_bounds(traces, bounds, label, attained=label == "plan")


@pytest.mark.parametrize("rule", [LAST_WEEK_PRICE, MAX_PRICE])
@pytest.mark.parametrize("station", list(STATIONS))
def test_sdp_policy_scores_what_the_solve_predicts(station, rule, pools, sdp):
    solution = sdp(station, rule, "artificial")
    cfg, scenario_pools, n = solution.cfg, pools[station, "artificial"], 200
    traces = evaluate_policy_fn(sdp_policy(solution), scenario_pools, cfg, n, EVAL_SEED)
    assert_replayed(traces, scenario_pools, cfg, EVAL_SEED)
    starts = np.array([s0 for _, s0 in episode_starts(scenario_pools, cfg, n, EVAL_SEED)])
    # Week by week: the environment pays the week's reward, and leaves the end
    # storage, that the solve's array dynamics predict for the chosen release,
    # so reward plus the end storage's value is the chosen candidate's return.
    before = np.column_stack([starts, traces[:, :-1, 4]])
    for week in range(1, WEEKS + 1):
        _, predicted = sdp_choice(solution, week, before[:, week - 1],
                                  traces[:, week - 1, 1], traces[:, week - 1, 2])
        later = solution.predicted(traces[:, week - 1, 4], week + 1)  # 0 after the last week
        np.testing.assert_allclose(traces[:, week - 1, 5] + later, predicted, rtol=1e-9,
                                   err_msg=f"week {week}")
    # On average: by the weekly identity, a year's return less the predicted
    # value of its start storage sums, over the weeks, the chosen return less
    # the interpolated value of the storage held. Its mean is the grid's
    # interpolation error along the year, the rest is sampling noise. Rule:
    # the mean difference lies within 3 standard errors plus the mean
    # absolute interpolation error at the grid cells' midpoints (weighted by
    # cell width), summed over the weeks; that term shrinks with the spacing.
    diff = traces[:, -1, 6] - solution.predicted(starts)
    grid_error = np.average(np.abs(solution.midpoint_errors()), axis=1,
                            weights=np.diff(solution.grid)).sum()
    tolerance = 3 * diff.std(ddof=1) / np.sqrt(n) + grid_error
    assert abs(diff.mean()) <= tolerance, (diff.mean(), tolerance)


def brute_force_value(prices, inflows, s0, cfg, actions):
    """The best expected return over len(prices) weeks from storage s0, found by
    trying each of `actions` after each history of draws; week t draws one of
    prices[t] and one of inflows[t], each equally likely. Dynamics as in env.py."""
    def best(week, storage):  # the expected best return from week `week` at each storage
        total = 0.0
        for price, inflow in itertools.product(prices[week], inflows[week]):
            release = np.minimum(actions, storage[:, None] / cfg.f_max) * cfg.f_max
            end = np.minimum(storage[:, None] - release + inflow, 1.0)
            value = release * cfg.r_max * (price * cfg.k_price) ** cfg.q_price
            if week == len(prices) - 1:
                last = price if cfg.terminal_price_rule == LAST_WEEK_PRICE else 1.0
                inside = (cfg.terminal_low <= end) & (end <= cfg.terminal_high)
                bonus = cfg.r_max * (last * cfg.k_price) ** cfg.q_price
                value += np.where(inside, end, 0.0) * bonus
            else:
                value += best(week + 1, end.ravel()).reshape(end.shape)
            total = total + value.max(axis=1)
        return total / (len(prices[week]) * len(inflows[week]))
    return float(best(0, np.array([s0]))[0])


@pytest.mark.parametrize("k_price, q_price", [(1.0, 1.0), (0.8, 1.5)])
@pytest.mark.parametrize("rule", [LAST_WEEK_PRICE, MAX_PRICE])
def test_sdp_solve_matches_brute_force(rule, k_price, q_price):
    # Storages, inflows, f_max and the window are multiples of the grid's
    # spacing 1/8, so every release that can be best keeps the storage on
    # the grid: the value is linear between nodes and the solve is exact at
    # them. Such releases are actions in steps of 1/2, which the brute
    # force's steps of 1/40 include, so it finds the optimum too. Some
    # histories spill (1 + 0.25 > 1) and some cannot reach the window.
    cfg = EnvConfig(f_max=0.25, r_max=1.0, k_price=k_price, q_price=q_price,
                    terminal_low=0.375, terminal_high=0.625, terminal_price_rule=rule)
    prices = [[0.5, 1.0], [0.25, 0.75], [0.5, 1.0]]
    inflows = [[0.0, 0.25], [0.125, 0.5], [0.0, 0.375]]
    solution = sdp_solve(prices, inflows, cfg, 9)
    assert np.array_equal(solution.grid, np.arange(9) / 8)
    for s0 in solution.grid:
        expected = brute_force_value(prices, inflows, s0, cfg, np.arange(41) / 40)
        assert solution.predicted(s0) == pytest.approx(expected, rel=1e-12), s0
