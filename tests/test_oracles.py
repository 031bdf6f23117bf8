"""The perfect-foresight upper bound (tests/oracles.py) against closed forms and policies.

Every episode's return must lie at or below the perfect-foresight value of
its year: pathwise, with no sampling tolerance. The bound is checked on
both reference stations (the flexible default, and the high-throughput
one of `--f-max 0.10 --annual-inflow 4000`), both terminal price rules,
and artificial and `--synthetic-historic` pools, for the random policy,
the constant actions 0, 0.5 and 1, and each year's perfect-foresight
plan played open loop, which scores close to the bound.
"""

import dataclasses

import numpy as np
import pytest

from hydrosac.env import LAST_WEEK_PRICE, MAX_PRICE, WEEKS, EnvConfig
from hydrosac.scenario import HISTORIC, ArtificialConfig, generate_artificial_pools
from hydrosac.trainer import constant_policy, evaluate_policy_fn, random_policy
from oracles import (assert_replayed, assert_within_bounds, perfect_foresight_bounds,
                     perfect_foresight_plan, plan_policy)

POOLS_SEED = 11
EVAL_SEED = 12345
N_EPISODES = 10

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


@pytest.mark.parametrize("kind", ["artificial", "historic"])
@pytest.mark.parametrize("rule", [LAST_WEEK_PRICE, MAX_PRICE])
@pytest.mark.parametrize("station", list(STATIONS))
def test_no_policy_beats_perfect_foresight(station, rule, kind, pools):
    cfg = EnvConfig(**STATIONS[station][0], terminal_price_rule=rule)
    scenario_pools = pools[station, kind]
    bounds = perfect_foresight_bounds(scenario_pools, cfg, N_EPISODES, EVAL_SEED)
    policies = {"random": random_policy,
                **{f"constant {level}": constant_policy(level) for level in (0.0, 0.5, 1.0)},
                "plan": plan_policy(scenario_pools, cfg, N_EPISODES, EVAL_SEED)}
    for label, action_fn in policies.items():
        traces = evaluate_policy_fn(action_fn, scenario_pools, cfg, N_EPISODES, EVAL_SEED)
        assert_replayed(traces, scenario_pools, cfg, EVAL_SEED)
        # the plans of these years spill nothing below capacity, which the
        # environment cannot do, so it must pay each plan its value (it
        # came within 6e-10 relative); an environment that pays more or
        # less than the linear program counts fails here
        assert_within_bounds(traces, bounds, label, attained=label == "plan")
