"""Oracles for the reservoir problem that share no code with env.py.

`perfect_foresight_plan` gives the wait-and-see value of one year (Birge &
Louveaux, Introduction to Stochastic Programming, 2nd ed. 2011, ch. 4):
the best return of a year whose prices, inflows and start storage are all
known in advance. No policy that sees only the past can beat it on that
year, so every episode's return must lie at or below it. The plan that
attains it, played open loop by `plan_policy`, comes close to it, so an
environment that overpays shows as a return above the value.
"""

import dataclasses

import numpy as np
from scipy.optimize import linprog

from hydrosac.env import LAST_WEEK_PRICE
from hydrosac.scenario import sample_scenario

# HiGHS works to a feasibility tolerance of 1e-7; this is ample above it.
BOUND_RTOL = 1e-6
PLAN_MARGIN = 1e-9


def _max_linear(gain, a_ub, b_ub, bounds):
    """(max gain @ z, its z) subject to a_ub @ z <= b_ub and `bounds`, or None if infeasible."""
    res = linprog(-gain, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun, res.x


def perfect_foresight_plan(prices, inflows, s0, cfg):
    """(value, actions): the perfect-foresight value of one year under the
    EnvConfig `cfg`, and the 52 effective actions of a plan that attains it.

    A linear program over the effective action a_t in [0, 1] and the spill
    x_t >= 0 of each week t. End storage after week t is s0 plus the
    inflows, less f_max times the actions and the spills, up to t; it must
    lie in [0, 1], and week t's release f_max * a_t is at most the storage
    before week t's inflow. Revenue is the sum of a_t * f_max * r_max *
    (p_t * k_price) ** q_price. The terminal bonus, end storage times
    r_max * (terminal price * k_price) ** q_price, is paid only inside the
    terminal window, which is not convex; so two programs are solved, one
    with end storage held in the window and the bonus added, one with
    neither, and the larger value is returned.

    Spill is free here, where the environment spills only above 1. That
    only widens the feasible set, so the value is still an upper bound.
    """
    n = len(prices)
    f = cfg.f_max
    revenue = np.array([f * cfg.r_max * (p * cfg.k_price) ** cfg.q_price for p in prices])
    upto = np.tril(np.ones((n, n)))  # row t sums weeks 1..t
    before = upto - np.eye(n)  # row t sums weeks 1..t-1
    stored = s0 + np.cumsum(inflows)  # end storage of week t if nothing left the reservoir
    # rows: end storage <= 1; end storage >= 0; release <= storage before the inflow
    a_ub = np.block([[-f * upto, -upto], [f * upto, upto], [f * upto, before]])
    b_ub = np.concatenate([1.0 - stored, stored, stored - inflows])
    bounds = [(0.0, 1.0)] * n + [(0.0, None)] * n
    plain = _max_linear(np.concatenate([revenue, np.zeros(n)]), a_ub, b_ub, bounds)

    price = prices[-1] if cfg.terminal_price_rule == LAST_WEEK_PRICE else 1.0
    bonus = cfg.r_max * (price * cfg.k_price) ** cfg.q_price  # per unit of end storage
    # the year's end storage is stored[-1] - left @ z
    left = np.concatenate([np.full(n, f), np.ones(n)])
    window = _max_linear(
        np.concatenate([revenue - bonus * f, np.full(n, -bonus)]),
        np.vstack([a_ub, left, -left]),
        np.concatenate([b_ub, [stored[-1] - cfg.terminal_low, cfg.terminal_high - stored[-1]]]),
        bounds,
    )
    if window is not None and window[0] + bonus * stored[-1] > plain[0]:
        return window[0] + bonus * stored[-1], window[1][:n]
    return plain[0], plain[1][:n]


def episode_starts(pools, cfg, n_episodes, seed):
    """(scenario, start storage) of each episode of evaluate_policy_fn(..., n_episodes, seed).

    Each episode's generator is derived from (seed, i) as there, and draws
    its scenario and then its start storage, as sample_scenario and reset do.
    """
    starts = []
    for seq in np.random.SeedSequence(seed).spawn(n_episodes):
        rng = np.random.default_rng(seq)
        scenario = sample_scenario(pools, rng)
        starts.append((scenario, float(rng.uniform(cfg.init_low, cfg.init_high))))
    return starts


def perfect_foresight_bounds(pools, cfg, n_episodes, seed):
    """The perfect-foresight value of each episode of evaluate_policy_fn(..., n_episodes, seed),
    with the episodes' scenarios and start storages, as an array."""
    return np.array([perfect_foresight_plan(scenario.prices, scenario.inflows, s0, cfg)[0]
                     for scenario, s0 in episode_starts(pools, cfg, n_episodes, seed)])


def plan_policy(pools, cfg, n_episodes, seed):
    """The action_fn that plays, open loop, the perfect-foresight plan of each
    episode of evaluate_policy_fn(..., n_episodes, seed).

    The plans keep end storage PLAN_MARGIN inside the terminal window, as a
    plan on its edge can end a rounding error outside it and lose the
    bonus; that costs about PLAN_MARGIN of the value. Solver noise just
    outside [0, 1] is clipped.
    """
    inner = dataclasses.replace(cfg, terminal_low=cfg.terminal_low + PLAN_MARGIN,
                                terminal_high=cfg.terminal_high - PLAN_MARGIN)
    plans = [perfect_foresight_plan(scenario.prices, scenario.inflows, s0, inner)[1]
             for scenario, s0 in episode_starts(pools, cfg, n_episodes, seed)]
    weeks = iter(np.clip(plans, 0.0, 1.0).T)
    return lambda obs, rngs: next(weeks)


def assert_replayed(traces, pools, cfg, seed):
    """Assert that `traces` are evaluate_policy_fn's for (pools, cfg, len(traces), seed):
    their prices and inflows are the replayed scenarios', and their first end
    storage follows from the replayed start storage."""
    for trace, (scenario, s0) in zip(traces, episode_starts(pools, cfg, len(traces), seed)):
        assert np.array_equal(trace[:, 1], scenario.prices)
        assert np.array_equal(trace[:, 2], scenario.inflows)
        first_end = min(s0 - trace[0, 3] * cfg.f_max + trace[0, 2], 1.0)
        assert abs(trace[0, 4] - first_end) <= 1e-12


def assert_within_bounds(traces, bounds, label, attained=False):
    """Every episode's return, traces[:, -1, 6], is at most its bound, to
    BOUND_RTOL; with `attained`, also at least its bound, to BOUND_RTOL."""
    returns = traces[:, -1, 6]
    slack = BOUND_RTOL * np.maximum(np.abs(bounds), 1.0)
    over = np.flatnonzero(returns > bounds + slack)
    assert over.size == 0, (f"{label}: episodes {over.tolist()} return {returns[over].tolist()} "
                            f"above their perfect-foresight bounds {bounds[over].tolist()}")
    under = np.flatnonzero(returns < bounds - slack) if attained else np.array([], int)
    assert under.size == 0, (f"{label}: episodes {under.tolist()} return {returns[under].tolist()} "
                             f"below their perfect-foresight bounds {bounds[under].tolist()}")
