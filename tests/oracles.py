"""Oracles and baselines for the reservoir problem and the policy's density;
all but `scalar_year` share no code with env.py.

`perfect_foresight_plan` gives the wait-and-see value of one year (Birge &
Louveaux, Introduction to Stochastic Programming, 2nd ed. 2011, ch. 4):
the best return of a year whose prices, inflows and start storage are all
known in advance. No policy that sees only the past can beat it on that
year, so every episode's return must lie at or below it. The plan that
attains it, played open loop by `plan_policy`, comes close to it, so an
environment that overpays shows as a return above the value.

`scalar_year` is the reference for `trainer.rollout`: one episode played
alone, week after week, through the scalar `env.observe` and `env.step`,
which tests/test_env.py holds to the bits of their array forms.

`sdp_solve` is stochastic dynamic programming (Stedinger, Sule & Loucks
1984, Water Resources Research 20(11)): backward induction on a storage
grid, with the expectation over every pair of a week's price and inflow
pools, as sample_scenario draws each week's price and inflow
independently. `sdp_policy` acts on it; it sees only the present week.

`random_policy` and `constant_policy(level)` are the baselines the
acceptance suite scores against: a uniform action from each year's
generator, and `level` for every year.

`squashed_log_prob` is the density that `neural.squash_sample`'s log-prob
must match: the log density of sigmoid(Normal(mean, exp(log_std))) at an
action, found by inverting the sigmoid. It shares no code with neural.py
but the `SQUASH_PROB_FLOOR` default.
"""

import dataclasses

import numpy as np
from scipy.optimize import linprog

from hydrosac.env import LAST_WEEK_PRICE, WEEKS, observe, step
from hydrosac.neural import SQUASH_PROB_FLOOR
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
    its scenario and then its start storage, as sample_scenario and rollout do.
    """
    starts = []
    for seq in np.random.SeedSequence(seed).spawn(n_episodes):
        rng = np.random.default_rng(seq)
        scenario = sample_scenario(pools, rng)
        starts.append((scenario, float(rng.uniform(cfg.init_low, cfg.init_high))))
    return starts


def scalar_year(pools, cfg, rng, act):
    """The (52, 8) trace of the episode whose generator is `rng`, played alone.

    As in rollout, the episode draws its scenario, then its start storage;
    each week act(obs, rng) gives the action for the observation `obs`.
    Rows are (week, price, inflow, effective action, end storage, reward,
    accumulated reward, spill).
    """
    scn = sample_scenario(pools, rng)
    storage = float(rng.uniform(cfg.init_low, cfg.init_high))
    total, rows = 0.0, []
    for week, price, inflow in zip(range(1, WEEKS + 1), scn.prices.tolist(), scn.inflows.tolist()):
        action = act(observe(week, storage, price, inflow, cfg), rng)
        reward, a_eff, spill, storage, _ = step(week, storage, price, inflow, action, cfg)
        total += reward
        rows.append((week, price, inflow, a_eff, storage, reward, total, spill))
    return np.array(rows)


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


@dataclasses.dataclass
class SdpSolution:
    """Backward induction's expected values on a storage grid, with the pools it solved.

    values[t, j] is the expected return from the start of week t + 1 (of
    len(values) - 1 weeks) with storage grid[j], before that week's price
    and inflow are seen; between nodes a value is linear. The last row is
    zero, as the last week pays the terminal bonus itself.
    """
    grid: np.ndarray
    values: np.ndarray
    price_pool: list
    inflow_pool: list
    cfg: object  # the EnvConfig solved

    def predicted(self, storage, week=1):
        """The expected return from the start of week `week` with `storage`."""
        return np.interp(storage, self.grid, self.values[week - 1])

    def later(self, week, end, price):
        """The value of ending week `week` (1-based) with storage `end` at `price`:
        values[week] between weeks, the terminal bonus in the last week."""
        cfg = self.cfg
        if week < len(self.values) - 1:
            return self.predicted(end, week + 1)
        terminal = price if cfg.terminal_price_rule == LAST_WEEK_PRICE else 1.0
        inside = (cfg.terminal_low <= end) & (end <= cfg.terminal_high)
        return np.where(inside, end, 0.0) * _factor(terminal, cfg)

    def returns(self, week, storage, price, inflow, ends=()):
        """(releases, returns), each (candidates, *broadcast shape): the candidate
        releases in week `week` at `storage`, `price` and `inflow` (see
        _candidates), and each one's revenue plus the later value of its end."""
        releases, end = _candidates(self.grid, storage, inflow, self.cfg, ends)
        return releases, releases * _factor(price, self.cfg) + self.later(week, end, price)

    def bellman(self, week, storage):
        """The expected best return of week `week` at each of the 1-D `storage`: the
        mean, over every (price, inflow) pair of the week's pools, of the best
        candidate's return. A running maximum, one candidate at a time."""
        prices = np.asarray(self.price_pool[week - 1], dtype=float)
        inflows = np.asarray(self.inflow_pool[week - 1], dtype=float)
        releases, end = _candidates(self.grid, storage[:, None], inflows, self.cfg, ())
        factor = _factor(prices, self.cfg)
        best = np.full((len(storage), len(inflows), len(prices)), -np.inf)
        value = np.empty_like(best)
        for u, e in zip(releases[..., None], end[..., None]):
            np.multiply(u, factor, out=value)
            value += self.later(week, e, prices)
            np.maximum(best, value, out=best)
        return best.mean(axis=(1, 2))

    def midpoint_errors(self):
        """(weeks, cells) array: each week's bellman value less its interpolated
        value at the midpoint of each grid cell, the grid's interpolation error."""
        mids = (self.grid[1:] + self.grid[:-1]) / 2
        return np.array([self.bellman(week, mids) - self.predicted(mids, week)
                         for week in range(1, len(self.values))])


def _factor(price, cfg):
    """The revenue of releasing one unit of storage at `price`."""
    return cfg.r_max * (price * cfg.k_price) ** cfg.q_price


def storage_grid(n_points, cfg):
    """n_points evenly spaced storages in [0, 1], with the terminal window's edges added."""
    return np.union1d(np.linspace(0.0, 1.0, n_points), [cfg.terminal_low, cfg.terminal_high])


def _candidates(grid, storage, inflow, cfg, ends):
    """(releases, end storages), each shaped (candidates, *broadcast shape).

    With a continuation value linear between grid nodes, the return of a
    release u in [0, min(f_max, storage)], u times the price factor plus the
    value of min(storage - u + inflow, 1), is linear in u between the
    releases listed here, so its maximum is at one of them: no release,
    the largest release, and each release that ends on a grid node (the
    node 1 is the spill kink) or on one of `ends`. An end storage is taken
    from the node or the edge itself, not recomputed from the release. A
    candidate outside [0, min(f_max, storage)] is replaced by no release.
    """
    raw = np.asarray(storage + inflow, dtype=float)  # end storage before spill, with no release
    u_max = np.broadcast_to(np.minimum(cfg.f_max, storage), raw.shape)
    # the most nodes that lie between the end storages of no and the largest release
    spans = np.searchsorted(grid, grid + cfg.f_max, side="right") - np.arange(len(grid))
    axes = [1] * raw.ndim
    below = np.searchsorted(grid, np.minimum(raw, 1.0), side="right") - 1  # highest node <= raw
    nodes = below - np.arange(spans.max()).reshape(-1, *axes)
    extra = np.broadcast_to(np.reshape(ends, (-1, *axes)), (len(ends), *raw.shape))
    fixed = np.concatenate([grid[np.maximum(nodes, 0)], extra])
    releases = np.concatenate([np.zeros((1, *raw.shape)), u_max[None], raw - fixed])
    end = np.concatenate([np.minimum(raw, 1.0)[None], np.minimum(raw - u_max, 1.0)[None], fixed])
    feasible = (releases >= 0.0) & (releases <= u_max)
    feasible[2:2 + len(nodes)] &= nodes >= 0
    return np.where(feasible, releases, 0.0), np.where(feasible, end, end[0])


def sdp_solve(price_pool, inflow_pool, cfg, n_points):
    """Backward induction over len(price_pool) weeks on storage_grid(n_points, cfg):
    each week's value at a node is its bellman value, with the next week's
    values as continuation; the last week pays the terminal bonus."""
    grid = storage_grid(n_points, cfg)
    weeks = len(price_pool)
    solution = SdpSolution(grid, np.zeros((weeks + 1, len(grid))), price_pool, inflow_pool, cfg)
    for week in range(weeks, 0, -1):
        solution.values[week - 1] = solution.bellman(week, grid)
    return solution


def sdp_choice(solution, week, storage, price, inflow, margin=PLAN_MARGIN):
    """(release, return) of the best candidate release in week `week` of `solution`
    at each storage, price and inflow; in the last week it aims `margin`
    inside the terminal window, as an end storage on its edge can round
    outside it and lose the bonus."""
    cfg = solution.cfg
    inner = dataclasses.replace(solution, cfg=dataclasses.replace(
        cfg, terminal_low=cfg.terminal_low + margin, terminal_high=cfg.terminal_high - margin))
    last = week == len(solution.values) - 1
    ends = (inner.cfg.terminal_low, inner.cfg.terminal_high) if last else ()
    releases, returns = inner.returns(week, storage, price, inflow, ends)
    best = np.argmax(returns, axis=0)[None]
    return np.take_along_axis(releases, best, 0)[0], np.take_along_axis(returns, best, 0)[0]


def sdp_policy(solution):
    """The action_fn that plays `solution`, a 52-week solve, by sdp_choice at each
    year's observed storage, price and inflow."""
    def act(obs_rows, rngs):
        obs = np.asarray(obs_rows)
        (week,) = set(np.rint(obs[:, 0] * WEEKS).astype(int).tolist())  # in lock-step
        release, _ = sdp_choice(solution, week, obs[:, 1], obs[:, 2], obs[:, 3])
        return np.clip(release / solution.cfg.f_max, 0.0, 1.0)

    return act


def random_policy(obs, rngs):
    return [rng.random() for rng in rngs]


def constant_policy(level):
    return lambda obs, rngs: [level] * len(rngs)


def squashed_log_prob(mean, log_std, action, prob_floor=SQUASH_PROB_FLOOR):
    """Log density at `action` of sigmoid(Normal(mean, exp(log_std))).

    Includes the same additive floor as the sampler, so integrating
    exp(log_prob) over (0, 1) is 1 up to the floor's tiny deficit.
    """
    action = np.asarray(action, dtype=float)
    z = np.log(action) - np.log1p(-action)
    std = np.exp(log_std)
    u = (z - mean) / std
    return (
        -0.5 * u * u
        - log_std
        - 0.5 * np.log(2.0 * np.pi)
        - np.log(action * (1.0 - action) + prob_floor)
    )
