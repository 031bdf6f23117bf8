"""Single-reservoir weekly scheduling environment.

All water quantities are fractions of the reservoir capacity r_max; prices
are normalized to [0, 1]. A year is 52 weeks. Within a step the order is:
the release is limited by the storage present before this week's inflow,
the inflow is added, and flooding (spill) is checked last.

`step` advances one year on Python floats: `trainer.train` steps each
training year week by week with `reset`, `observe` and `step`.
`step_years` advances a batch of years that share their week on (years,)
arrays, for `trainer.rollout`, and gives each year the bits `step` gives
it. The price factor (price * k_price) ** q_price is always Python's `**`:
on some hosts `np.power` differs from it in the last bit.
"""

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

WEEKS = 52

LAST_WEEK_PRICE = "last_week_price"
MAX_PRICE = "max_price"
TERMINAL_PRICE_RULES = (LAST_WEEK_PRICE, MAX_PRICE)


class UsageError(ValueError):
    """Raised for a bad setting: a config field, flag or argument out of range."""


def require_finite(cfg):
    """Raise UsageError if a float field of the dataclass `cfg` is NaN, infinite or too large."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type is float and not -sys.float_info.max <= value <= sys.float_info.max:
            raise UsageError(f"{f.name} must be finite, got {value!r}")


@dataclass
class EnvConfig:
    r_max: float = 1000.0  # reservoir capacity, Mm3
    f_max: float = 0.03  # max weekly production as fraction of r_max
    k_price: float = 1.0
    q_price: float = 1.0
    init_low: float = 0.4
    init_high: float = 0.6
    terminal_low: float = 0.4
    terminal_high: float = 0.6
    terminal_price_rule: str = LAST_WEEK_PRICE

    def validate(self):
        require_finite(self)
        if not 0.0 < self.f_max <= 1.0:
            raise UsageError("f_max must be in (0, 1]")
        if not 0.0 <= self.init_low <= self.init_high <= 1.0:
            raise UsageError("init bounds must satisfy 0 <= low <= high <= 1")
        if not 0.0 <= self.terminal_low <= self.terminal_high <= 1.0:
            raise UsageError("terminal bounds must satisfy 0 <= low <= high <= 1")
        if self.r_max <= 0.0:
            raise UsageError("r_max must be > 0")
        if self.k_price <= 0.0 or self.q_price <= 0.0:
            raise UsageError("k_price and q_price must be > 0")
        if self.terminal_price_rule not in TERMINAL_PRICE_RULES:
            raise UsageError(f"terminal_price_rule must be one of {TERMINAL_PRICE_RULES}")


@dataclass
class EnvState:
    week: int  # 1..52
    storage: float  # fraction of r_max, in [0, 1]
    price: float  # normalized, in [0, 1]
    inflow: float  # fraction of r_max, in [0, 1]
    weeks_to_empty: float  # storage / f_max


@dataclass
class StepOutcome:
    next_state: Optional[EnvState]  # None once the year is over
    reward: float
    done: bool
    spill: float  # fraction of r_max lost over the dam
    effective_action: float
    terminal_bonus: float
    end_storage: float  # storage after release, inflow and spill


def reset(cfg, scenario, rng):
    """Start a new year with storage drawn uniformly from the init window."""
    storage = float(rng.uniform(cfg.init_low, cfg.init_high))
    return EnvState(1, storage, float(scenario.prices[0]), float(scenario.inflows[0]),
                    storage / cfg.f_max)


def feasible_max_action(state, cfg):
    """Largest action whose release volume does not exceed current storage."""
    a = state.storage / cfg.f_max
    if a >= 1.0:
        return 1.0
    # Round down so a * f_max can never exceed storage in float arithmetic.
    while a * cfg.f_max > state.storage:
        a = math.nextafter(a, 0.0)
    return a


def reward(a_eff, price, cfg):
    """Revenue of releasing a_eff of the weekly production capacity at `price`."""
    return a_eff * cfg.f_max * cfg.r_max * (price * cfg.k_price) ** cfg.q_price


def terminal_value(end_storage, terminal_price, cfg):
    """Value of water left at year end; zero outside the target storage window."""
    if not cfg.terminal_low <= end_storage <= cfg.terminal_high:
        return 0.0
    return end_storage * cfg.r_max * (terminal_price * cfg.k_price) ** cfg.q_price


def step(state, action, scenario, cfg):
    """Advance one week.

    The requested action is clipped to the feasible maximum, revenue is
    earned at this week's price, the inflow arrives, and any excess above
    capacity spills. At week 52 the episode ends and the end-of-year bonus
    is added to the reward.
    """
    if not 0.0 <= action <= 1.0:
        raise ValueError(f"action {action!r} outside [0, 1]")
    if not 1 <= state.week <= WEEKS:
        raise ValueError(f"week {state.week!r} outside 1..{WEEKS}")

    a_max = feasible_max_action(state, cfg)
    a_eff = action if action < a_max else a_max
    step_reward = reward(a_eff, state.price, cfg)

    release = a_eff * cfg.f_max
    if release > state.storage:  # float-rounding guard
        release = state.storage
    raw_end = state.storage - release + state.inflow
    if raw_end > 1.0:
        spill = raw_end - 1.0
        end = 1.0
    else:
        spill = 0.0
        end = raw_end

    if state.week == WEEKS:
        if cfg.terminal_price_rule == LAST_WEEK_PRICE:
            terminal_price = state.price
        else:
            terminal_price = 1.0
        bonus = terminal_value(end, terminal_price, cfg)
        # the bonus joins the reward only here: adding a 0.0 bonus would
        # turn a -0.0 reward into +0.0
        step_reward += bonus
        next_state = None
    else:
        bonus = 0.0
        # positional: a keyword call costs twice as much, once a week
        next_state = EnvState(state.week + 1, end, float(scenario.prices[state.week]),
                              float(scenario.inflows[state.week]), end / cfg.f_max)
    # in field order: next_state, reward, done, spill, effective_action,
    # terminal_bonus, end_storage
    return StepOutcome(next_state, step_reward, next_state is None, spill, a_eff, bonus, end)


def price_factors(prices, cfg):
    """(price * k_price) ** q_price of each element of `prices`, by Python's `**`."""
    k, q = cfg.k_price, cfg.q_price
    return np.array([(p * k) ** q for p in np.ravel(prices).tolist()]).reshape(np.shape(prices))


def step_years(week, storage, factor, inflow, action, cfg):
    """Advance every year of a batch through week `week`, each as `step` would.

    storage, this week's price factor (see price_factors), inflow and action
    are (years,) arrays. Returns the (years,) arrays (reward,
    effective_action, spill, end_storage, terminal_bonus); the bonus is
    zero before week 52 and is added to the reward in week 52 only.
    """
    valid = (action >= 0.0) & (action <= 1.0)  # NaN is not
    if not valid.all():
        raise ValueError(f"action {float(action[valid.argmin()])!r} outside [0, 1]")
    if not 1 <= week <= WEEKS:
        raise ValueError(f"week {week!r} outside 1..{WEEKS}")

    # feasible_max_action, row by row: round down until a * f_max fits in storage
    a_max = np.minimum(storage / cfg.f_max, 1.0)
    over = (a_max < 1.0) & (a_max * cfg.f_max > storage)
    while over.any():
        a_max = np.where(over, np.nextafter(a_max, 0.0), a_max)
        over &= a_max * cfg.f_max > storage
    a_eff = np.where(action < a_max, action, a_max)
    reward = a_eff * cfg.f_max * cfg.r_max * factor

    release = a_eff * cfg.f_max
    release = np.where(release > storage, storage, release)  # float-rounding guard
    raw_end = storage - release + inflow
    flooded = raw_end > 1.0
    spill = np.where(flooded, raw_end - 1.0, 0.0)
    end = np.where(flooded, 1.0, raw_end)

    if week < WEEKS:
        return reward, a_eff, spill, end, np.zeros(len(end))
    if cfg.terminal_price_rule != LAST_WEEK_PRICE:
        factor = (1.0 * cfg.k_price) ** cfg.q_price
    in_window = (cfg.terminal_low <= end) & (end <= cfg.terminal_high)
    bonus = np.where(in_window, end * cfg.r_max * factor, 0.0)
    return reward + bonus, a_eff, spill, end, bonus


def observe(state):
    """Network input: [week/52, storage, price, inflow, capped weeks-to-empty/52]."""
    return np.array(
        [
            state.week / WEEKS,
            state.storage,
            state.price,
            state.inflow,
            min(state.weeks_to_empty, float(WEEKS)) / WEEKS,
        ]
    )
