"""Single-reservoir weekly scheduling environment.

All water quantities are fractions of the reservoir capacity r_max; prices
are normalized to [0, 1]. A year is 52 weeks. Within a step the order is:
the release is limited by the storage present before this week's inflow,
the inflow is added, and flooding (spill) is checked last.

One week has one contract in two forms. `step(week, storage, price,
inflow, action, cfg)` advances one year on Python floats, for
`trainer.train`, which steps each training year week by week and builds
each observation with `observe`. `step_years(week, storage, factor,
inflow, action, cfg)` advances a batch of years that share their week on
(years,) arrays, for `trainer.rollout`. Both return (reward,
effective_action, spill, end_storage, terminal_bonus), and `step_years`
gives each year the bits `step` gives it. The price factor (price *
k_price) ** q_price is always Python's `**`: on some hosts `np.power`
differs from it in the last bit.
"""

import dataclasses
import math
import sys
from dataclasses import dataclass

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


def feasible_max_action(storage, cfg):
    """Largest action whose release volume does not exceed `storage`."""
    a = storage / cfg.f_max
    if a >= 1.0:
        return 1.0
    # Round down so a * f_max can never exceed storage in float arithmetic.
    while a * cfg.f_max > storage:
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


def step(week, storage, price, inflow, action, cfg):
    """Advance one year through week `week`, on Python floats.

    The requested action is clipped to the feasible maximum, revenue is
    earned at this week's price, the inflow arrives, and any excess above
    capacity spills. Returns (reward, effective_action, spill, end_storage,
    terminal_bonus), as step_years does for each of its years; the bonus is
    zero before week 52 and is added to the reward in week 52 only.
    """
    if not 0.0 <= action <= 1.0:
        raise ValueError(f"action {action!r} outside [0, 1]")
    if not 1 <= week <= WEEKS:
        raise ValueError(f"week {week!r} outside 1..{WEEKS}")

    a_max = feasible_max_action(storage, cfg)
    a_eff = action if action < a_max else a_max
    step_reward = reward(a_eff, price, cfg)

    release = a_eff * cfg.f_max
    if release > storage:  # float-rounding guard
        release = storage
    raw_end = storage - release + inflow
    if raw_end > 1.0:
        spill = raw_end - 1.0
        end = 1.0
    else:
        spill = 0.0
        end = raw_end

    if week < WEEKS:
        return step_reward, a_eff, spill, end, 0.0
    terminal_price = price if cfg.terminal_price_rule == LAST_WEEK_PRICE else 1.0
    bonus = terminal_value(end, terminal_price, cfg)
    # the bonus joins the reward only here: adding a 0.0 bonus would turn a
    # -0.0 reward into +0.0
    return step_reward + bonus, a_eff, spill, end, bonus


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


def observe(week, storage, price, inflow, cfg):
    """Network input: [week/52, storage, price, inflow, capped weeks-to-empty/52]."""
    return np.array([week / WEEKS, storage, price, inflow,
                     min(storage / cfg.f_max, float(WEEKS)) / WEEKS])
