"""Single-reservoir weekly scheduling environment.

All water quantities are fractions of the reservoir capacity r_max; prices
are normalized to [0, 1]. A year is 52 weeks. Within a step the order is:
the release is limited by the storage present before this week's inflow,
the inflow is added, and flooding (spill) is checked last.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

WEEKS = 52

LAST_WEEK_PRICE = "last_week_price"
MAX_PRICE = "max_price"
TERMINAL_PRICE_RULES = (LAST_WEEK_PRICE, MAX_PRICE)


def require_finite(cfg, error=ValueError):
    """Raise `error` if a float field of the dataclass `cfg` is NaN or infinite."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type is float and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value!r}")


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
            raise ValueError("f_max must be in (0, 1]")
        if not 0.0 <= self.init_low <= self.init_high <= 1.0:
            raise ValueError("init bounds must satisfy 0 <= low <= high <= 1")
        if not 0.0 <= self.terminal_low <= self.terminal_high <= 1.0:
            raise ValueError("terminal bounds must satisfy 0 <= low <= high <= 1")
        if self.r_max <= 0.0:
            raise ValueError("r_max must be > 0")
        if self.q_price <= 0.0:
            raise ValueError("q_price must be > 0")
        if self.terminal_price_rule not in TERMINAL_PRICE_RULES:
            raise ValueError(f"terminal_price_rule must be one of {TERMINAL_PRICE_RULES}")


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


def _make_state(week, storage, price, inflow, cfg):
    return EnvState(
        week=week,
        storage=storage,
        price=price,
        inflow=inflow,
        weeks_to_empty=storage / cfg.f_max,
    )


def reset(cfg, scenario, rng):
    """Start a new year with storage drawn uniformly from the init window."""
    storage = float(rng.uniform(cfg.init_low, cfg.init_high))
    return _make_state(1, storage, float(scenario.prices[0]), float(scenario.inflows[0]), cfg)


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
        next_week = state.week + 1
        next_state = _make_state(
            next_week,
            end,
            float(scenario.prices[next_week - 1]),
            float(scenario.inflows[next_week - 1]),
            cfg,
        )
    return StepOutcome(
        next_state=next_state,
        reward=step_reward,
        done=next_state is None,
        spill=spill,
        effective_action=a_eff,
        terminal_bonus=bonus,
        end_storage=end,
    )


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
