"""Weekly price/inflow data: ingestion, normalization, pools, and sampling.

Training data is organized as 52 per-week sample pools for price and 52 for
inflow. A scenario (one simulated year) is drawn by bootstrapping one price
and one inflow from each week's pool. Prices are normalized to the global
maximum across all input series; inflows are expressed as fractions of the
reservoir capacity and clamped to [0, 1].
"""

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .env import WEEKS, UsageError, require_finite

PRICE = "price"
INFLOW = "inflow"
KINDS = (PRICE, INFLOW)

ARTIFICIAL = "artificial"
HISTORIC = "historic"

# Shape of the built-in artificial year. Prices sit at the high level during
# winter weeks (1-15 and 40-52) and at the low level in between; inflow is a
# raised-cosine melt-season bump over weeks 18-30 on top of a small base flow.
PRICE_LOW_FIRST_WEEK = 16
PRICE_LOW_LAST_WEEK = 39
INFLOW_BUMP_CENTER = 24.0
INFLOW_BUMP_HALF_WIDTH = 6.5
INFLOW_BASE_WEIGHT = 0.05


class DataError(ValueError):
    """Raised for malformed or insufficient input data."""


@dataclass
class RawSeries:
    kind: str
    points: list  # (year, week, value) tuples
    label: str = ""

    def validate(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown series kind {self.kind!r}")
        for year, week, value in self.points:
            if not 1 <= week <= WEEKS:
                raise DataError(f"week {week} out of range in series {self.label!r}")
            if not np.isfinite(value) or value < 0:
                raise DataError(f"bad value {value!r} in series {self.label!r}")


@dataclass
class ScenarioPools:
    price_pool: list  # 52 1-D float arrays, values in [0, 1]
    inflow_pool: list  # 52 1-D float arrays, values in [0, 1]
    price_max: float
    mode: str
    provenance: str = ""

    def validate(self):
        if self.mode not in (ARTIFICIAL, HISTORIC):
            raise DataError(f"unknown pools mode {self.mode!r}")
        if not 0 < self.price_max < np.inf:  # NaN fails too
            raise DataError(f"price_max must be finite and > 0, got {self.price_max!r}")
        for name, pools in ((PRICE, self.price_pool), (INFLOW, self.inflow_pool)):
            if len(pools) != WEEKS:
                raise DataError(f"{name} pool must have {WEEKS} weeks")
            for w, pool in enumerate(pools, start=1):
                if np.ndim(pool) != 1:
                    raise DataError(f"{name} pool for week {w} must be a flat list of numbers")
                if len(pool) == 0:
                    raise DataError(f"empty {name} pool for week {w}")
                # NaN fails both comparisons, so it is rejected here too
                if not np.all((pool >= 0.0) & (pool <= 1.0)):
                    raise DataError(f"{name} pool for week {w} has values outside [0, 1] or NaN")


@dataclass
class Scenario:
    prices: np.ndarray  # (52,) in [0, 1]
    inflows: np.ndarray  # (52,) fraction of reservoir capacity


@dataclass
class ArtificialConfig:
    """Parameters of the synthetic year; defaults match the 1000 Mm3 reservoir."""

    samples_per_week: int = 100
    price_high: float = 1.0
    price_low: float = 0.4
    price_noise: float = 0.1
    inflow_noise: float = 0.3
    annual_inflow: float = 1000.0  # Mm3 per year
    r_max: float = 1000.0  # Mm3

    def validate(self):
        require_finite(self)
        if self.samples_per_week < 1:
            raise UsageError("samples_per_week must be >= 1")
        if self.price_noise < 0 or self.inflow_noise < 0:
            raise UsageError("noise levels must be >= 0")
        if self.price_high <= 0 or self.price_low < 0:
            raise UsageError("price levels must be positive")
        if self.annual_inflow < 0 or self.r_max <= 0:
            raise UsageError("annual_inflow must be >= 0 and r_max > 0")


def load_csv_series(path, kind):
    """Read a `year,week,value` CSV into a RawSeries.

    Rejects the whole file on the first malformed row, reporting its line
    number (line 1 is the header). Blank lines are skipped (see read_csv).
    """
    if kind not in KINDS:
        raise DataError(f"unknown series kind {kind!r}")
    points = []
    for lineno, row in read_csv(path, "year,week,value"):
        if len(row) != 3:
            raise DataError(f"{path}: malformed row at line {lineno}")
        try:
            year = int(row[0])
            week = int(row[1])
            value = float(row[2])
        except ValueError:
            raise DataError(f"{path}: malformed row at line {lineno}") from None
        if not 1 <= week <= WEEKS:
            raise DataError(f"{path}: week out of range at line {lineno}")
        if not np.isfinite(value) or value < 0:
            raise DataError(f"{path}: negative or non-finite value at line {lineno}")
        points.append((year, week, value))
    if not points:
        raise DataError(f"{path}: no rows")
    return RawSeries(kind=kind, points=points, label=str(path))


def load_scenario_csv(path):
    """Read a `week,price,inflow` CSV holding each of the 52 weeks once into a Scenario."""
    rows = []
    for lineno, row in read_csv(path, "week,price,inflow"):
        try:
            week, price, inflow = row
            rows.append((int(week), float(price), float(inflow)))
        except ValueError:  # also a row of other than three fields
            raise DataError(f"{path}: malformed row at line {lineno}") from None
    rows.sort()
    if [r[0] for r in rows] != list(range(1, WEEKS + 1)):
        raise DataError(f"{path}: scenario must contain weeks 1..{WEEKS} exactly once each")
    prices = np.array([r[1] for r in rows])
    inflows = np.array([r[2] for r in rows])
    # written so that NaN, which fails every comparison, is out of range too
    if not (np.all((prices >= 0) & (prices <= 1)) and np.all((inflows >= 0) & (inflows <= 1))):
        raise DataError(f"{path}: values must lie in [0, 1]")
    return Scenario(prices=prices, inflows=inflows)


def build_pools(price_series, inflow_series, r_max):
    """Merge raw series into per-week pools, normalized to [0, 1].

    Prices are divided by the maximum over all price series; inflows by
    r_max, with values above capacity clamped to 1 (counted in provenance).
    """
    if not price_series or not inflow_series:
        raise DataError("need at least one price series and one inflow series")
    if not 0 < r_max < np.inf:  # NaN fails too
        raise DataError(f"r_max must be finite and > 0, got {r_max!r}")
    for series in list(price_series) + list(inflow_series):
        series.validate()

    price_raw = [[] for _ in range(WEEKS)]
    inflow_raw = [[] for _ in range(WEEKS)]
    for series in price_series:
        if series.kind != PRICE:
            raise DataError(f"series {series.label!r} is not a price series")
        for _, week, value in series.points:
            price_raw[week - 1].append(value)
    for series in inflow_series:
        if series.kind != INFLOW:
            raise DataError(f"series {series.label!r} is not an inflow series")
        for _, week, value in series.points:
            inflow_raw[week - 1].append(value)

    empty = [w + 1 for w in range(WEEKS) if not price_raw[w] or not inflow_raw[w]]
    if empty:
        raise DataError(f"no samples for weeks {empty}")

    price_max = max(max(vals) for vals in price_raw)
    if price_max <= 0:
        raise DataError("all price data is zero")

    clamped = 0
    price_pool = []
    inflow_pool = []
    for w in range(WEEKS):
        price_pool.append(np.asarray(sorted(price_raw[w]), dtype=float) / price_max)
        inflow = np.asarray(sorted(inflow_raw[w]), dtype=float) / r_max
        clamped += int(np.sum(inflow > 1.0))
        inflow_pool.append(np.minimum(inflow, 1.0))

    labels = sorted({s.label for s in price_series} | {s.label for s in inflow_series})
    provenance = f"historic pools from {len(labels)} series"
    if clamped:
        provenance += f"; clamped {clamped} inflow values above capacity"
    pools = ScenarioPools(
        price_pool=price_pool,
        inflow_pool=inflow_pool,
        price_max=float(price_max),
        mode=HISTORIC,
        provenance=provenance,
    )
    pools.validate()
    return pools


def weekly_price_profile(cfg):
    """Noise-free weekly price level, before normalization."""
    weeks = np.arange(1, WEEKS + 1)
    low = (weeks >= PRICE_LOW_FIRST_WEEK) & (weeks <= PRICE_LOW_LAST_WEEK)
    return np.where(low, cfg.price_low, cfg.price_high).astype(float)


def weekly_inflow_means(cfg):
    """Noise-free weekly mean inflow as a fraction of r_max; sums to the annual total."""
    weeks = np.arange(1, WEEKS + 1, dtype=float)
    offset = weeks - INFLOW_BUMP_CENTER
    inside = np.abs(offset) <= INFLOW_BUMP_HALF_WIDTH
    bump = np.where(
        inside, 0.5 * (1.0 + np.cos(np.pi * offset / INFLOW_BUMP_HALF_WIDTH)), 0.0
    )
    weights = INFLOW_BASE_WEIGHT + bump
    return (cfg.annual_inflow / cfg.r_max) * weights / np.sum(weights)


def generate_artificial_pools(cfg, seed, mode=ARTIFICIAL):
    """Build pools from the synthetic profiles plus multiplicative noise.

    Each weekly sample is profile * (1 + noise * u) with u ~ Uniform[-1, 1].
    Prices are then divided by the largest noisy price, so the largest is 1.0
    and the noise-free high level sits below it, at about 1 / (1 + price_noise);
    price_max records price_high, not that divisor. Inflows are clipped to [0, 1].
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    n = cfg.samples_per_week

    price_profile = weekly_price_profile(cfg)
    price = price_profile[:, None] * (
        1.0 + cfg.price_noise * rng.uniform(-1.0, 1.0, size=(WEEKS, n))
    )
    price = np.clip(price, 0.0, None)
    price /= np.max(price)

    inflow_means = weekly_inflow_means(cfg)
    inflow = inflow_means[:, None] * (
        1.0 + cfg.inflow_noise * rng.uniform(-1.0, 1.0, size=(WEEKS, n))
    )
    inflow = np.clip(inflow, 0.0, 1.0)

    pools = ScenarioPools(
        price_pool=[price[w].copy() for w in range(WEEKS)],
        inflow_pool=[inflow[w].copy() for w in range(WEEKS)],
        price_max=float(cfg.price_high),
        mode=mode,
        provenance=(
            f"{mode} pools generated with seed {seed}, {n} samples/week, "
            f"annual inflow {cfg.annual_inflow:g} of r_max {cfg.r_max:g}"
        ),
    )
    pools.validate()
    return pools


def sample_scenario(pools, rng):
    """Draw one price and one inflow per week, independently and uniformly.

    The draw order is part of the contract, because training and evaluation
    replay a seeded generator: one index per draw, uniform over that draw's
    pool, week by week and the price before the inflow (week-1 price,
    week-1 inflow, week-2 price, ...). The 104 indices come from one
    `rng.integers` call with one bound per draw, which yields the same
    values and leaves the generator in the same state as one scalar call
    per draw in that order.
    """
    by_draw = [pool for pair in zip(pools.price_pool, pools.inflow_pool) for pool in pair]
    picks = rng.integers(0, [len(pool) for pool in by_draw]).tolist()
    values = np.array([pool[i] for pool, i in zip(by_draw, picks)])
    return Scenario(prices=values[0::2], inflows=values[1::2])


def read_json(path, error=DataError, object_pairs_hook=None):
    """Decode the JSON file at `path`; every JSON input is read here.

    Bad syntax, non-UTF-8 bytes, an integer over Python's 4300-digit limit
    (all ValueError) and nesting too deep to decode (RecursionError) raise
    `error` naming `path`; a missing or unreadable file raises OSError.
    `object_pairs_hook` goes to json.load; it must raise nothing, or its error is misreported.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=object_pairs_hook)
        except (ValueError, RecursionError) as e:
            raise error(f"{path} is not valid JSON ({e})") from None


def read_csv(path, header):
    """Yield (line number, fields) per row of the CSV file at `path` with a non-blank field.

    Every CSV input is read here, so every reader skips blank and
    whitespace-only lines alike. Line 1 must be `header`, such as
    "year,week,value" (case and spaces around a name aside). Non-UTF-8
    text and what the csv module rejects (a field over 131,072 characters)
    raise DataError naming `path`; a missing or unreadable file raises OSError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        try:
            first = next(rows, None)
            if first is None or [c.strip().lower() for c in first] != header.split(","):
                raise DataError(f"{path}: expected header '{header}'")
            for lineno, row in enumerate(rows, start=2):
                if any(field.strip() for field in row):
                    yield lineno, row
        except (UnicodeDecodeError, csv.Error) as e:
            raise DataError(f"{path}: not a readable UTF-8 CSV file ({e})") from None


def _write_atomic(path, write):
    """Run write(fh) on a temporary file beside `path`, then move it onto `path`.

    Every output file (pools, checkpoints, logs and CSVs) is written this
    way: a crash or an exception part way through leaves an existing file
    at `path` untouched, and the temporary file is removed. An existing
    `path` that is not a regular file (a device or a FIFO) is written in
    place instead, since a rename would replace it.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
        return
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path, header, lines):
    """Write `header`, then each string of `lines`, one per line; every CSV output goes here."""
    _write_atomic(path, lambda fh: fh.write("\n".join([header, *lines]) + "\n"))


def save_pools(pools, path):
    pools.validate()
    doc = {
        "mode": pools.mode,
        "price_max": pools.price_max,
        "provenance": pools.provenance,
        "price_pool": [list(map(float, p)) for p in pools.price_pool],
        "inflow_pool": [list(map(float, p)) for p in pools.inflow_pool],
    }
    _write_atomic(path, lambda fh: json.dump(doc, fh))


def load_pools(path):
    doc = read_json(path)
    try:
        # JSON numbers only: float() and numpy would take "0.5" or true for one
        if type(doc["price_max"]) not in (int, float):
            raise ValueError("price_max must be a number")
        for name in (PRICE, INFLOW):
            for w, pool in enumerate(doc[f"{name}_pool"], start=1):
                if not isinstance(pool, list) or not {*map(type, pool)} <= {int, float}:
                    raise ValueError(f"{name} pool for week {w} must be a flat list of numbers")
        pools = ScenarioPools(
            price_pool=[np.asarray(p, dtype=float) for p in doc["price_pool"]],
            inflow_pool=[np.asarray(p, dtype=float) for p in doc["inflow_pool"]],
            price_max=float(doc["price_max"]),
            mode=str(doc["mode"]),
            provenance=str(doc.get("provenance", "")),
        )
    except (KeyError, OverflowError, TypeError, ValueError) as e:  # Overflow: a huge int
        raise DataError(f"{path}: malformed pools file ({e})") from None
    pools.validate()
    return pools
