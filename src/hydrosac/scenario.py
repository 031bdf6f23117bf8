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

from .env import WEEKS, require_finite

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
        require_finite(self, DataError)
        if self.samples_per_week < 1:
            raise DataError("samples_per_week must be >= 1")
        if self.price_noise < 0 or self.inflow_noise < 0:
            raise DataError("noise levels must be >= 0")
        if self.price_high <= 0 or self.price_low < 0:
            raise DataError("price levels must be positive")
        if self.annual_inflow < 0 or self.r_max <= 0:
            raise DataError("annual_inflow must be >= 0 and r_max > 0")


def load_csv_series(path, kind):
    """Read a `year,week,value` CSV into a RawSeries.

    Rejects the whole file on the first malformed row, reporting its line
    number (line 1 is the header).
    """
    if kind not in KINDS:
        raise DataError(f"unknown series kind {kind!r}")
    points = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["year", "week", "value"]:
            raise DataError(f"{path}: expected header 'year,week,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
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
    Prices are then renormalized by their global maximum (so the noise-free
    high season sits exactly at 1.0); inflows are clipped to [0, 1].
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
    """Draw one price and one inflow per week, independently and uniformly."""
    prices = np.empty(WEEKS)
    inflows = np.empty(WEEKS)
    for w in range(WEEKS):
        ppool = pools.price_pool[w]
        ipool = pools.inflow_pool[w]
        prices[w] = ppool[rng.integers(0, len(ppool))]
        inflows[w] = ipool[rng.integers(0, len(ipool))]
    return Scenario(prices=prices, inflows=inflows)


def _write_atomic(path, write):
    """Run write(fh) on a temporary file beside `path`, then move it onto `path`.

    Every output file (pools, checkpoints, logs and CSVs) is written this
    way: a crash or an exception part way through leaves an existing file
    at `path` untouched, and the temporary file is removed.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: not valid JSON ({e})") from None
    try:
        pools = ScenarioPools(
            price_pool=[np.asarray(p, dtype=float) for p in doc["price_pool"]],
            inflow_pool=[np.asarray(p, dtype=float) for p in doc["inflow_pool"]],
            price_max=float(doc["price_max"]),
            mode=str(doc["mode"]),
            provenance=str(doc.get("provenance", "")),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed pools file ({e})") from None
    pools.validate()
    return pools
