import json
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrosac import scenario as sc
from hydrosac.env import EnvConfig
from hydrosac.scenario import (
    ArtificialConfig,
    DataError,
    build_pools,
    generate_artificial_pools,
    load_csv_series,
    load_pools,
    sample_scenario,
    save_pools,
)


def write_csv(path, rows, header="year,week,value"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def full_series(path, value=1.0, weeks=range(1, 53)):
    """Write a one-year `year,week,value` series of `value` at `path`; return the path."""
    return write_csv(path, [f"2010,{w},{value!r}" for w in weeks])


class TestLoadCsv:
    def test_parses_rows(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2010,2,40.0", "2009,1,42.5", "2010,1,41"])
        assert load_csv_series(p) == [(2, 40.0), (1, 42.5), (1, 41.0)]

    @pytest.mark.parametrize("blank", ["", "   ", " , ,\t"])
    def test_blank_rows_skipped(self, blank, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2010,1,42.5", blank, "2010,2,40.0", blank])
        assert load_csv_series(p) == [(1, 42.5), (2, 40.0)]

    def test_header_only_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [])
        with pytest.raises(DataError, match="no rows"):
            load_csv_series(p)

    def test_week_out_of_range_with_line_number(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2010,1,5.0", "2010,53,5.0"])
        with pytest.raises(DataError, match="week out of range at line 3"):
            load_csv_series(p)

    def test_malformed_row_with_line_number(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2010,1,5.0", "2010,two,5.0"])
        with pytest.raises(DataError, match="line 3"):
            load_csv_series(p)

    def test_year_must_be_an_integer(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2010,1,5.0", "2010.5,2,5.0"])
        with pytest.raises(DataError, match="malformed row at line 3"):
            load_csv_series(p)

    def test_negative_value_rejected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2010,1,-5.0"])
        with pytest.raises(DataError, match="line 2"):
            load_csv_series(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv_series(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", ["2010,1,5.0"], header="a,b,c")
        with pytest.raises(DataError, match="header"):
            load_csv_series(p)


def bits(x):
    return struct.pack("<d", x)


class TestCsvRoundTrip:
    """write_csv writes each number as its repr, and read_csv reads it back exactly.

    Every float64 that is not NaN comes back with its bit pattern, -0.0,
    subnormals and infinities included. A NaN comes back as a NaN, but
    repr drops its sign, so a negative NaN comes back positive. An int
    stays an int.
    """

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("csv") / "rows.csv"

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(), st.floats(), st.floats()), min_size=1))
    @example(rows=[(-0.0, 0.0, 5e-324), (-5e-324, 2.2250738585072014e-308, math.inf),
                   (-math.inf, 1e16, 1e-05), (math.nan, -math.nan, 1.7976931348623157e308)])
    def test_floats_keep_their_bits(self, path, rows):
        sc.write_csv(path, "a,b,c", rows)
        back = [row for _, row in sc.read_csv(path, "a,b,c", (float, float, float))]
        assert len(back) == len(rows)
        for row, got in zip(rows, back):
            for x, y in zip(row, got):
                assert math.isnan(y) if math.isnan(x) else bits(y) == bits(x), (x, y)

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(), st.integers(-1, 1), st.floats(0, 1)),
                         min_size=1))
    def test_ints_stay_ints(self, path, rows):
        sc.write_csv(path, "i,j,x", rows)
        back = [row for _, row in sc.read_csv(path, "i,j,x", (int, int, float))]
        assert back == rows
        assert all(type(i) is int and type(j) is int for i, j, _ in back)


class TestBuildPools:
    def test_max_price_normalizes_to_one(self, tmp_path):
        price = write_csv(tmp_path / "p.csv", ["2010,1,100.0"] +
                          [f"2010,{w},50.0" for w in range(1, 53)])
        pools = build_pools([price], [full_series(tmp_path / "i.csv", 10.0)], r_max=1000.0)
        assert pools.price_pool[0].max() == 1.0
        assert pools.price_max == 100.0

    def test_inflow_scaled_by_r_max(self, tmp_path):
        # hand oracle: 50 / 1000 = 0.05
        pools = build_pools(
            [full_series(tmp_path / "p.csv", 10.0)], [full_series(tmp_path / "i.csv", 50.0)],
            r_max=1000.0,
        )
        assert pools.inflow_pool[7][0] == pytest.approx(0.05, rel=1e-12)

    def test_inflow_above_capacity_clamped(self, tmp_path):
        pools = build_pools(
            [full_series(tmp_path / "p.csv", 10.0)],
            [full_series(tmp_path / "i.csv", 1200.0)],
            r_max=1000.0,
        )
        assert all(p[0] == 1.0 for p in pools.inflow_pool)
        assert pools.provenance == ("historic pools from 2 series; "
                                    "clamped 52 inflow values above capacity")

    def test_repeated_path_merged_twice_counted_once(self, tmp_path):
        price = full_series(tmp_path / "p.csv", 10.0)
        inflow = full_series(tmp_path / "i.csv", 5.0)
        pools = build_pools([price, price], [inflow, price], r_max=100.0)
        assert all(len(p) == 2 for p in pools.price_pool)
        assert all(np.array_equal(p, [0.05, 0.1]) for p in pools.inflow_pool)
        assert pools.provenance == "historic pools from 2 series"

    def test_missing_week_rejected(self, tmp_path):
        partial = full_series(tmp_path / "p.csv", weeks=range(1, 52))
        with pytest.raises(DataError, match="weeks \\[52\\]"):
            build_pools([partial], [full_series(tmp_path / "i.csv")], r_max=1000.0)

    def test_all_zero_prices_rejected(self, tmp_path):
        with pytest.raises(DataError, match="zero"):
            build_pools(
                [full_series(tmp_path / "p.csv", 0.0)], [full_series(tmp_path / "i.csv")],
                r_max=1000.0,
            )

    @pytest.mark.parametrize("r_max", [0.0, float("nan"), float("inf")])
    def test_r_max_must_be_finite_and_positive(self, r_max, tmp_path):
        with pytest.raises(DataError, match="r_max must be finite and > 0"):
            build_pools([full_series(tmp_path / "p.csv")], [full_series(tmp_path / "i.csv")],
                        r_max=r_max)

    def test_order_invariant(self, tmp_path):
        rng = np.random.default_rng(5)
        a, b = (write_csv(tmp_path / f"{name}.csv",
                          [f"{year},{w},{rng.uniform(1, 9)!r}" for w in range(1, 53)])
                for name, year in (("a", 2010), ("b", 2011)))
        inflow = full_series(tmp_path / "i.csv", 5.0)
        p1 = build_pools([a, b], [inflow], r_max=100.0)
        p2 = build_pools([b, a], [inflow], r_max=100.0)
        for w in range(52):
            assert np.array_equal(p1.price_pool[w], p2.price_pool[w])


class TestArtificialPools:
    def test_noise_free_profile(self):
        # derived by evaluating the documented deterministic profile
        cfg = ArtificialConfig(samples_per_week=1, price_noise=0.0, inflow_noise=0.0)
        pools = generate_artificial_pools(cfg, seed=0)
        assert pools.price_pool[9][0] == 1.0  # week 10, high season
        assert pools.price_pool[24][0] == pytest.approx(cfg.price_low, rel=1e-12)

    def test_noise_free_annual_inflow_totals(self):
        # oracle: weekly means must sum to annual_inflow / r_max
        cfg = ArtificialConfig(
            samples_per_week=1, price_noise=0.0, inflow_noise=0.0,
            annual_inflow=4000.0, r_max=1000.0,
        )
        pools = generate_artificial_pools(cfg, seed=3)
        total = sum(float(p[0]) for p in pools.inflow_pool)
        assert total == pytest.approx(4.0, rel=1e-12)

    def test_same_seed_identical(self):
        cfg = ArtificialConfig()
        p1 = generate_artificial_pools(cfg, seed=42)
        p2 = generate_artificial_pools(cfg, seed=42)
        for w in range(52):
            assert np.array_equal(p1.price_pool[w], p2.price_pool[w])
            assert np.array_equal(p1.inflow_pool[w], p2.inflow_pool[w])

    def test_values_in_unit_interval(self):
        pools = generate_artificial_pools(ArtificialConfig(price_noise=0.9, inflow_noise=0.9), seed=1)
        pools.validate()


class TestSampleScenario:
    def test_singleton_pools_reproduce_profile(self):
        cfg = ArtificialConfig(samples_per_week=1, price_noise=0.0, inflow_noise=0.0)
        pools = generate_artificial_pools(cfg, seed=0)
        scn = sample_scenario(pools, np.random.default_rng(0))
        assert np.array_equal(scn.prices, np.array([p[0] for p in pools.price_pool]))
        assert np.array_equal(scn.inflows, np.array([p[0] for p in pools.inflow_pool]))

    def test_two_point_pool_mean(self):
        # law of large numbers oracle: mean of {0.2, 0.8} draws -> 0.5
        pools = generate_artificial_pools(
            ArtificialConfig(samples_per_week=2, price_noise=0.0, inflow_noise=0.0), seed=0
        )
        pools.price_pool[0] = np.array([0.2, 0.8])
        rng = np.random.default_rng(7)
        draws = np.array([sample_scenario(pools, rng).prices[0] for _ in range(10_000)])
        assert abs(draws.mean() - 0.5) < 0.01

    def test_same_seed_identical(self):
        pools = generate_artificial_pools(ArtificialConfig(), seed=2)
        s1 = sample_scenario(pools, np.random.default_rng(9))
        s2 = sample_scenario(pools, np.random.default_rng(9))
        assert np.array_equal(s1.prices, s2.prices)
        assert np.array_equal(s1.inflows, s2.inflows)

    def test_bootstrap_membership(self):
        pools = generate_artificial_pools(ArtificialConfig(samples_per_week=5), seed=4)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            scn = sample_scenario(pools, rng)
            w = int(rng.integers(0, 52))
            assert scn.prices[w] in pools.price_pool[w]
            assert scn.inflows[w] in pools.inflow_pool[w]


def per_draw_reference(pools, rng):
    """The draw-order contract as a loop: one scalar integers() call per draw,
    week by week, the price before the inflow."""
    prices, inflows = [], []
    for ppool, ipool in zip(pools.price_pool, pools.inflow_pool):
        prices.append(ppool[rng.integers(0, len(ppool))])
        inflows.append(ipool[rng.integers(0, len(ipool))])
    return prices, inflows


def pools_of_sizes(price_sizes, inflow_sizes):
    # range() stands in for a pool: it has a length and an item per index, so
    # a pool past 2**32 entries costs no memory
    return SimpleNamespace(price_pool=[range(n) for n in price_sizes],
                           inflow_pool=[range(n) for n in inflow_sizes])


MIXED_SIZES = [1, 2, 7, 100, 10_000]


class TestDrawOrder:
    @pytest.mark.parametrize("price_sizes, inflow_sizes", [
        ([1] * 52, [1] * 52),
        ([2] * 52, [2] * 52),
        ([7] * 52, [7] * 52),
        ([100] * 52, [100] * 52),
        ([10_000] * 52, [10_000] * 52),
        ((MIXED_SIZES * 11)[:52], (MIXED_SIZES[::-1] * 11)[3:55]),
        ([3, 2**32 + 7, 2**40] * 17 + [5], [2**32 - 1, 2**32, 2**32 + 1, 1] * 13),
    ], ids=["1", "2", "7", "100", "10000", "mixed", "past-2**32"])
    @pytest.mark.parametrize("half_word_buffered", [False, True])
    def test_one_call_matches_per_draw_stream(self, price_sizes, inflow_sizes,
                                              half_word_buffered):
        pools = pools_of_sizes(price_sizes, inflow_sizes)
        versions = f"stream checked on numpy 2.4.6; this is numpy {np.__version__}"
        for seed in range(20):
            mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            if half_word_buffered:
                # a bounded draw below 2**32 uses 32 of the generator's 64 bits
                # and keeps the other half for the next 32-bit draw
                mine.integers(0, 10)
                ref.integers(0, 10)
                assert mine.bit_generator.state["has_uint32"] == 1
            scn = sample_scenario(pools, mine)
            prices, inflows = per_draw_reference(pools, ref)
            assert scn.prices.tolist() == prices, versions
            assert scn.inflows.tolist() == inflows, versions
            assert mine.bit_generator.state == ref.bit_generator.state, versions
            assert mine.random() == ref.random(), versions

    def test_one_call_of_52_uniforms_matches_52_scalar_draws(self):
        # An exploration year in train draws its scenario, its start storage,
        # then one uniform action a week. One rng.random(52) after the same
        # two draws gives the 52 actions' bits and leaves the same state.
        pools = generate_artificial_pools(ArtificialConfig(), 11)
        cfg = EnvConfig()
        versions = f"stream checked on numpy 2.4.6; this is numpy {np.__version__}"
        for seed in range(200):
            mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for rng in (mine, ref):
                sample_scenario(pools, rng)
                rng.uniform(cfg.init_low, cfg.init_high)
            block = mine.random(52)
            scalars = np.array([ref.random() for _ in range(52)])
            assert np.array_equal(block.view(np.int64), scalars.view(np.int64)), versions
            assert mine.bit_generator.state == ref.bit_generator.state, versions


class TestPoolsFile:
    def test_round_trip(self, tmp_path):
        pools = generate_artificial_pools(ArtificialConfig(samples_per_week=3), seed=8)
        path = tmp_path / "pools.json"
        save_pools(pools, path)
        loaded = load_pools(path)
        assert loaded.mode == pools.mode
        assert loaded.price_max == pools.price_max
        assert loaded.provenance == pools.provenance
        for w in range(52):
            assert np.array_equal(loaded.price_pool[w], pools.price_pool[w])
            assert np.array_equal(loaded.inflow_pool[w], pools.inflow_pool[w])

    def test_schema_keys(self, tmp_path):
        pools = generate_artificial_pools(ArtificialConfig(samples_per_week=1), seed=8)
        path = tmp_path / "pools.json"
        save_pools(pools, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"mode", "price_max", "provenance", "price_pool", "inflow_pool"}
        assert len(doc["price_pool"]) == 52
        assert len(doc["inflow_pool"]) == 52

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "pools.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_pools(path)

    def test_truncated_pools_rejected(self, tmp_path):
        path = tmp_path / "pools.json"
        path.write_text(json.dumps({"mode": "artificial", "price_max": 1.0}))
        with pytest.raises(DataError):
            load_pools(path)
