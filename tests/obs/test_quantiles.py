"""P² streaming quantile sketch and the Quantile metric family."""

import math
import zlib

import numpy as np
import pytest

from repro import obs
from repro.obs.quantiles import DEFAULT_QUANTILES, P2Quantile, Quantile, exact_quantile


def p2_estimate(values, q):
    sketch = P2Quantile(q)
    for v in values:
        sketch.observe(v)
    return sketch.estimate


class TestExactQuantile:
    def test_matches_numpy_linear_method(self):
        rng = np.random.default_rng(0)
        values = sorted(rng.normal(size=37).tolist())
        for q in (0.1, 0.5, 0.9, 0.99):
            assert exact_quantile(values, q) == pytest.approx(
                float(np.quantile(values, q)))

    def test_single_value_and_empty(self):
        assert exact_quantile([3.5], 0.99) == 3.5
        with pytest.raises(ValueError, match="empty"):
            exact_quantile([], 0.5)


class TestP2Quantile:
    def test_first_five_observations_are_exact(self):
        sketch = P2Quantile(0.5)
        seen = []
        for v in (4.0, 1.0, 5.0, 2.0, 3.0):
            sketch.observe(v)
            seen.append(v)
            assert sketch.estimate == pytest.approx(
                exact_quantile(sorted(seen), 0.5))

    def test_empty_estimate_is_none(self):
        assert P2Quantile(0.9).estimate is None

    def test_invalid_quantile_rejected(self):
        for q in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError, match="quantile"):
                P2Quantile(q)

    def test_deterministic_in_input_order(self):
        rng = np.random.default_rng(1)
        values = rng.exponential(size=500).tolist()
        assert p2_estimate(values, 0.9) == p2_estimate(values, 0.9)

    def test_estimate_stays_within_observed_range(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=400).tolist()
        for q in DEFAULT_QUANTILES:
            est = p2_estimate(values, q)
            assert min(values) <= est <= max(values)

    # Property-style bound: the sketch must track the exact quantile to
    # within a fraction of the stream's value *range* even on streams
    # chosen to stress the marker updates. P² is an approximation — on
    # sorted/reversed inputs the interior markers lag — so the bound is
    # generous, but it catches any gross marker-update bug.
    @pytest.mark.parametrize("stream", [
        "sorted", "reversed", "constant", "heavy_tailed", "uniform",
        "bimodal",
    ])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_error_bounded_on_adversarial_streams(self, stream, q):
        # hash() of a str is salted per-process (PYTHONHASHSEED), which
        # made this test flaky: some salts produce a stream that busts
        # the bound (e.g. reversed/q=0.99 under PYTHONHASHSEED=15).
        # zlib.crc32 is stable across runs, so each param combination
        # always exercises the same stream.
        seed = zlib.crc32(f"{stream}:{q}".encode())
        rng = np.random.default_rng(seed)
        n = 2000
        if stream == "sorted":
            values = sorted(rng.normal(size=n).tolist())
        elif stream == "reversed":
            values = sorted(rng.normal(size=n).tolist(), reverse=True)
        elif stream == "constant":
            values = [7.25] * n
        elif stream == "heavy_tailed":
            values = rng.pareto(1.5, size=n).tolist()
        elif stream == "uniform":
            values = rng.uniform(0, 1, size=n).tolist()
        else:  # bimodal
            values = np.concatenate([rng.normal(-5, 0.5, n // 2),
                                     rng.normal(5, 0.5, n // 2)]).tolist()
            rng.shuffle(values)
        estimate = p2_estimate(values, q)
        exact = exact_quantile(sorted(values), q)
        spread = max(values) - min(values)
        if spread == 0:
            assert estimate == exact
        else:
            # Heavy tails dominate the range; judge those on the bulk of
            # the distribution instead of the extreme max.
            if stream == "heavy_tailed":
                spread = exact_quantile(sorted(values), 0.995) - min(values)
            assert abs(estimate - exact) <= 0.35 * spread, (
                f"{stream} q={q}: estimate {estimate} vs exact {exact}")

    def test_shuffled_stream_is_accurate(self):
        # On well-mixed input P² should be tight, not just bounded.
        rng = np.random.default_rng(3)
        values = rng.normal(size=5000).tolist()
        for q in DEFAULT_QUANTILES:
            estimate = p2_estimate(values, q)
            exact = exact_quantile(sorted(values), q)
            assert abs(estimate - exact) < 0.15


class TestQuantileMetric:
    def test_tracks_count_sum_min_max_mean(self):
        metric = Quantile("m")
        for v in (1.0, 3.0, 2.0):
            metric.observe(v)
        assert metric.count == 3
        assert metric.sum == pytest.approx(6.0)
        assert metric.min == 1.0 and metric.max == 3.0
        assert metric.mean == pytest.approx(2.0)

    def test_estimates_and_untracked_quantile(self):
        metric = Quantile("m", quantiles=(0.5, 0.9))
        for v in range(20):
            metric.observe(float(v))
        estimates = metric.estimates()
        assert set(estimates) == {0.5, 0.9}
        assert estimates[0.5] < estimates[0.9]
        with pytest.raises(KeyError, match="not tracked"):
            metric.estimate(0.99)

    def test_snapshot_shape(self):
        metric = Quantile("m")
        metric.observe(1.5)
        snap = metric.snapshot()
        assert snap["count"] == 1
        assert snap["quantiles"] == {"0.5": 1.5, "0.9": 1.5, "0.99": 1.5}
        assert Quantile("e").mean == 0.0
        empty = Quantile("e").snapshot()
        assert empty["min"] is None and empty["max"] is None
        assert all(est is None for est in empty["quantiles"].values())

    def test_invalid_quantile_sets_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Quantile("m", quantiles=())
        with pytest.raises(ValueError, match="ascending"):
            Quantile("m", quantiles=(0.9, 0.5))
        with pytest.raises(ValueError, match="ascending"):
            Quantile("m", quantiles=(0.5, 0.5))


class TestRegistryIntegration:
    def test_quantile_family_get_or_create(self, obs_enabled):
        registry = obs.get_registry()
        a = registry.quantile("lat", route="query")
        b = registry.quantile("lat", route="query")
        assert a is b
        registry.quantile("lat", route="ingest")
        assert len(registry.family("lat")) == 2

    def test_kind_conflict_rejected(self, obs_enabled):
        registry = obs.get_registry()
        registry.counter("dur").inc()
        with pytest.raises(ValueError, match="already registered"):
            registry.quantile("dur")

    def test_observe_quantile_helper(self, obs_enabled):
        obs.observe("x.latency", 0.1)
        obs.observe("x.latency", 0.3)
        child = obs.get_registry().quantile("x.latency")
        assert child.count == 2
        assert math.isclose(child.sum, 0.4)

    def test_observe_quantile_noop_when_disabled(self, obs_disabled):
        obs.observe("x.latency", 0.1)
        assert len(obs.get_registry()) == 0
