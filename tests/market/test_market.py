"""Market substrate tests: catalog, trace generation, resampling, auction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.market import (
    ANALYSIS_CLASSES,
    PLANNING_CLASSES,
    CostRates,
    FixedBids,
    ForecastBids,
    MeanBids,
    PerturbedActualBids,
    SpotPriceTrace,
    TraceParams,
    daily_update_counts,
    ec2_catalog,
    effective_hourly_price,
    generate_spot_trace,
    hourly_series,
    is_out_of_bid,
    update_interval_stats,
)
from repro.market.traces import _ar1_filter


class TestCatalog:
    def test_planning_prices_match_paper(self):
        cat = ec2_catalog()
        assert cat["c1.medium"].on_demand_price == 0.20
        assert cat["m1.large"].on_demand_price == 0.40
        assert cat["m1.xlarge"].on_demand_price == 0.80

    def test_outlier_rates_increase_with_power(self):
        cat = ec2_catalog()
        ordered = sorted(cat.values(), key=lambda v: v.power_rank)
        rates = [v.outlier_rate for v in ordered]
        assert rates == sorted(rates)
        assert all(r < 0.03 for r in rates)

    def test_mean_spot_is_deep_discount(self):
        vm = ec2_catalog()["c1.medium"]
        assert vm.mean_spot_price == pytest.approx(0.06)

    def test_class_sets(self):
        cat = ec2_catalog()
        assert set(PLANNING_CLASSES) <= set(cat)
        assert set(ANALYSIS_CLASSES) == set(cat)

    def test_cost_rates_paper_values(self):
        r = CostRates()
        assert r.io_per_gb == 0.20
        assert r.transfer_in_per_gb == 0.10
        assert r.transfer_out_per_gb == 0.17
        assert r.input_output_ratio == 0.5
        assert r.storage_per_gb_hour == pytest.approx(0.10 / 730.0)


class TestTraceGeneration:
    def test_deterministic_per_seed(self):
        vm = ec2_catalog()["c1.medium"]
        a = generate_spot_trace(vm, 42)
        b = generate_spot_trace(vm, 42)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.prices, b.prices)

    def test_different_seeds_differ(self):
        vm = ec2_catalog()["c1.medium"]
        a = generate_spot_trace(vm, 1)
        b = generate_spot_trace(vm, 2)
        assert not np.array_equal(a.prices[:100], b.prices[:100])

    def test_strictly_increasing_times(self):
        vm = ec2_catalog()["m1.large"]
        tr = generate_spot_trace(vm, 0)
        assert np.all(np.diff(tr.times) > 0)

    def test_mean_price_near_calibrated_level(self):
        vm = ec2_catalog()["c1.medium"]
        tr = generate_spot_trace(vm, 3)
        assert tr.prices.mean() == pytest.approx(vm.mean_spot_price, rel=0.15)

    def test_prices_quantized(self):
        vm = ec2_catalog()["c1.medium"]
        tr = generate_spot_trace(vm, 4)
        assert np.allclose(tr.prices, np.round(tr.prices, 3))

    def test_prices_bounded(self):
        vm = ec2_catalog()["m1.xlarge"]
        tr = generate_spot_trace(vm, 5)
        assert tr.prices.max() <= vm.on_demand_price * 1.05 + 1e-9
        assert tr.prices.min() > 0

    def test_short_trace_params(self):
        vm = ec2_catalog()["c1.medium"]
        tr = generate_spot_trace(vm, 6, TraceParams(duration_days=10.0))
        assert tr.duration_hours < 240.0

    def test_ar1_loop_matches_lfilter_bit_for_bit(self):
        # The trace generator's AR(1) loop replaced scipy.signal.lfilter;
        # every trace must stay byte-identical to the one lfilter gave.
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(2012)
        for _ in range(1000):
            n = int(rng.integers(1, 300))
            kappa = float(rng.uniform(0.01, 0.99))
            base = float(rng.uniform(0.005, 2.0))
            drive = kappa * base + float(rng.uniform(0.01, 0.5)) * base * rng.normal(size=n)
            expected = signal.lfilter(
                [1.0], [1.0, -(1.0 - kappa)], drive, zi=np.array([(1.0 - kappa) * base])
            )[0]
            assert _ar1_filter(drive, 1.0 - kappa, base).tobytes() == expected.tobytes()

    def test_price_at_lookup(self):
        tr = SpotPriceTrace("x", np.array([1.0, 5.0, 9.0]), np.array([0.1, 0.2, 0.3]))
        assert tr.price_at(0.0) == 0.1  # before first update: first price
        assert tr.price_at(1.0) == 0.1
        assert tr.price_at(6.0) == 0.2
        assert tr.price_at(100.0) == 0.3

    def test_window_rebases(self):
        tr = SpotPriceTrace("x", np.array([1.0, 5.0, 9.0]), np.array([0.1, 0.2, 0.3]))
        w = tr.window(4.0, 10.0)
        assert np.allclose(w.times, [1.0, 5.0])
        assert np.allclose(w.prices, [0.2, 0.3])

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            SpotPriceTrace("x", np.array([2.0, 1.0]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            SpotPriceTrace("x", np.array([1.0]), np.array([0.1, 0.2]))


class TestResampling:
    def test_hourly_locf_rule(self):
        # updates at 0.5h (price .1) and 2.7h (price .2)
        tr = SpotPriceTrace("x", np.array([0.5, 2.7]), np.array([0.1, 0.2]))
        s = hourly_series(tr, 0.0, 5.0)
        assert np.allclose(s, [0.1, 0.1, 0.1, 0.2, 0.2])

    def test_no_update_carries_price(self):
        tr = SpotPriceTrace("x", np.array([0.1]), np.array([0.5]))
        s = hourly_series(tr, 0.0, 48.0)
        assert np.all(s == 0.5)
        assert s.size == 48

    def test_bad_window(self):
        tr = SpotPriceTrace("x", np.array([0.1]), np.array([0.5]))
        with pytest.raises(ValueError):
            hourly_series(tr, 5.0, 5.0)

    def test_daily_update_counts(self):
        times = np.array([1.0, 2.0, 25.0, 49.0, 49.5, 49.9])
        tr = SpotPriceTrace("x", times, np.full(6, 0.1))
        counts = daily_update_counts(tr)
        assert counts[0] == 2 and counts[1] == 1 and counts[2] == 3

    def test_update_counts_vary(self):
        vm = ec2_catalog()["c1.medium"]
        tr = generate_spot_trace(vm, 7)
        counts = daily_update_counts(tr)
        assert counts.std() > 1.0  # Figure 4: visible variation

    def test_interval_stats(self):
        vm = ec2_catalog()["c1.medium"]
        tr = generate_spot_trace(vm, 8)
        s = update_interval_stats(tr)
        assert s["min_hours"] > 0
        assert s["coefficient_of_variation"] > 0.3  # irregular sampling


class TestAuction:
    def test_out_of_bid_rule(self):
        assert is_out_of_bid(bid=0.05, spot_price=0.06)
        assert not is_out_of_bid(bid=0.06, spot_price=0.06)

    def test_effective_price_winner_pays_spot(self):
        assert effective_hourly_price(0.10, 0.06, 0.20) == 0.06

    def test_effective_price_loser_pays_on_demand(self):
        assert effective_hourly_price(0.05, 0.06, 0.20) == 0.20

    @given(st.floats(0.01, 0.3), st.floats(0.01, 0.3))
    @settings(max_examples=50, deadline=None)
    def test_effective_price_never_exceeds_max(self, bid, spot):
        lam = 0.2
        price = effective_hourly_price(bid, spot, lam)
        assert price <= max(spot, lam) + 1e-12

    def test_fixed_bids(self):
        assert np.all(FixedBids(value=0.07).bids(np.zeros(5), 4) == 0.07)

    def test_mean_bids(self):
        b = MeanBids().bids(np.array([0.1, 0.2, 0.3]), 3)
        assert np.allclose(b, 0.2)

    def test_forecast_bids_requires_forecaster(self):
        with pytest.raises(ValueError):
            ForecastBids().bids(np.zeros(5), 2)

    def test_forecast_bids_shape_checked(self):
        strategy = ForecastBids(forecaster=lambda h, n: np.zeros(n + 1))
        with pytest.raises(ValueError):
            strategy.bids(np.zeros(5), 2)

    def test_forecast_bids_delegates(self):
        strategy = ForecastBids(forecaster=lambda h, n: np.full(n, h[-1]))
        assert np.all(strategy.bids(np.array([0.1, 0.4]), 3) == 0.4)

    def test_perturbed_actual_bids(self):
        actual = np.array([0.10, 0.20])
        b = PerturbedActualBids(actual=actual, deviation=0.10).bids(np.zeros(1), 2)
        assert np.allclose(b, [0.11, 0.22])
        with pytest.raises(ValueError):
            PerturbedActualBids(actual=actual, deviation=0.1).bids(np.zeros(1), 5)
