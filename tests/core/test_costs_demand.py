"""Cost schedules and demand models."""

import numpy as np
import pytest

from repro.core import (
    BurstyDemand,
    ConstantDemand,
    CostSchedule,
    DiurnalDemand,
    NormalDemand,
    on_demand_rates,
    on_demand_schedule,
    spot_schedule,
)
from repro.market import CostRates, ec2_catalog


class TestCostSchedule:
    def test_on_demand_builder(self):
        vm = ec2_catalog()["m1.large"]
        c = on_demand_schedule(vm, 24)
        assert c.horizon == 24
        assert np.all(c.compute == 0.40)
        assert np.all(c.io == 0.20)
        assert c.holding[0] == pytest.approx(0.20 + 0.10 / 730.0)

    def test_spot_builder_overrides_compute(self):
        vm = ec2_catalog()["c1.medium"]
        prices = np.linspace(0.05, 0.07, 6)
        c = spot_schedule(vm, prices)
        assert np.allclose(c.compute, prices)
        assert np.all(c.transfer_out == 0.17)

    def test_length_mismatch_rejected(self):
        vm = ec2_catalog()["c1.medium"]
        c = on_demand_schedule(vm, 5)
        with pytest.raises(ValueError):
            c.with_compute(np.zeros(4))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostSchedule(
                compute=np.array([-1.0]),
                storage=np.zeros(1),
                io=np.zeros(1),
                transfer_in=np.zeros(1),
                transfer_out=np.zeros(1),
            )

    def test_slice(self):
        vm = ec2_catalog()["c1.medium"]
        c = on_demand_schedule(vm, 10)
        s = c.slice(2, 6)
        assert s.horizon == 4
        with pytest.raises(ValueError):
            c.slice(6, 2)

    def test_bad_horizon(self):
        vm = ec2_catalog()["c1.medium"]
        with pytest.raises(ValueError):
            on_demand_schedule(vm, 0)


    def test_on_demand_series_are_shared_and_read_only(self):
        vm = ec2_catalog()["m1.large"]
        a, b = on_demand_schedule(vm, 24), on_demand_schedule(vm, 24)
        for field in ("compute", "storage", "io", "transfer_in", "transfer_out"):
            series = getattr(a, field)
            assert series is getattr(b, field)
            assert not series.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                series[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                series += 1.0
        assert on_demand_schedule(vm, 12).compute.shape == (12,)
        assert on_demand_schedule(ec2_catalog()["c1.medium"], 24).compute is not a.compute

    def test_on_demand_rates_fill_the_schedule(self):
        vm = ec2_catalog()["c1.xlarge"]
        rates = CostRates(storage_per_gb_month=0.2, transfer_out_per_gb=0.0)
        schedule = on_demand_schedule(vm, 7, rates)
        for field, rate in on_demand_rates(vm, rates).items():
            assert type(rate) is float
            assert getattr(schedule, field).tolist() == [rate] * 7

    def test_replacing_a_shared_series_leaves_it_alone(self):
        vm = ec2_catalog()["c1.medium"]
        base = on_demand_schedule(vm, 6)
        spot = spot_schedule(vm, np.linspace(0.05, 0.07, 6))
        assert spot.storage is base.storage
        assert np.all(base.compute == vm.on_demand_price)


class TestDemandModels:
    def test_normal_demand_positive_and_reproducible(self):
        d1 = NormalDemand().sample(100, 42)
        d2 = NormalDemand().sample(100, 42)
        assert np.array_equal(d1, d2)
        assert np.all(d1 > 0)

    def test_normal_demand_paper_mean(self):
        d = NormalDemand().sample(100_000, 0)
        assert 0.40 < d.mean() < 0.45  # truncation lifts the mean slightly

    def test_constant_demand(self):
        assert np.all(ConstantDemand(0.7).sample(5) == 0.7)
        with pytest.raises(ValueError):
            ConstantDemand(-1.0).sample(5)

    def test_diurnal_demand_cycles(self):
        d = DiurnalDemand(noise_std=0.0).sample(48, 0)
        assert np.allclose(d[:24], d[24:48])
        assert np.all(d >= 0)

    def test_bursty_demand_levels(self):
        d = BurstyDemand().sample(2000, 1)
        assert d.max() > 1.0 and d.min() < 0.2
