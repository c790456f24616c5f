"""Cost schedules: the time-indexed parameters of DRRP/SRRP (Table I).

A :class:`CostSchedule` carries, for one VM class over a horizon of ``T``
slots, the paper's five cost parameters:

* ``compute[t]`` — instance rental cost Cp(i, t) ($/instance-slot);
* ``storage[t]`` — data storage cost Cs(t) ($/GB-slot);
* ``io[t]`` — data I/O cost Cio(t) ($/GB-slot);
* ``transfer_in[t]`` / ``transfer_out[t]`` — network cost C±f(t) ($/GB).

Builders cover the three ways the paper instantiates them: fixed on-demand
prices (§III), realized spot prices (the oracle), and bid-dependent prices
(what a planner believes it will pay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.market.catalog import CostRates, VMClass

__all__ = ["CostSchedule", "on_demand_rates", "on_demand_schedule", "spot_schedule"]


@dataclass(frozen=True)
class CostSchedule:
    """Per-slot cost parameters for one VM class (arrays of length T)."""

    compute: np.ndarray
    storage: np.ndarray
    io: np.ndarray
    transfer_in: np.ndarray
    transfer_out: np.ndarray

    def __post_init__(self) -> None:
        arrays = {
            "compute": np.asarray(self.compute, dtype=float),
            "storage": np.asarray(self.storage, dtype=float),
            "io": np.asarray(self.io, dtype=float),
            "transfer_in": np.asarray(self.transfer_in, dtype=float),
            "transfer_out": np.asarray(self.transfer_out, dtype=float),
        }
        T = arrays["compute"].shape[0]
        for name, arr in arrays.items():
            if arr.shape != (T,):
                raise ValueError(f"{name} must be a 1-D array of length {T}")
            if np.any(arr < 0):
                raise ValueError(f"{name} contains negative costs")
            object.__setattr__(self, name, arr)

    @property
    def horizon(self) -> int:
        return self.compute.shape[0]

    @property
    def holding(self) -> np.ndarray:
        """Per-GB-slot inventory cost Cs(t) + Cio(t) — the coefficient of β."""
        return self.storage + self.io

    def with_compute(self, compute: np.ndarray) -> "CostSchedule":
        """Copy with the compute-price series replaced (bid/realized prices)."""
        compute = np.asarray(compute, dtype=float)
        if compute.shape != (self.horizon,):
            raise ValueError("replacement compute series has the wrong length")
        return replace(self, compute=compute)

    def slice(self, start: int, stop: int) -> "CostSchedule":
        """Sub-horizon view [start, stop)."""
        if not 0 <= start < stop <= self.horizon:
            raise ValueError("bad slice bounds")
        return CostSchedule(
            compute=self.compute[start:stop],
            storage=self.storage[start:stop],
            io=self.io[start:stop],
            transfer_in=self.transfer_in[start:stop],
            transfer_out=self.transfer_out[start:stop],
        )


def on_demand_rates(vm: VMClass, rates: CostRates | None = None) -> dict[str, float]:
    """The per-slot price of each :class:`CostSchedule` series at fixed
    on-demand prices, by field name."""
    rates = rates or CostRates()
    return {
        "compute": float(vm.on_demand_price),
        "storage": float(rates.storage_per_gb_hour),
        "io": float(rates.io_per_gb),
        "transfer_in": float(rates.transfer_in_per_gb),
        "transfer_out": float(rates.transfer_out_per_gb),
    }


@lru_cache(maxsize=256)
def _constant_series(value: float, sign: float, horizon: int) -> np.ndarray:
    # ``sign`` only keys the cache: 0.0 == -0.0, but their series differ.
    series = np.full(horizon, value)
    series.flags.writeable = False
    return series


def on_demand_schedule(vm: VMClass, horizon: int, rates: CostRates | None = None) -> CostSchedule:
    """Deterministic schedule at fixed on-demand prices (paper §III / §V-A).

    Its five series are shared, read-only constant arrays, one per (price,
    horizon): every fleet tenant and rolling window of a class holds the
    same five arrays instead of its own copies.  Writing to one raises;
    :meth:`CostSchedule.with_compute` swaps a series out.
    """
    T = int(horizon)
    if T < 1:
        raise ValueError("horizon must be >= 1")
    return CostSchedule(
        **{
            name: _constant_series(value, math.copysign(1.0, value), T)
            for name, value in on_demand_rates(vm, rates).items()
        }
    )


def spot_schedule(
    vm: VMClass,
    spot_prices: np.ndarray,
    rates: CostRates | None = None,
) -> CostSchedule:
    """Schedule whose compute series is a given spot-price path.

    Feeding *realized* prices builds the oracle's input; feeding *bid* or
    *forecast* prices builds what deterministic planning believes.
    """
    spot_prices = np.asarray(spot_prices, dtype=float)
    base = on_demand_schedule(vm, spot_prices.shape[0], rates)
    return base.with_compute(spot_prices)
