"""Synthetic spot-price trace generation.

The paper's empirical substrate is a 16-month crawl of Amazon EC2 spot
prices (cloudexchange.org, Feb 1 2010 – Jun 22 2011, us-east-1 linux).
That dataset is no longer published, so this module synthesizes traces with
the statistical properties the paper's analysis pipeline measures:

* **irregular update times** — updates arrive as a Poisson process whose
  daily rate itself wanders, reproducing Figure 4's "inconsistent sampling
  interval" with 0–25 updates/day;
* **mean reversion around a deep discount** — an Ornstein–Uhlenbeck-style
  AR(1) around ≈30 % of on-demand price (Figure 5 shows c1.medium at
  $0.056–0.064 against $0.20 on-demand);
* **mild daily seasonality** — a small 24 h sinusoid, giving the seasonal
  component visible in Figure 6 and the lag-24 structure behind the
  SARIMA×(·)₂₄ models of §IV-A;
* **occasional spikes** — upward outliers whose rate grows with class power
  but stays < 3 % (Figure 3);
* **price quantization** — to $0.001, as in the real market.

The generator is vectorized apart from the AR(1) recursion: exponential
gaps → cumulative times, one :func:`_ar1_filter` loop for the AR(1), masked
spike overlay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.rng import ensure_rng
from .catalog import VMClass

__all__ = ["SpotPriceTrace", "generate_spot_trace", "TraceParams", "campaign_series"]

HOURS_PER_DAY = 24.0


@dataclass(frozen=True)
class TraceParams:
    """Knobs of the synthetic update/price processes."""

    duration_days: float = 506.0       # Feb 1 2010 .. Jun 22 2011
    mean_updates_per_day: float = 8.0
    rate_wander: float = 0.35          # day-to-day log-wander of the update rate
    mean_reversion: float = 0.12       # AR(1) pull toward the target level
    seasonal_relative_amplitude: float = 0.02
    spike_magnitude: tuple[float, float] = (1.4, 3.5)
    quantum: float = 0.001


@dataclass
class SpotPriceTrace:
    """An irregularly sampled spot-price history for one VM class.

    ``times`` are hours since the trace epoch (strictly increasing);
    ``prices`` the spot price set at each update.  Between updates the price
    holds (the market semantics the paper's hourly resampling relies on).
    """

    vm_class: str
    times: np.ndarray
    prices: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.prices = np.asarray(self.prices, dtype=float)
        if self.times.shape != self.prices.shape:
            raise ValueError("times and prices must align")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("update times must be strictly increasing")

    @property
    def n_updates(self) -> int:
        return self.times.size

    @property
    def duration_hours(self) -> float:
        return float(self.times[-1]) if self.times.size else 0.0

    def price_at(self, hour: float) -> float:
        """Price in force at ``hour`` (last update at or before it)."""
        idx = int(np.searchsorted(self.times, hour, side="right")) - 1
        if idx < 0:
            return float(self.prices[0])
        return float(self.prices[idx])

    def window(self, start_hour: float, end_hour: float) -> "SpotPriceTrace":
        """Sub-trace of updates in ``[start_hour, end_hour)``, rebased to 0."""
        if end_hour <= start_hour:
            raise ValueError("end_hour must exceed start_hour")
        mask = (self.times >= start_hour) & (self.times < end_hour)
        return SpotPriceTrace(
            vm_class=self.vm_class,
            times=self.times[mask] - start_hour,
            prices=self.prices[mask],
        )


def _update_times(params: TraceParams, rng: np.random.Generator) -> np.ndarray:
    """Poisson update arrivals with a slowly wandering daily rate."""
    n_days = int(np.ceil(params.duration_days))
    # geometric random walk of the daily rate, clipped to a sane band
    steps = rng.normal(0.0, params.rate_wander, size=n_days)
    log_rate = np.log(params.mean_updates_per_day) + np.cumsum(steps) - np.cumsum(steps).mean()
    rates = np.clip(np.exp(log_rate), 0.3, 26.0)
    counts = rng.poisson(rates)
    total = int(counts.sum())
    if total == 0:
        counts[0] = 2
        total = 2
    day_index = np.repeat(np.arange(n_days), counts)
    offsets = rng.uniform(0.0, HOURS_PER_DAY, size=total)
    times = day_index * HOURS_PER_DAY + offsets
    times.sort()
    # enforce strict monotonicity after sorting (duplicates are measure-zero
    # but float ties can happen)
    eps = 1e-6
    for _ in range(3):
        dup = np.nonzero(np.diff(times) <= 0)[0]
        if dup.size == 0:
            break
        times[dup + 1] = times[dup] + eps
    keep = times < params.duration_days * HOURS_PER_DAY
    return times[keep]


def _ar1_filter(drive: np.ndarray, decay: float, start: float) -> np.ndarray:
    """``x_k = decay·x_{k-1} + drive_k`` from ``x_{-1} = start``.

    The same IEEE operations, in the same order, as
    ``scipy.signal.lfilter([1], [1, -decay], drive, zi=[decay·start])``,
    so the two agree bit for bit, without importing SciPy.  A plain loop
    over Python floats beats ``lfilter`` on the few dozen updates of a
    fleet tenant's trace; on a full 506-day trace (~4000 updates) it takes
    about 0.5 ms against 0.04 ms (2-CPU host).
    """
    out = []
    prev = float(start)
    for d in drive.tolist():
        prev = decay * prev + d
        out.append(prev)
    return np.array(out, dtype=float)


def generate_spot_trace(
    vm: VMClass,
    seed_or_rng: int | np.random.Generator | None = 0,
    params: TraceParams | None = None,
) -> SpotPriceTrace:
    """Generate one synthetic spot trace calibrated to ``vm``.

    Deterministic for a fixed seed; statistically independent traces come
    from :func:`repro.stats.spawn_rngs`.
    """
    rng = ensure_rng(seed_or_rng)
    params = params or TraceParams()
    times = _update_times(params, rng)
    n = times.size

    base = vm.mean_spot_price
    seasonal = base * params.seasonal_relative_amplitude * np.sin(2 * np.pi * times / HOURS_PER_DAY)
    target = base + seasonal

    # AR(1) toward the seasonal target: x_k = (1-k) x_{k-1} + k mu_k + sigma eps
    kappa = params.mean_reversion
    sigma = vm.spot_volatility * base
    drive = kappa * target + sigma * rng.normal(size=n)
    x = _ar1_filter(drive, 1.0 - kappa, base)

    # spikes: multiplicative upward outliers, one update long
    spikes = rng.random(n) < vm.outlier_rate
    magnitudes = rng.uniform(*params.spike_magnitude, size=n)
    prices = np.where(spikes, x * magnitudes, x)

    # the market never prices spot above on-demand for long; cap spikes there
    prices = np.minimum(prices, vm.on_demand_price * 1.05)
    # floor: spot markets bottom out above zero
    prices = np.maximum(prices, 0.2 * base)
    prices = np.round(prices / params.quantum) * params.quantum

    return SpotPriceTrace(vm_class=vm.name, times=times, prices=prices)


def campaign_series(
    vm: VMClass,
    estimation_slots: int,
    evaluation_slots: int,
    seed_or_rng: int | np.random.Generator | None = 0,
    params: TraceParams | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hourly ``(history, realized)`` price split for a closed-loop campaign.

    One synthetic trace covers both windows, so the estimation history a
    forecaster conditions on and the realized path the simulator replays
    share one market process — the setup of the paper's §V evaluation
    (two months of history, then the evaluation window).  Deterministic
    for a fixed seed.  ``params`` defaults to a trace just long enough
    for both windows; an explicit one must cover them.
    """
    if estimation_slots < 1 or evaluation_slots < 1:
        raise ValueError("both windows must be at least one slot long")
    total_hours = estimation_slots + evaluation_slots
    if params is None:
        params = TraceParams(duration_days=total_hours / HOURS_PER_DAY + 2.0)
    elif params.duration_days * HOURS_PER_DAY < total_hours:
        raise ValueError(
            f"trace of {params.duration_days} days cannot cover "
            f"{total_hours} campaign hours"
        )
    from .resample import hourly_series  # local: resample imports this module

    trace = generate_spot_trace(vm, seed_or_rng, params)
    series = hourly_series(trace, 0.0, float(total_hours))
    return series[:estimation_slots], series[estimation_slots:]
