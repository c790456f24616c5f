"""Normality testing for spot-price windows (paper §IV-A2, Figure 5).

The paper rejects normality of the selected price series via the
Shapiro–Wilk test.  We provide:

* :func:`jarque_bera` — implemented from scratch (skewness/kurtosis based);
* :func:`shapiro_wilk` — delegated to :mod:`scipy.stats` (the reference
  implementation of the W statistic);
* :func:`normal_fit` — the mean/variance normal approximation the paper
  overlays in Figure 5.

:mod:`scipy.stats` is imported by the first test that needs it, so
importing :mod:`repro.stats` does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _require_scipy(caller: str):
    """:mod:`scipy.stats`, imported on first use, or a descriptive
    :class:`ImportError` (tests that need it are scipy-gated)."""
    try:
        from scipy import stats
    except ImportError as exc:
        raise ImportError(
            f"{caller} requires scipy (scipy.stats); install scipy or avoid the "
            "normality tests on this machine"
        ) from exc
    return stats

__all__ = ["NormalityResult", "jarque_bera", "shapiro_wilk", "normal_fit", "normal_pdf"]


@dataclass(frozen=True)
class NormalityResult:
    """Outcome of a normality test."""

    statistic: float
    p_value: float
    test: str

    def rejects_normality(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def jarque_bera(sample: np.ndarray) -> NormalityResult:
    """Jarque–Bera test: ``JB = n/6 (S^2 + K^2/4)`` ~ chi2(2) under H0.

    ``S`` is sample skewness and ``K`` excess kurtosis, both computed with
    biased (moment) estimators as in the original test.
    """
    x = np.asarray(sample, dtype=float).ravel()
    n = x.size
    if n < 8:
        raise ValueError("Jarque-Bera needs at least 8 observations")
    mu = x.mean()
    centered = x - mu
    m2 = np.mean(centered**2)
    if m2 == 0:
        # constant series: maximally non-normal in the degenerate sense
        return NormalityResult(statistic=np.inf, p_value=0.0, test="jarque-bera")
    m3 = np.mean(centered**3)
    m4 = np.mean(centered**4)
    skew = m3 / m2**1.5
    kurt = m4 / m2**2 - 3.0
    jb = n / 6.0 * (skew**2 + kurt**2 / 4.0)
    p = float(_require_scipy("jarque_bera").chi2.sf(jb, df=2))
    return NormalityResult(statistic=float(jb), p_value=p, test="jarque-bera")


def shapiro_wilk(sample: np.ndarray) -> NormalityResult:
    """Shapiro–Wilk W test (the test the paper reports)."""
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 3:
        raise ValueError("Shapiro-Wilk needs at least 3 observations")
    # scipy warns above 5000 samples; subsample deterministically like R does not,
    # but keep the test well-defined for long windows.
    if x.size > 5000:
        idx = np.linspace(0, x.size - 1, 5000).astype(int)
        x = x[idx]
    stat, p = _require_scipy("shapiro_wilk").shapiro(x)
    return NormalityResult(statistic=float(stat), p_value=float(p), test="shapiro-wilk")


def normal_fit(sample: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of the matched normal approximation."""
    x = np.asarray(sample, dtype=float)
    return float(x.mean()), float(x.std(ddof=1))


def normal_pdf(x: np.ndarray, mean: float, std: float) -> np.ndarray:
    """Density of N(mean, std^2), vectorized."""
    x = np.asarray(x, dtype=float)
    z = (x - mean) / std
    return np.exp(-0.5 * z * z) / (std * np.sqrt(2 * np.pi))
