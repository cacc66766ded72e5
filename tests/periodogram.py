"""Periodogram tools of the business-cycle tests.

The dominant period of a series (the largest periodogram peak, with its
prominence over the spectral floor) and the amplitude envelope (a rolling
standard deviation) of the unstable phase's output.  Criterion 7 and
``tests/test_analytics.py`` use them; no command, script or benchmark
layer does, so the package does not carry them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import periodogram


@dataclass(frozen=True)
class PeriodEstimate:
    """Dominant period with its prominence (peak power over median power)."""

    period: float | None
    prominence: float
    frequency: float


def dominant_period(series: np.ndarray, burn_in: int,
                    min_prominence: float = 50.0) -> PeriodEstimate:
    """Period of the largest nonzero-frequency periodogram peak.

    The series is mean-removed and Hann-tapered.  The peak must stand out
    from the spectral floor: prominence is the ratio of peak power to the
    median power, and a flat spectrum (prominence below ``min_prominence``,
    which white noise essentially never exceeds) yields period None.
    Needs at least 2048 post-burn-in samples.
    """
    series = np.asarray(series, dtype=float)
    x = series[burn_in:]
    if len(x) < 2048:
        raise ValueError("need at least 2048 post-burn-in samples")
    freqs, power = periodogram(x - x.mean(), window="hann", detrend=False)
    freqs, power = freqs[1:], power[1:]
    k = int(np.argmax(power))
    floor = float(np.median(power))
    prominence = float(power[k] / floor) if floor > 0 else float("inf")
    if prominence < min_prominence:
        return PeriodEstimate(period=None, prominence=prominence, frequency=float(freqs[k]))
    return PeriodEstimate(period=float(1.0 / freqs[k]), prominence=prominence,
                          frequency=float(freqs[k]))


def amplitude_envelope(series: np.ndarray, window: int = 6) -> np.ndarray:
    """Rolling standard deviation of the series, one value per window start.

    The unstable phase superposes a fast oscillation (a few steps) on a slow
    modulation of its amplitude; the business cycle the eye picks out of an
    output plot is that envelope.  ``window`` should cover roughly one fast
    period.
    """
    series = np.asarray(series, dtype=float)
    if window < 2 or len(series) <= window:
        raise ValueError("window must cover at least two samples of the series")
    cum = np.cumsum(np.insert(series, 0, 0.0))
    cum2 = np.cumsum(np.insert(series**2, 0, 0.0))
    mean = (cum[window:] - cum[:-window]) / window
    mean2 = (cum2[window:] - cum2[:-window]) / window
    return np.sqrt(np.maximum(mean2 - mean**2, 0.0))
