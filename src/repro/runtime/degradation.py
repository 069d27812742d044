"""Zhai-style performance-degradation tracking (Algorithm 1, lines 10-16).

The adaptive criterion used by both methods in the paper's numerical study
computes, at every iteration, the *exact degradation with respect to a
reference iteration* (the one right after the last LB call):

* the per-iteration time is smoothed with the median over the current and
  the two previous iterations (line 14);
* the difference between the smoothed time and the reference time is
  accumulated (line 15);
* the load balancer is invoked once the accumulation reaches the average LB
  cost (line 16) -- plus, for ULBA, the underloading overhead.

:class:`DegradationTracker` implements the accumulation; the comparison to
the threshold lives in the trigger policies of :mod:`repro.lb.adaptive`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.utils.stats import rolling_median
from repro.utils.validation import check_positive_int

__all__ = ["DegradationTracker"]


@dataclass
class DegradationTracker:
    """Accumulator of per-iteration performance degradation.

    Parameters
    ----------
    window:
        Size of the median smoothing window (3 in the paper: the current and
        the two previous iteration times).
    """

    window: int = 3
    _reference_time: Optional[float] = field(default=None, repr=False)
    _recent_times: List[float] = field(default_factory=list, repr=False)
    _degradation: float = field(default=0.0, repr=False)
    _iterations_since_reset: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.window, "window")

    # ------------------------------------------------------------------
    @property
    def degradation(self) -> float:
        """Accumulated degradation since the last reset, in seconds."""
        return self._degradation

    @property
    def reference_time(self) -> Optional[float]:
        """Reference iteration time (set at the first iteration after a reset)."""
        return self._reference_time

    @property
    def iterations_since_reset(self) -> int:
        """Number of iterations observed since the last reset."""
        return self._iterations_since_reset

    # ------------------------------------------------------------------
    def observe(self, iteration_time: float) -> float:
        """Record one iteration time; returns the updated degradation.

        The first observation after a reset becomes the reference time
        (Algorithm 1, lines 11-13).
        """
        if iteration_time < 0:
            raise ValueError(
                f"iteration_time must be >= 0, got {iteration_time}"
            )
        self._recent_times.append(float(iteration_time))
        if len(self._recent_times) > self.window:
            self._recent_times = self._recent_times[-self.window :]

        if self._reference_time is None:
            self._reference_time = float(iteration_time)

        smoothed = rolling_median(self._recent_times, self.window)
        self._degradation += smoothed - self._reference_time
        self._iterations_since_reset += 1
        return self._degradation

    def reset(self) -> None:
        """Reset after a LB step (Algorithm 1, lines 24-25).

        The next observed iteration becomes the new reference; the smoothing
        window is also cleared so pre-LB times do not leak into the new
        interval.
        """
        self._reference_time = None
        self._recent_times = []
        self._degradation = 0.0
        self._iterations_since_reset = 0
