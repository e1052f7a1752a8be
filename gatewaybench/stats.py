"""Pure helpers of the gateway benchmark: percentiles and the knee staircase.

Kept free of I/O and of the program under test, so the self-tests can run
them on synthetic data (``test_gatewaybench.py``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

#: the percentiles a timing may be reported at, lowest first
REPORTABLE = (0.50, 0.90, 0.99, 0.999)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of an ascending sequence (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


def tail_quantile(samples: int, beyond: int = 10) -> Optional[float]:
    """The highest reportable quantile with at least ``beyond`` samples past it.

    ``None`` when even the median lacks them.  A p99 needs 1000 samples,
    a p90 100: fewer would let a handful of requests set the figure.
    """
    best = None
    for q in REPORTABLE:
        if samples * (1.0 - q) >= beyond - 1e-9:
            best = q
    return best


class Staircase:
    """Up-down search for the offered rate at the knee.

    Starts at ``guess``; after a passing probe the next rate is ``factor``
    higher, after a failing one ``factor`` lower.  Each reversal (a verdict
    unlike the one before) shrinks the step to its square root, down to
    ``min_factor``; ``grow_after`` verdicts in a row that agree square it
    again, up to the first step, so a reversal that a passing hiccup caused
    does not leave the search creeping.  It closes in fast and then keeps
    probing either side of the knee.

    ``knee`` is the boundary between passing and failing rates that the
    fewest probes contradict (passes above it plus fails below it); it
    reads every probe regardless of the order they came in, and one wrong
    verdict changes each boundary's count by one at most.  Ties are settled
    by the median of the tied boundaries.  A boundary above every probe
    gives the highest passing rate, one below every probe 0.0.
    """

    def __init__(self, guess: float, factor: float = 1.12, min_factor: float = 1.03,
                 grow_after: int = 3) -> None:
        if guess <= 0 or not 1 < min_factor <= factor:
            raise ValueError("the staircase needs guess > 0 and factor >= min_factor > 1")
        self.max_factor = self.factor = factor
        self.min_factor = min_factor
        self.grow_after = grow_after
        self._next = guess
        self._run = 0
        self.probes: List[Tuple[float, bool]] = []

    def next_rate(self) -> float:
        return self._next

    def record(self, rate: float, passed: bool) -> None:
        if self.probes and self.probes[-1][1] != passed:
            self.factor = max(self.min_factor, math.sqrt(self.factor))
            self._run = 1
        else:
            self._run += 1
            if self._run > self.grow_after:
                self.factor = min(self.max_factor, self.factor ** 2)
        self.probes.append((rate, passed))
        self._next = rate * self.factor if passed else rate / self.factor

    @property
    def knee(self) -> float:
        rates = sorted({r for r, _ok in self.probes})
        # boundary i lies between rates[i - 1] and rates[i]; cost counts the
        # probes on the wrong side of it
        best: List[int] = []
        best_cost = None
        for i in range(len(rates) + 1):
            cost = sum(1 for r, ok in self.probes
                       if (ok and i < len(rates) and r >= rates[i])
                       or (not ok and i > 0 and r <= rates[i - 1]))
            if best_cost is None or cost < best_cost:
                best, best_cost = [i], cost
            elif cost == best_cost:
                best.append(i)
        i = best[(len(best) - 1) // 2] if best else 0
        if i == 0:
            return 0.0
        if i == len(rates):
            return max((r for r, ok in self.probes if ok), default=0.0)
        return math.sqrt(rates[i - 1] * rates[i])

    @property
    def reversals(self) -> int:
        return sum(1 for a, b in zip(self.probes, self.probes[1:]) if a[1] != b[1])
