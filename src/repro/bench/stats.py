"""Statistical helpers for the benchmark reports and the verify contracts.

Measured rates (PIB's mistake frequency, PAO's success frequency) are
binomial estimates; the reports attach Clopper–Pearson exact confidence
intervals so "0 mistakes in 60 runs" is read correctly as "≤ 6% at 95%
confidence", not as "exactly zero".  The contract checkers of
:mod:`repro.verify.oracles` use the same interval's *lower* bound.
"""

from __future__ import annotations

import math
from typing import Tuple

__all__ = ["clopper_pearson", "rate_with_interval"]


def _binom_tail_ge(k: int, n: int, p: float) -> float:
    """``P[X ≥ k]`` for ``X ~ Binomial(n, p)`` via exact summation."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    return sum(
        math.comb(n, i) * (p ** i) * ((1.0 - p) ** (n - i))
        for i in range(k, n + 1)
    )


def _bisect(predicate, low: float, high: float, iterations: int = 60) -> float:
    """Smallest ``x`` in [low, high] with ``predicate(x)`` true, assuming
    monotonicity."""
    for _ in range(iterations):
        mid = (low + high) / 2.0
        if predicate(mid):
            high = mid
        else:
            low = mid
    return (low + high) / 2.0


def clopper_pearson(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """The exact (Clopper–Pearson) two-sided binomial interval.

    Implemented with exact binomial tails (:func:`math.comb`) and
    bisection, so it needs no statistics package.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must lie in [0, {trials}], got {successes}"
        )
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    if successes == 0:
        lower = 0.0
    else:
        # P[X ≥ k | p] grows in p; the lower bound solves tail = α/2.
        lower = _bisect(
            lambda p: _binom_tail_ge(successes, trials, p) >= alpha / 2.0,
            0.0,
            1.0,
        )
    if successes == trials:
        upper = 1.0
    else:
        # P[X ≤ k | p] shrinks in p; the upper bound solves tail = α/2.
        upper = _bisect(
            lambda p: (
                1.0 - _binom_tail_ge(successes + 1, trials, p) <= alpha / 2.0
            ),
            0.0,
            1.0,
        )
    return lower, upper


def rate_with_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> str:
    """``"0.050 [0.021, 0.103]"``-style rendering for report tables."""
    lower, upper = clopper_pearson(successes, trials, confidence)
    return f"{successes / trials:.3f} [{lower:.3f}, {upper:.3f}]"
