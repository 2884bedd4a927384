"""Chernoff/Hoeffding machinery: Equations 1–3, 5–8 of the paper.

Everything statistical in PIB and PAO reduces to the additive Chernoff
bound (Equation 1): for i.i.d. samples with range ``Λ`` and mean ``μ``,

    Pr[Y_n > μ + β] ≤ exp(−2n(β/Λ)²),

which holds for essentially arbitrary distributions (footnote 5).  This
module packages the bound and every sample-size / threshold formula the
paper derives from it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

__all__ = [
    "chernoff_tail",
    "confidence_radius",
    "samples_for_radius",
    "pib_sum_threshold",
    "sequential_confidence",
    "pib_sequential_threshold",
    "pib_sequential_thresholds",
    "pao_sample_size",
    "aiming_sample_size",
]


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def chernoff_tail(n: int, beta: float, value_range: float) -> float:
    """Equation 1: ``Pr[Y_n deviates from μ by > β] ≤ exp(−2n(β/Λ)²)``."""
    _check_positive(n=n, value_range=value_range)
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    return math.exp(-2.0 * n * (beta / value_range) ** 2)


def confidence_radius(n: int, delta: float, value_range: float) -> float:
    """The ``β`` making the one-sided tail exactly ``δ``:
    ``β = Λ·sqrt(ln(1/δ) / (2n))``."""
    _check_positive(n=n, delta=delta, value_range=value_range)
    return value_range * math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def samples_for_radius(epsilon: float, delta: float, value_range: float) -> int:
    """Samples needed for a one-sided radius of ``ε`` at confidence
    ``1 − δ``: ``⌈(Λ/ε)²·ln(1/δ)/2⌉``."""
    _check_positive(epsilon=epsilon, delta=delta, value_range=value_range)
    return math.ceil((value_range / epsilon) ** 2 * math.log(1.0 / delta) / 2.0)


def pib_sum_threshold(n: int, delta: float, value_range: float) -> float:
    """Equation 2's acceptance threshold on the *sum* of differences.

    ``Δ[Θ, Θ', S] > Λ·sqrt(n/2 · ln(1/δ))`` certifies, with confidence
    ``1 − δ``, that ``D[Θ, Θ'] > 0`` — the new strategy is strictly
    better.
    """
    _check_positive(n=n, delta=delta, value_range=value_range)
    return value_range * math.sqrt(n / 2.0 * math.log(1.0 / delta))


def sequential_confidence(test_index: int, delta: float) -> float:
    """The per-test confidence ``δ_i = δ·6/(π²·i²)`` of Section 3.2.

    The schedule's total false-positive mass telescopes to ``δ``:
    ``Σ_i δ·6/(π²i²) = δ``.
    """
    _check_positive(test_index=test_index, delta=delta)
    return delta * 6.0 / (math.pi ** 2 * test_index ** 2)


def pib_sequential_threshold(
    n: int, total_tests: int, delta: float, value_range: float
) -> float:
    """Equation 6's threshold: ``Λ·sqrt(|S|/2 · ln(i²π²/(6δ)))``.

    ``total_tests`` is Figure 3's running counter ``i`` — the number of
    (strategy, neighbour) comparisons performed so far, which both the
    union bound over ``k = |T(Θ)|`` neighbours and the sequential-test
    schedule fold into.
    """
    _check_positive(n=n, total_tests=total_tests, delta=delta,
                    value_range=value_range)
    inner = math.log(total_tests ** 2 * math.pi ** 2 / (6.0 * delta))
    return value_range * math.sqrt(n / 2.0 * max(inner, 0.0))


def pib_sequential_thresholds(
    total_tests: int, delta: float
) -> Callable[[int, float], float]:
    """Equation 6's thresholds for one test at index ``i``.

    Returns ``threshold(n, value_range)``, equal bit for bit to
    ``pib_sequential_threshold(n, total_tests, delta, value_range)``.
    The log term is taken once, and the root once per distinct ``n``:
    a test weighs every neighbour at the same ``i``, and most of them
    at the same sample count.
    """
    _check_positive(total_tests=total_tests, delta=delta)
    inner = max(math.log(total_tests ** 2 * math.pi ** 2 / (6.0 * delta)),
                0.0)
    roots: Dict[int, float] = {}

    def threshold(n: int, value_range: float) -> float:
        root = roots.get(n)
        if root is None:
            _check_positive(n=n)
            root = roots[n] = math.sqrt(n / 2.0 * inner)
        if value_range <= 0:
            _check_positive(value_range=value_range)
        return value_range * root

    return threshold


def pao_sample_size(
    n_experiments: int, f_not: float, epsilon: float, delta: float
) -> int:
    """Equation 7: ``m(d_i) = ⌈2·(n·F¬[d_i]/ε)²·ln(2n/δ)⌉``.

    An experiment with ``F¬ = 0`` (every other arc lies on its own
    paths — e.g. a single-retrieval graph) needs no samples at all:
    mis-estimating it cannot change any ordering decision.
    """
    _check_positive(n_experiments=n_experiments, epsilon=epsilon, delta=delta)
    if f_not < 0:
        raise ValueError(f"f_not must be non-negative, got {f_not}")
    if f_not == 0.0:
        return 0
    return math.ceil(
        2.0
        * (n_experiments * f_not / epsilon) ** 2
        * math.log(2.0 * n_experiments / delta)
    )


def aiming_sample_size(
    n_experiments: int, f_not: float, epsilon: float, delta: float
) -> int:
    """Equation 8: the attempts-to-reach budget of Theorem 3,

        m'(e_i) = ⌈2·(sqrt(2ε/(n·F¬[e_i]) + 1) − 1)^−2 · ln(4n/δ)⌉.

    Its leading term as ``n`` grows matches Equation 7 with
    ``ln(4n/δ)`` in place of ``ln(2n/δ)`` (footnote 11).
    """
    _check_positive(n_experiments=n_experiments, epsilon=epsilon, delta=delta)
    if f_not < 0:
        raise ValueError(f"f_not must be non-negative, got {f_not}")
    if f_not == 0.0:
        return 0
    shrink = math.sqrt(2.0 * epsilon / (n_experiments * f_not) + 1.0) - 1.0
    return math.ceil(
        2.0 * shrink ** -2 * math.log(4.0 * n_experiments / delta)
    )
