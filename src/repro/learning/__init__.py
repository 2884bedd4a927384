"""The paper's learning algorithms: PIB₁, PIB, PALO, and PAO.

Plus their statistical underpinnings: Chernoff bounds and sample-size
formulas (Equations 1–3, 5–8), the light statistics collectors of
Section 5.1, and Lemma 1's sensitivity analysis.
"""

from .chernoff import (
    aiming_sample_size,
    chernoff_tail,
    confidence_radius,
    pao_sample_size,
    pib_sequential_threshold,
    pib_sum_threshold,
    samples_for_radius,
    sequential_confidence,
)
from .statistics import (
    DeltaAccumulator,
    RetrievalStatistics,
    WindowedRetrievalStatistics,
    delta_tilde,
)
from .pib1 import PIB1
from .pib import PIB, ClimbRecord
from .drift import (
    AdaptiveWindowDetector,
    DriftAlarm,
    DriftAwarePIB,
    DriftConfig,
    PageHinkleyDetector,
    RollbackTransformation,
    make_detector,
)
from .palo import PALO
from .pao import PAOResult, pao, sample_requirements
from .policy import PolicyPIB, PolicySwap, all_policy_swaps
from .sensitivity import excess_cost, lemma1_bound, sensitivity_report

__all__ = [
    "aiming_sample_size",
    "chernoff_tail",
    "confidence_radius",
    "pao_sample_size",
    "pib_sequential_threshold",
    "pib_sum_threshold",
    "samples_for_radius",
    "sequential_confidence",
    "DeltaAccumulator",
    "RetrievalStatistics",
    "WindowedRetrievalStatistics",
    "delta_tilde",
    "PIB1",
    "PIB",
    "ClimbRecord",
    "AdaptiveWindowDetector",
    "DriftAlarm",
    "DriftAwarePIB",
    "DriftConfig",
    "PageHinkleyDetector",
    "RollbackTransformation",
    "make_detector",
    "PALO",
    "PAOResult",
    "pao",
    "sample_requirements",
    "PolicyPIB",
    "PolicySwap",
    "all_policy_swaps",
    "excess_cost",
    "lemma1_bound",
    "sensitivity_report",
]
