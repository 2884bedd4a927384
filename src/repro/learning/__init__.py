"""The paper's learning algorithms: PIB₁, PIB, PALO, and PAO.

Plus their statistical underpinnings: Chernoff bounds and sample-size
formulas (Equations 1–3, 5–8), the light statistics collectors of
Section 5.1, and Lemma 1's sensitivity analysis.
"""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".chernoff": ("aiming_sample_size", "chernoff_tail", "confidence_radius",
                  "pao_sample_size", "pib_sequential_threshold",
                  "pib_sum_threshold", "samples_for_radius",
                  "sequential_confidence"),
    ".statistics": ("DeltaAccumulator", "RetrievalStatistics",
                    "WindowedRetrievalStatistics", "delta_tilde"),
    ".pib1": ("PIB1",),
    ".pib": ("PIB", "ClimbRecord"),
    ".drift": ("AdaptiveWindowDetector", "DriftAlarm", "DriftAwarePIB",
               "DriftConfig", "PageHinkleyDetector",
               "RollbackTransformation", "make_detector"),
    ".palo": ("PALO",),
    ".pao": ("PAOResult", "pao", "sample_requirements"),
    ".policy": ("PolicyPIB", "PolicySwap", "all_policy_swaps"),
    ".sensitivity": ("excess_cost", "lemma1_bound", "sensitivity_report"),
})
