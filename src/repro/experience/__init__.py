"""Cross-session experience: fingerprint forms, store settled
outcomes, warm-start new learners from their nearest structural
neighbours — as priors only (Theorem 1's per-run schedule is never
touched)."""

from .fingerprint import (
    FormProfile,
    form_fingerprint,
    form_profile,
    similarity,
)
from .store import (
    EXPERIENCE_FORMAT,
    EXPERIENCE_VERSION,
    ExperienceRecord,
    ExperienceStore,
    Neighbour,
    migrate_experience_payload,
)
from .warmstart import (
    WarmStart,
    record_from_learner,
    warm_start,
)

__all__ = [
    "EXPERIENCE_FORMAT",
    "EXPERIENCE_VERSION",
    "ExperienceRecord",
    "ExperienceStore",
    "FormProfile",
    "Neighbour",
    "WarmStart",
    "form_fingerprint",
    "form_profile",
    "migrate_experience_payload",
    "record_from_learner",
    "similarity",
    "warm_start",
]
