"""Cross-session experience: fingerprint forms, store settled
outcomes, warm-start new learners from their nearest structural
neighbours — as priors only (Theorem 1's per-run schedule is never
touched)."""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".fingerprint": ("FormProfile", "form_fingerprint", "form_profile",
                     "similarity"),
    ".store": ("EXPERIENCE_FORMAT", "EXPERIENCE_VERSION", "ExperienceRecord",
               "ExperienceStore", "Neighbour", "migrate_experience_payload"),
    ".warmstart": ("WarmStart", "record_from_learner", "warm_start"),
})
