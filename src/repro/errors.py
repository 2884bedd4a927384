"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
mistakes such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DatalogError",
    "ParseError",
    "StratificationError",
    "EvaluationError",
    "GraphError",
    "RecursionLimitError",
    "StrategyError",
    "IllegalStrategyError",
    "DistributionError",
    "LearningError",
    "SampleBudgetExceeded",
    "ResilienceError",
    "RetrievalFaultError",
    "QueryDeadlineExceeded",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class DatalogError(ReproError):
    """Base class for errors in the Datalog substrate."""


class ParseError(DatalogError):
    """Raised when Datalog source text cannot be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token
    when they are known.
    """

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class StratificationError(DatalogError):
    """Raised when a rule base using negation admits no stratification."""


class EvaluationError(DatalogError):
    """Raised when query evaluation cannot proceed (e.g. unsafe rules)."""


class GraphError(ReproError):
    """Base class for inference-graph construction and validation errors."""


class RecursionLimitError(GraphError):
    """Raised when unfolding a recursive rule base without a depth bound."""


class StrategyError(ReproError):
    """Base class for strategy-level errors."""


class IllegalStrategyError(StrategyError):
    """Raised when an arc sequence is not a legal strategy for its graph."""


class DistributionError(ReproError):
    """Raised when a context distribution is mis-specified."""


class LearningError(ReproError):
    """Base class for errors in the PIB/PAO learning algorithms."""


class SampleBudgetExceeded(LearningError):
    """Raised when a learner exhausts its sample budget before finishing."""


class ResilienceError(ReproError):
    """Base class for failures in the resilient execution layer."""


class RetrievalFaultError(ResilienceError):
    """A *transient* fault while attempting a database retrieval.

    Unlike a blocked arc — a definitive "these facts are not here" —
    a fault carries no information about the context: the segment timed
    out, the connection dropped, the scan must be retried.  ``arc_name``
    identifies the attempted arc; ``timeout`` distinguishes simulated
    timeouts from plain faults; ``cost_multiplier`` scales the charge
    for the wasted attempt (a timeout burns more of the cost budget
    than a fast connection refusal).
    """

    def __init__(self, arc_name, timeout=False, cost_multiplier=1.0):
        kind = "timeout" if timeout else "transient fault"
        super().__init__(f"{kind} while attempting arc {arc_name!r}")
        self.arc_name = arc_name
        self.timeout = timeout
        self.cost_multiplier = float(cost_multiplier)


class QueryDeadlineExceeded(ResilienceError):
    """A query's cost deadline expired before the search finished.

    ``spent`` is the cost charged up to the stop; ``budget`` the
    per-query deadline it ran into.
    """

    def __init__(self, spent, budget):
        super().__init__(
            f"query deadline exceeded: spent {spent:g} of budget {budget:g}"
        )
        self.spent = float(spent)
        self.budget = float(budget)


class CheckpointError(LearningError):
    """A learner checkpoint is missing, truncated, or corrupt.

    Wraps the raw ``FileNotFoundError`` / ``JSONDecodeError`` /
    ``KeyError`` family so callers can treat every bad-state-file
    condition uniformly.  ``path`` names the offending file when known.
    """

    def __init__(self, message, path=None):
        if path is not None:
            message = f"{message} (checkpoint: {path})"
        super().__init__(message)
        self.path = path
