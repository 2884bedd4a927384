"""Observability: zero-overhead-when-disabled tracing and metrics.

The subsystem has four small parts:

* :mod:`~repro.observability.recorder` — the injectable seam: a
  :class:`Recorder` null object every instrumented call site defaults
  to (one ``enabled`` attribute check when tracing is off);
* :mod:`~repro.observability.tracer` — :class:`Tracer`, the recorder
  that keeps ordered per-query spans and events;
* :mod:`~repro.observability.metrics` — :class:`MetricsRegistry` with
  lazily created counters and histograms;
* :mod:`~repro.observability.sink` — JSONL trace export/import and the
  aggregation behind ``repro stats``.

Quickstart::

    from repro.observability import Tracer

    tracer = Tracer()
    result = execute(strategy, context, recorder=tracer)
    tracer.export_jsonl("trace.jsonl")
    print(tracer.metrics.snapshot())
"""

from .._lazy import lazy_names

__getattr__, __dir__, __all__ = lazy_names(__name__, {
    ".metrics": ("Counter", "Histogram", "LATENCY_BUCKETS", "MetricsRegistry"),
    ".recorder": ("NULL_RECORDER", "Recorder"),
    ".sink": ("read_trace", "summarize_trace", "write_trace"),
    ".tracer": ("Tracer",),
})
