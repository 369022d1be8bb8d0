"""Observability spine: metrics, tracing, series, SLOs, fleet telemetry.

``metrics``, ``trace``, ``series`` and ``anomaly`` are dependency-free
and imported eagerly — they are what the broker core (and leaf
monitors) pull in.  ``collector``, ``slo``, ``aggregate`` and ``report``
sit *above* the broker (they are broker clients), so they are exported
lazily via PEP 562 to keep ``repro.broker.broker`` → ``repro.obs`` from
becoming an import cycle.
"""

from repro.obs.anomaly import Anomaly, EwmaBandDetector, SlopeDetector
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    SIGNALING_BUCKETS_S,
    Counter,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
)
from repro.obs.series import (
    HistogramSketch,
    SeriesStore,
    TimeSeries,
    delta_encode,
    merge_counter_totals,
    merge_sketches,
)
from repro.obs.trace import (
    ALERT_TOPIC_PREFIX,
    NARADA_PREFIX,
    TRACE_TOPIC_PREFIX,
    CompletedTrace,
    HopRecord,
    TraceContext,
    Tracer,
    internal_topic,
)

_LAZY = {
    "TraceCollector": ("repro.obs.collector", "TraceCollector"),
    "SloAlert": ("repro.obs.slo", "SloAlert"),
    "SloWatchdog": ("repro.obs.slo", "SloWatchdog"),
    "AlertLog": ("repro.obs.slo", "AlertLog"),
    "BrokerHealth": ("repro.obs.aggregate", "BrokerHealth"),
    "ClusterHealthAggregator": ("repro.obs.aggregate", "ClusterHealthAggregator"),
    "ClusterHealthSummary": ("repro.obs.aggregate", "ClusterHealthSummary"),
    "FleetMonitor": ("repro.obs.aggregate", "FleetMonitor"),
    "TelemetryPlane": ("repro.obs.aggregate", "TelemetryPlane"),
    "build_report": ("repro.obs.report", "build_report"),
    "render_report": ("repro.obs.report", "render_report"),
}

__all__ = [
    "LATENCY_BUCKETS_S",
    "SIGNALING_BUCKETS_S",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "Anomaly",
    "EwmaBandDetector",
    "SlopeDetector",
    "HistogramSketch",
    "SeriesStore",
    "TimeSeries",
    "delta_encode",
    "merge_counter_totals",
    "merge_sketches",
    "ALERT_TOPIC_PREFIX",
    "NARADA_PREFIX",
    "TRACE_TOPIC_PREFIX",
    "CompletedTrace",
    "HopRecord",
    "TraceContext",
    "Tracer",
    "internal_topic",
    *sorted(_LAZY),
]


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
