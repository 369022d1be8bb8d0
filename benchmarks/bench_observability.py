"""Experiment trace-overhead: tracing must be (nearly) free.

Runs the paper's Figure-3 workload (600 kbps video sender, 400
receivers, one broker) twice — untraced baseline vs 1% trace sampling
with a live TraceCollector — and gates the observability spine at less
than 5% on both average and p99 delivery delay.  The sampled-trace
dissemination consumes *modeled broker CPU* (route + per-receiver send
costs on the shared host), so this is a real overhead measurement in
virtual time, not a Python micro-benchmark.
"""

from repro.bench.figure3 import Fig3Config, run_figure3

PACKETS = 2000
QUICK_PACKETS = 300
SAMPLE_RATE = 0.01
#: Relative budget on the traced run's delay degradation.
MAX_OVERHEAD = 0.05


def _delivery(result):
    return {
        "avg_delay_ms": result.avg_delay_ms,
        "p99_delay_ms": result.p99_delay_ms,
        "avg_jitter_ms": result.avg_jitter_ms,
        "packets": result.packets,
        "lost": result.lost,
    }


def scenario(quick):
    packets = QUICK_PACKETS if quick else PACKETS
    baseline = run_figure3("narada", Fig3Config(packets=packets))
    config = Fig3Config(
        packets=packets, trace_sample_rate=SAMPLE_RATE, collect_traces=True
    )
    traced = run_figure3("narada", config)
    stats, summary = traced.broker_stats, traced.trace_summary
    expected = packets * SAMPLE_RATE
    share_sum = (
        summary["cpu_share"] + summary["queue_share"] + summary["link_share"]
    )
    avg_overhead = (
        (traced.avg_delay_ms - baseline.avg_delay_ms) / baseline.avg_delay_ms
    )
    p99_overhead = (
        (traced.p99_delay_ms - baseline.p99_delay_ms) / baseline.p99_delay_ms
    )
    return {
        "params": {
            "packets": packets,
            "receivers": config.receivers,
            "sample_rate": SAMPLE_RATE,
            "overhead_budget": MAX_OVERHEAD,
        },
        "results": {
            "avg_delay_overhead": avg_overhead,
            "p99_delay_overhead": p99_overhead,
            "baseline": _delivery(baseline),
            "traced": {
                **_delivery(traced),
                "traces_started": stats["traces_started"],
                "traces_completed": stats["traces_completed"],
                "trace_summary": summary,
            },
        },
        "gates": {
            "baseline_untraced_and_lossless": baseline.lost == 0
            and baseline.broker_stats["traces_started"] == 0,
            "traces_sampled_and_collected":
                stats["traces_started"] >= 0.5 * expected
                and summary["count"] >= 0.5 * expected,
            "traces_completed":
                stats["traces_completed"] >= 0.9 * stats["traces_started"],
            # Attribution is self-consistent: shares partition the delay.
            "shares_partition_delay": 0.99 < share_sum < 1.01,
            # No packets lost to the extra trace traffic.
            "traced_run_lossless":
                traced.lost == 0 and traced.packets >= baseline.packets,
            "avg_delay_within_budget": avg_overhead < MAX_OVERHEAD,
            "p99_delay_within_budget": p99_overhead < MAX_OVERHEAD,
        },
    }
