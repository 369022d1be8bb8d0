"""Experiment fig3-delay / fig3-jitter: the paper's Figure 3.

One 600 kbps video sender, 400 receivers (12 co-located with the sender,
measured), 2000 packets; NaradaBrokering vs the JMF reflector.

Paper values: delay NB 80.76 ms vs JMF 229.23 ms; jitter NB 13.38 ms vs
JMF 15.55 ms.  The gates check the *shape*: the broker wins by a factor
of roughly 3 on delay and is modestly better on jitter, and both systems
are stationary (no runaway queue).  The ablation runs the
pre-optimization broker send path ("after we made some optimizations
... it shows excellent performance" — this is the before picture).
"""

from repro.bench.figure3 import Fig3Config, run_figure3
from repro.bench.metrics import mean
from repro.broker.profile import UNOPTIMIZED_PROFILE

PACKETS = 2000
ABLATION_PACKETS = 800
QUICK_PACKETS = 300
QUICK_ABLATION_PACKETS = 150


def _summary(result):
    return {
        "avg_delay_ms": result.avg_delay_ms,
        "avg_jitter_ms": result.avg_jitter_ms,
        "p99_delay_ms": result.p99_delay_ms,
        "max_delay_ms": result.max_delay_ms,
        "packets": result.packets,
        "lost": result.lost,
    }


def scenario(quick):
    packets = QUICK_PACKETS if quick else PACKETS
    ablation_packets = QUICK_ABLATION_PACKETS if quick else ABLATION_PACKETS
    narada = run_figure3("narada", Fig3Config(packets=packets))
    jmf = run_figure3("jmf", Fig3Config(packets=packets))
    unoptimized = run_figure3("narada", Fig3Config(
        packets=ablation_packets, narada_profile=UNOPTIMIZED_PROFILE
    ))
    delay_ratio = jmf.avg_delay_ms / narada.avg_delay_ms
    jitter_ratio = jmf.avg_jitter_ms / narada.avg_jitter_ms
    nb_series, jmf_series = narada.delay_series_ms, jmf.delay_series_ms
    half = jmf.packets // 2
    return {
        "params": {
            "packets": packets,
            "ablation_packets": ablation_packets,
            "receivers": Fig3Config.receivers,
            "colocated": Fig3Config.colocated,
            "paper_delay_ms": {"narada": 80.76, "jmf": 229.23},
            "paper_jitter_ms": {"narada": 13.38, "jmf": 15.55},
        },
        "results": {
            "narada_avg_delay_ms": narada.avg_delay_ms,
            "narada_avg_jitter_ms": narada.avg_jitter_ms,
            "jmf_avg_delay_ms": jmf.avg_delay_ms,
            "jmf_avg_jitter_ms": jmf.avg_jitter_ms,
            "delay_ratio": delay_ratio,
            "jitter_ratio": jitter_ratio,
            "unoptimized_avg_delay_ms": unoptimized.avg_delay_ms,
            "narada": _summary(narada),
            "jmf": _summary(jmf),
            "unoptimized": _summary(unoptimized),
        },
        "gates": {
            "narada_delivers_the_stream":
                narada.packets >= 0.95 * packets and narada.lost == 0,
            # Interactive-quality delay, far below the reflector's.
            "narada_delay_interactive": 20.0 < narada.avg_delay_ms < 150.0,
            "narada_jitter_in_range": 5.0 < narada.avg_jitter_ms < 25.0,
            # The last fifth of the run is not drifting upward.
            "narada_stationary":
                mean(nb_series[-narada.packets // 5:])
                < 3.0 * mean(nb_series[: narada.packets // 5]) + 20.0,
            # Who wins, by roughly what factor (paper: 2.84x).
            "delay_ratio_in_paper_shape": 1.8 < delay_ratio < 6.0,
            # JMF modestly worse (paper: 15.55 vs 13.38).
            "jmf_jitter_modestly_worse": 1.0 < jitter_ratio < 2.0,
            # Saturated but stationary (bounded backlog), like the plot.
            "jmf_stationary":
                mean(jmf_series[half:])
                < 1.5 * mean(jmf_series[jmf.packets // 5: half]) + 30.0,
            "unoptimized_broker_slower":
                unoptimized.avg_delay_ms > narada.avg_delay_ms,
        },
    }
