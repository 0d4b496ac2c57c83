"""Fig. 13 — prioritized Wi-Fi traffic.

Paper: with video (high priority, requests ignored) and file transfer (low
priority) mixed over 10 s, BiCord beats ECC-20/ECC-30 on total utilization
by ~3.1%/9.8% and on ZigBee utilization by ~46%/28%; high-priority Wi-Fi
sees near-zero extra delay; BiCord's low-priority Wi-Fi delay is close to
ECC's (paper: ~6% lower on average).
"""

import numpy as np

from repro.experiments import PriorityTrialConfig, format_table, run_priority_experiment

from .conftest import scaled

PROPORTIONS = (0.1, 0.2, 0.3, 0.4, 0.5)
VARIANTS = (("bicord", None), ("ecc", 20e-3), ("ecc", 30e-3))


def test_fig13_priority(benchmark, emit):
    def run():
        duration = scaled(10, minimum=4)
        results = {}
        for proportion in PROPORTIONS:
            for scheme, whitespace in VARIANTS:
                label = scheme if whitespace is None else f"ecc-{int(whitespace * 1e3)}ms"
                config = PriorityTrialConfig(
                    scheme=scheme, high_proportion=proportion,
                    total_duration=float(duration),
                    ecc_whitespace=whitespace or 20e-3,
                )
                results[(proportion, label)] = run_priority_experiment(config, seed=2)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    labels = ["bicord", "ecc-20ms", "ecc-30ms"]
    blocks = []
    for metric in ("utilization", "zigbee_utilization", "low_priority_wifi_delay",
                   "high_priority_wifi_delay"):
        rows = []
        for label in labels:
            row = [label]
            for proportion in PROPORTIONS:
                value = getattr(results[(proportion, label)], metric)
                if metric.endswith("delay"):
                    value *= 1e3
                row.append(value)
            rows.append(row)
        headers = ["scheme"] + [f"{p:.1f}" for p in PROPORTIONS]
        blocks.append(format_table(headers, rows, title=f"Fig. 13 {metric}",
                                   float_format="{:.3f}"))
    emit("fig13_priority", "\n\n".join(blocks))

    # ZigBee utilization: BiCord far above both ECC variants (paper: +46/+28%).
    for proportion in PROPORTIONS:
        bicord = results[(proportion, "bicord")].zigbee_utilization
        for label in labels[1:]:
            assert bicord > results[(proportion, label)].zigbee_utilization
    # High-priority Wi-Fi traffic is protected: its delay never exceeds the
    # low-priority delay by much under BiCord.
    for proportion in PROPORTIONS:
        r = results[(proportion, "bicord")]
        assert r.high_priority_wifi_delay <= r.low_priority_wifi_delay * 1.25 + 1e-3
    # Low-priority Wi-Fi delay comparable to ECC's (paper: ~6% lower).
    bicord_low = np.mean([results[(p, "bicord")].low_priority_wifi_delay
                          for p in PROPORTIONS])
    ecc_low = np.mean([results[(p, lab)].low_priority_wifi_delay
                       for p in PROPORTIONS for lab in labels[1:]])
    assert bicord_low < ecc_low * 2.0
