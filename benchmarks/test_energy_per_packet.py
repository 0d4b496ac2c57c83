"""Energy-per-delivered-packet across schemes (Sec. VII-B's closing claim).

"In traditional approaches, ZigBee needs [to] keep sensing the channel to
analyze the channel hints or passively wait for Wi-Fi's notification, which
inevitably leads to long delays and even higher energy costs."  This bench
measures it: under the paper's saturated Wi-Fi, the passive gap-predictor
burns tens of mJ of idle listening and delivers nothing, plain CSMA burns
energy on doomed attempts, and BiCord pays a fraction of a mJ per
*delivered* packet.
"""

import dataclasses

import numpy as np

from repro.experiments import format_table
from repro.scenarios import compile_scenario, get_scenario

from .conftest import scaled


def _run(scheme: str, seed: int):
    n_bursts = scaled(8, minimum=4)
    spec = get_scenario(
        "office", scheme=scheme, n_bursts=n_bursts, burst_packets=10,
        payload_bytes=120, burst_interval=0.3, poisson=False,
    )
    office = compile_scenario(
        dataclasses.replace(spec, duration=n_bursts * 0.3 + 0.5, grace=0.0), seed=seed
    )
    delivered = office.run().links["zigbee"].delivered
    meter = office.device("ZS").energy
    return {
        "delivered": delivered,
        "offered": n_bursts * 10,
        "total_mj": meter.total_mj,
        "tx_mj": meter.tx_mj,
        "listen_mj": meter.listen_mj,
        "mj_per_packet": meter.total_mj / delivered if delivered else float("inf"),
    }


def test_energy_per_packet(benchmark, emit):
    def run():
        seeds = range(scaled(2, minimum=2))
        return {
            scheme: [_run(scheme, seed) for seed in seeds]
            for scheme in ("bicord", "csma", "predictive")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for scheme, runs in results.items():
        delivered = np.mean([r["delivered"] for r in runs])
        offered = runs[0]["offered"]
        per = [r["mj_per_packet"] for r in runs if np.isfinite(r["mj_per_packet"])]
        rows.append([
            scheme,
            f"{delivered:.0f}/{offered}",
            float(np.mean([r["total_mj"] for r in runs])),
            float(np.mean([r["tx_mj"] for r in runs])),
            float(np.mean([r["listen_mj"] for r in runs])),
            float(np.mean(per)) if per else float("nan"),
        ])
    emit(
        "energy_per_packet",
        format_table(
            ["scheme", "delivered", "total_mJ", "tx_mJ", "listen_mJ", "mJ/pkt"],
            rows, title="Energy per delivered packet under saturated Wi-Fi "
                        "(Sec. VII-B)",
            float_format="{:.2f}",
        ),
    )
    bicord = results["bicord"]
    # BiCord delivers everything; the passive schemes deliver (almost) nothing
    # while burning comparable or more energy.
    for r in bicord:
        assert r["delivered"] == r["offered"]
    bicord_per = np.mean([r["mj_per_packet"] for r in bicord])
    for scheme in ("csma", "predictive"):
        for r in results[scheme]:
            assert r["delivered"] < 0.3 * r["offered"]
    predictive_listen = np.mean([r["listen_mj"] for r in results["predictive"]])
    assert predictive_listen > np.mean([r["total_mj"] for r in bicord])
    assert bicord_per < 1.0  # well under a millijoule per delivered packet
