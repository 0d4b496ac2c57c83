"""Ablation — the paper's future-work piggyback extension (Sec. VII-B).

The paper suggests shrinking signaling energy by reusing control packets as
data packets.  Our reproduction quantifies the catch: a piggybacked control
packet must be *decoded* by the ZigBee receiver, yet it is transmitted to
*overlap Wi-Fi traffic by design*, so it is usually corrupted — most
deliveries still ride the white-space path.  The extension is mildly useful
(it never costs packets, and occasionally saves a round trip) but not the
free win the sketch implies.
"""

import dataclasses

import numpy as np

from repro.core import BicordConfig
from repro.experiments import format_table
from repro.scenarios import compile_scenario, get_scenario

from .conftest import scaled


def _run(piggyback: bool, seed: int):
    config = BicordConfig()
    config.signaling.piggyback_data = piggyback
    n_bursts = scaled(15, minimum=8)
    spec = get_scenario("office", n_bursts=n_bursts, poisson=False)
    spec = dataclasses.replace(
        spec,
        duration=n_bursts * 0.2 + 1.0,
        grace=0.0,
        coordinator=dataclasses.replace(spec.coordinator, bicord=config),
    )
    office = compile_scenario(spec, seed=seed)
    link = office.run().links["zigbee"]
    return {
        "delivered": link.delivered,
        "offered": n_bursts * 5,
        "piggyback_deliveries": office.zigbee_links["zigbee"].node.piggyback_deliveries,
        "control_packets": link.control_packets,
        "mean_delay_ms": float(np.mean(link.delays)) * 1e3,
        "energy_mj": office.device("ZS").energy.total_mj,
    }


def test_ablation_piggyback(benchmark, emit):
    def run():
        seeds = range(scaled(3, minimum=2))
        return {
            flag: [_run(flag, seed) for seed in seeds] for flag in (False, True)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for flag, runs in results.items():
        rows.append([
            "piggyback" if flag else "baseline",
            float(np.mean([r["delivered"] / r["offered"] for r in runs])),
            float(np.mean([r["piggyback_deliveries"] for r in runs])),
            float(np.mean([r["control_packets"] for r in runs])),
            float(np.mean([r["mean_delay_ms"] for r in runs])),
            float(np.mean([r["energy_mj"] for r in runs])),
        ])
    emit(
        "ablation_piggyback",
        format_table(
            ["variant", "delivery", "piggyback_dlv", "ctrl_pkts",
             "delay_ms", "energy_mJ"],
            rows, title="Ablation: control-packet piggyback (future work)",
            float_format="{:.3f}",
        ),
    )
    # Never loses packets; energy must not get materially worse.
    for runs in results.values():
        for r in runs:
            assert r["delivered"] == r["offered"]
    base_energy = np.mean([r["energy_mj"] for r in results[False]])
    piggy_energy = np.mean([r["energy_mj"] for r in results[True]])
    assert piggy_energy < base_energy * 1.15
