"""Scaling — multiple ZigBee nodes sharing one BiCord coordinator.

Sec. VI's white-space adjustment covers "multiple ZigBee nodes with
different traffic patterns coexisting in the surroundings": the Wi-Fi
device cannot attribute CSI fluctuations to individual nodes, so one
allocator serves the aggregate demand.  This bench grows the node
population and checks that service quality degrades gracefully: everything
is still delivered, delays grow sub-linearly (nodes share white spaces),
and the aggregate ZigBee utilization rises with offered load.
"""

import dataclasses

import numpy as np

from repro.experiments import format_table
from repro.scenarios import compile_scenario, get_scenario

from .conftest import scaled

POPULATIONS = (1, 2, 4)


def _spec(n_nodes: int, n_bursts: int):
    """The office with ``n_nodes`` ZigBee links around location A."""
    # Keep the aggregate offered load fixed as the population grows.
    spec = get_scenario("office", n_bursts=n_bursts, burst_interval=0.25 * n_nodes)
    first = dataclasses.replace(spec.zigbee[0], name="src0")
    x, y = first.sender_pos
    links = [first] + [
        dataclasses.replace(
            first, name=f"src{i}", sender=f"ZS{i}", receiver=f"ZR{i}",
            sender_pos=(x - 0.3 * i, y + 0.25 * i),
            receiver_pos=(x + 1.0 - 0.2 * i, y + 0.7 + 0.2 * i),
            traffic=dataclasses.replace(first.traffic, start_delay=0.05 * i),
        )
        for i in range(1, n_nodes)
    ]
    # Grace: drain whatever is still queued (Poisson tails can place the
    # last bursts right at the horizon).
    return dataclasses.replace(
        spec, zigbee=tuple(links), duration=n_bursts * 0.25 * n_nodes + 1.5, grace=3.0
    )


def _run(n_nodes: int, seed: int):
    result = compile_scenario(_spec(n_nodes, scaled(10, minimum=6)), seed=seed).run()
    delays = [d for link in result.links.values() for d in link.delays]
    return {
        "delivered": result.packets_delivered,
        "offered": result.packets_offered,
        "mean_delay_ms": float(np.mean(delays)) * 1e3 if delays else 0.0,
        "p95_delay_ms": float(np.percentile(delays, 95)) * 1e3 if delays else 0.0,
        "grants": result.whitespaces_issued,
        "whitespace_s": result.whitespace_airtime,
    }


def test_scaling_multinode(benchmark, emit):
    def run():
        return {n: _run(n, seed=3) for n in POPULATIONS}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for n, r in results.items():
        rows.append([
            n, f"{r['delivered']}/{r['offered']}", r["mean_delay_ms"],
            r["p95_delay_ms"], float(r["grants"]), r["whitespace_s"],
        ])
    emit(
        "scaling_multinode",
        format_table(
            ["nodes", "delivered", "mean_delay_ms", "p95_delay_ms",
             "grants", "whitespace_s"],
            rows, title="Scaling: ZigBee nodes per coordinator "
                        "(fixed aggregate load)",
            float_format="{:.1f}",
        ),
    )
    for n, r in results.items():
        assert r["delivered"] == r["offered"], f"lost packets with {n} nodes"
    # Delay grows with population but stays within the same order of
    # magnitude (nodes share the granted white spaces).
    d1 = results[POPULATIONS[0]]["mean_delay_ms"]
    dmax = results[POPULATIONS[-1]]["mean_delay_ms"]
    assert dmax < 10 * max(d1, 1.0)
