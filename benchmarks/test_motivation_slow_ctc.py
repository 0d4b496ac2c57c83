"""Motivation bench (Sec. III-B) — why signaling latency is the crux.

The paper rejects packet-level CTC for the request channel because its
synchronization alone costs ~110 ms (AdaComm), "neutralizing the benefits
of the coordination scheme."  This bench runs BiCord's exact protocol with
the request carried over such a channel, sweeping the CTC latency, and
shows the delay benefit evaporating: at 110 ms the coordinated scheme is
*worse than ECC*.
"""

import numpy as np

from repro.experiments import CoexistenceConfig, format_table, run_coexistence

from .conftest import scaled

LATENCIES = (5e-3, 30e-3, 110e-3)


def test_motivation_slow_ctc(benchmark, emit):
    def run():
        n_bursts = scaled(20, minimum=10)
        results = {}
        results["bicord"] = run_coexistence(
            CoexistenceConfig(scheme="bicord", n_bursts=n_bursts, seed=3)
        )
        results["ecc-30ms"] = run_coexistence(
            CoexistenceConfig(scheme="ecc", ecc_whitespace=30e-3,
                              n_bursts=n_bursts, seed=3)
        )
        # Sweep the CTC latency: compile the slow-ctc coexistence run and
        # set the node's request latency before it starts.
        from repro.experiments.metrics import CoexistenceResult
        from repro.experiments.runner import COEXISTENCE_LINK, coexistence_spec
        from repro.scenarios import compile_scenario

        spec = coexistence_spec(CoexistenceConfig(scheme="slow-ctc", n_bursts=n_bursts))
        for latency in LATENCIES:
            office = compile_scenario(spec, seed=3)
            office.zigbee_links[COEXISTENCE_LINK].node.ctc_latency = latency
            run = office.run()
            link = run.links[COEXISTENCE_LINK]
            results[f"ctc-{latency * 1e3:.0f}ms"] = CoexistenceResult(
                scheme="slow-ctc", location="A", duration=run.duration,
                utilization=run.utilization,
                zigbee_delays=link.delays,
                zigbee_packets_offered=link.offered,
                zigbee_packets_delivered=link.delivered,
                zigbee_payload_bytes=link.payload_bytes,
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for label, r in results.items():
        rows.append([label, r.mean_delay * 1e3, r.channel_utilization,
                     r.delivery_ratio])
    emit(
        "motivation_slow_ctc",
        format_table(
            ["scheme", "mean_delay_ms", "utilization", "delivery"],
            rows, title="Sec. III-B: coordination over slow CTC "
                        "(request latency sweep)",
            float_format="{:.3f}",
        ),
    )
    bicord_delay = results["bicord"].mean_delay
    ecc_delay = results["ecc-30ms"].mean_delay
    # Latency monotonically erodes the benefit...
    delays = [results[f"ctc-{l * 1e3:.0f}ms"].mean_delay for l in LATENCIES]
    assert all(a <= b * 1.25 for a, b in zip(delays, delays[1:]))
    # ...and at AdaComm's 110 ms the coordinated scheme loses even to ECC.
    assert delays[-1] > ecc_delay
    assert bicord_delay < delays[0] * 1.5
