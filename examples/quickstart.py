#!/usr/bin/env python3
"""Quickstart: BiCord vs no coordination in the paper's office.

Compiles the Fig. 6 office (Wi-Fi sender E and receiver F 3 m apart, a
ZigBee pair at location A) from the scenario library, saturates the
channel with the paper's Wi-Fi workload (100 B every 1 ms at 1 Mbps), and
delivers ZigBee bursts two ways:

1. plain 802.15.4 CSMA/CA — starves under Wi-Fi (the paper's motivation);
2. BiCord — the node signals its needs, the Wi-Fi device grants adaptive
   white spaces, and the burst sails through.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.scenarios import compile_scenario, get_scenario


def run(scheme: str, seed: int = 42) -> None:
    # ZigBee bursts: 5 packets of 50 B, Poisson-spaced at 200 ms on average.
    spec = get_scenario("office", scheme=scheme, n_bursts=25)
    compiled = compile_scenario(spec, seed=seed)
    result = compiled.run()

    link = result.links["zigbee"]
    print(f"--- {scheme} ---")
    print(f"  packets delivered : {link.delivered}/{link.offered}")
    if link.delays:
        print(f"  mean delay        : {np.mean(link.delays) * 1e3:7.1f} ms")
        print(f"  95th pct delay    : {np.percentile(link.delays, 95) * 1e3:7.1f} ms")
    coordinator = compiled.coordinator
    if coordinator is not None:
        print(f"  white spaces      : {coordinator.grants_issued} "
              f"({coordinator.whitespace_airtime * 1e3:.0f} ms reserved)")
        print(f"  converged grant   : {coordinator.current_whitespace * 1e3:.1f} ms")
        print(f"  control packets   : {link.control_packets}")
    wifi = result.wifi["wifi"]
    print(f"  Wi-Fi delivered   : {wifi.delivered} frames "
          f"(PRR {wifi.delivered / max(wifi.sent, 1):.3f})")


if __name__ == "__main__":
    print("BiCord quickstart: ZigBee bursts under saturated Wi-Fi\n")
    run("csma")
    print()
    run("bicord")
    print("\nBiCord turns a starved ZigBee link into a low-latency one while")
    print("the Wi-Fi link keeps a ~1.0 packet reception ratio.")
