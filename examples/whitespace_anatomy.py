#!/usr/bin/env python3
"""Anatomy of a BiCord run: timelines, gap statistics, learning staircase.

Renders a full coexistence run as terminal figures:

* the natural idle-gap distribution of the saturated Wi-Fi channel — the
  quantitative reason passive white-space exploitation starves;
* the learning staircase of granted white spaces (Fig. 7's shape);
* a timeline strip showing where the granted white spaces sit;
* the ZigBee per-packet delay histogram.

Run:  python examples/whitespace_anatomy.py
"""

import dataclasses

import numpy as np

from repro.analysis import analyze_trace
from repro.experiments.figures import histogram, sparkline, timeline
from repro.mac.frames import FrameType
from repro.scenarios import compile_scenario, get_scenario

TRACE = {"medium.tx_start"}


def main() -> None:
    spec = get_scenario(
        "office", n_bursts=14, burst_packets=10, burst_interval=0.25, poisson=False
    )
    office = compile_scenario(spec, seed=11, trace_kinds=TRACE)
    coordinator = office.coordinator

    whitespaces = []

    def on_sent(frame):
        if frame.frame_type is FrameType.CTS and frame.meta.get("bicord"):
            now = office.sim.now
            whitespaces.append((now, now + frame.meta["nav_duration"]))

    office.device("F").mac.sent_listeners.append(on_sent)
    result = office.run(until=4.0)
    link = result.links["zigbee"]

    print("=== the channel without coordination ===")
    exchange_need = 4.5e-3
    # Measure the *natural* gaps on a separate run of the Wi-Fi link alone,
    # with no coordinator (the run above contains BiCord's own white
    # spaces, which are exactly the gaps coordination creates).
    wifi_only = dataclasses.replace(
        get_scenario("office", scheme="csma"), zigbee=(), duration=2.0, grace=0.0
    )
    plain = compile_scenario(wifi_only, seed=11, trace_kinds=TRACE)
    plain.run()
    stats = analyze_trace(plain.ctx.trace, 0.1, 2.0, need=exchange_need)
    print(f"natural Wi-Fi idle gaps: {stats.n_gaps} gaps, median "
          f"{stats.median * 1e3:.2f} ms, p90 {stats.p90 * 1e3:.2f} ms")
    print(f"idle time usable for one ZigBee exchange (needs "
          f"{exchange_need * 1e3:.1f} ms): {stats.usable_fraction:.1%}")

    print("\n=== the learning staircase (Fig. 7) ===")
    grants_ms = [g * 1e3 for g in coordinator.allocator.whitespace_trajectory()]
    print("grant lengths (ms):", ", ".join(f"{g:.0f}" for g in grants_ms[:18]))
    print("shape:", sparkline(grants_ms))
    print(f"converged white space: {coordinator.current_whitespace * 1e3:.1f} ms")

    print("\n=== where the white spaces sit (first 2 s) ===")
    print(timeline(whitespaces, 0.0, 2.0, width=78))

    print("\n=== ZigBee per-packet delay ===")
    delays_ms = [d * 1e3 for d in link.delays]
    print(histogram(delays_ms, n_bins=8, width=30))
    print(f"\ndelivered {link.delivered} packets, mean delay "
          f"{np.mean(delays_ms):.1f} ms, {link.control_packets} control packets")


if __name__ == "__main__":
    main()
