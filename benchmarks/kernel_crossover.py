"""Loop vs vector medium kernel on the ``grid`` generator, by radio count.

:func:`repro.context.build_context` builds the loop kernel
(:class:`~repro.phy.medium.Medium`) below
:data:`repro.context.VECTOR_MEDIUM_MIN_RADIOS` radios and the vector kernel
(:class:`~repro.phy.medium_fast.VectorMedium`) from there on.  Both give
bit-identical results, so the threshold only moves speed; this script
measures where the vector kernel starts to win.  It forces each kernel by
patching the threshold, as ``tests/helpers.force_kernel`` does, times whole
grid trials (build and run) on both at every size, in interleaved rounds
(each round alternates which kernel goes first), and checks that both
kernels' trace digests agree.  It prints, per radio count, the median and
range over the rounds of vector/loop wall time (seeds summed per round).

Run from the repository root, alone on the machine::

    PYTHONPATH=src python -m benchmarks.kernel_crossover
    PYTHONPATH=src python -m benchmarks.kernel_crossover --sizes 20,28,40 --rounds 7
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import repro.context
from repro.scenarios import compile_scenario, get_scenario

#: Threshold values that make every context use one kernel.
KERNEL_THRESHOLDS = {"loop": sys.maxsize, "vector": 0}

DEFAULT_SIZES = (12, 16, 20, 24, 28, 32, 40, 48, 60)


def grid_spec(n_radios: int, duration: float):
    """A ``grid`` of ``n_radios`` radios (one link in five is Wi-Fi), no grace."""
    links = n_radios // 2
    wifi = max(1, round(links / 5))
    spec = get_scenario(
        "grid", n_zigbee_links=links - wifi, n_wifi_pairs=wifi, duration=duration
    )
    return dataclasses.replace(spec, grace=0.0)


def timed_trial(kernel: str, spec, seed: int) -> Tuple[float, str]:
    """Build and run ``spec`` at ``seed`` on ``kernel``: (seconds, digest)."""
    saved = repro.context.VECTOR_MEDIUM_MIN_RADIOS
    repro.context.VECTOR_MEDIUM_MIN_RADIOS = KERNEL_THRESHOLDS[kernel]
    try:
        start = time.perf_counter()
        result = compile_scenario(spec, seed).run()
        return time.perf_counter() - start, result.trace_digest
    finally:
        repro.context.VECTOR_MEDIUM_MIN_RADIOS = saved


def crossover(
    sizes: Sequence[int], rounds: int, seeds: Sequence[int], duration: float
) -> Dict[int, List[float]]:
    """Per radio count, the vector/loop wall-time ratio of every round."""
    ratios: Dict[int, List[float]] = {n: [] for n in sizes}
    specs = {n: grid_spec(n, duration) for n in sizes}
    for kernel in KERNEL_THRESHOLDS:  # untimed: first-use imports and caches
        timed_trial(kernel, specs[sizes[0]], seeds[0])
    for round_index in range(rounds):
        order = ("loop", "vector") if round_index % 2 == 0 else ("vector", "loop")
        for n in sizes:
            wall = {"loop": 0.0, "vector": 0.0}
            for seed in seeds:
                digests = {}
                for kernel in order:
                    seconds, digests[kernel] = timed_trial(kernel, specs[n], seed)
                    wall[kernel] += seconds
                if digests["loop"] != digests["vector"]:
                    raise AssertionError(
                        f"kernels disagree at {n} radios, seed {seed}: {digests}"
                    )
            ratios[n].append(wall["vector"] / wall["loop"])
    return ratios


def format_table(ratios: Dict[int, List[float]]) -> str:
    lines = [f"{'radios':>6}  {'vector/loop':>11}  {'min':>5}  {'max':>5}  rounds won"]
    for n, values in ratios.items():
        won = sum(1 for r in values if r < 1.0)
        lines.append(
            f"{n:>6}  {statistics.median(values):>11.3f}  {min(values):>5.2f}"
            f"  {max(values):>5.2f}  {won}/{len(values)}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", default=",".join(map(str, DEFAULT_SIZES)),
        help="comma-separated radio counts (default: %(default)s)",
    )
    parser.add_argument("--rounds", type=int, default=5, help="interleaved rounds")
    parser.add_argument("--seeds", default="1,2", help="comma-separated simulation seeds")
    parser.add_argument("--duration", type=float, default=0.3, help="simulated seconds")
    args = parser.parse_args(argv)
    sizes = [int(n) for n in args.sizes.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    ratios = crossover(sizes, args.rounds, seeds, args.duration)
    print(format_table(ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
