"""Campaign statistics: batch means and confidence intervals.

A campaign's claim — "BiCord beats ECC on delivery ratio" — is only
defensible with an uncertainty estimate attached.  This module turns flat
``(params, metrics)`` trial records into per-scheme summaries: sample mean,
standard deviation, standard error, and the 95% confidence interval
half-width from the Student t distribution (trial counts are small, so the
normal approximation would understate the interval).

``aggregate_records(..., batch=True)`` applies *batch means* first: trials
sharing one parameter combination (different seeds of the same scenario
placement) are averaged into a single batch observation, and the CI is
computed over the batches.  That keeps placements — which are drawn from a
scenario generator and therefore correlated within a combination — from
masquerading as independent samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..serialization import stable_hash

#: Two-sided 95% Student t critical values for df = 1..30 (index df-1), scipy's
#: ``t.ppf(0.975, df)``.  Small campaigns (3-5 seeds) land here, where the normal
#: quantile 1.96 understates the interval badly: df=4 needs 2.776, a 42% wider CI.
_T95_TABLE = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)

#: Beyond the table: the Cornish-Fisher expansion of the t quantile about the
#: normal quantile z, in powers of 1/df (Abramowitz & Stegun 26.7.5).
_Z = NormalDist().inv_cdf(0.975)
_CF_TERMS = (
    (_Z**3 + _Z) / 4, (5 * _Z**5 + 16 * _Z**3 + 3 * _Z) / 96,
    (3 * _Z**7 + 19 * _Z**5 + 17 * _Z**3 - 15 * _Z) / 384,
    (79 * _Z**9 + 776 * _Z**7 + 1482 * _Z**5 - 1920 * _Z**3 - 945 * _Z) / 92160,
)


def t_critical(df: int) -> float:
    """Two-sided 95% Student t critical value for ``df`` degrees of freedom.

    df <= 30 reads :data:`_T95_TABLE`; larger df sums the four-term
    Cornish-Fisher expansion ``z + g1/df + g2/df^2 + g3/df^3 + g4/df^4``,
    within 1.3e-8 relative of the exact quantile for every df above 30.
    NaN for df <= 0 (a single observation has no interval).
    """
    if df <= 0:
        return float("nan")
    if df <= len(_T95_TABLE):
        return _T95_TABLE[df - 1]
    return _Z + sum(g / df**k for k, g in enumerate(_CF_TERMS, start=1))


@dataclass(frozen=True)
class MetricSummary:
    """Mean and uncertainty of one metric over n observations."""

    n: int
    mean: float
    std: float  # sample standard deviation (ddof=1)
    stderr: float  # std / sqrt(n)
    ci95: float  # t-based half-width; 0 when n < 2

    @property
    def lo(self) -> float:
        return self.mean - self.ci95

    @property
    def hi(self) -> float:
        return self.mean + self.ci95

    def to_dict(self) -> Dict[str, Any]:
        """JSON payload (report.json): ``n`` stays an int, the rest are
        floats, plus the derived ``lo``/``hi`` bounds."""
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "stderr": self.stderr,
            "ci95": self.ci95,
            "lo": self.lo,
            "hi": self.hi,
        }


def summarize(values: Sequence[float]) -> MetricSummary:
    """Mean / std / stderr / 95% CI half-width of a sample."""
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = math.fsum(values) / n
    if n < 2:
        return MetricSummary(n=n, mean=mean, std=0.0, stderr=0.0, ci95=0.0)
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(var)
    stderr = std / math.sqrt(n)
    return MetricSummary(
        n=n, mean=mean, std=std, stderr=stderr,
        ci95=t_critical(n - 1) * stderr,
    )


def _combo_key(params: Mapping[str, Any]) -> str:
    """Stable identity of one parameter combination (order-insensitive)."""
    return stable_hash(dict(params))


def aggregate_records(
    records: Sequence[Tuple[Mapping[str, Any], Mapping[str, float]]],
    compare_by: str = "scheme",
    batch: bool = False,
) -> Dict[Any, Dict[str, MetricSummary]]:
    """Per-group metric summaries over flat ``(params, metrics)`` records.

    Groups records by ``params[compare_by]`` (records missing the key fall
    into the ``None`` group) and summarizes every metric name that appears
    in the group.  With ``batch=True``, records of one group sharing a
    parameter combination (``params`` minus the compare key) are first
    averaged into a single batch observation — see the module docstring.
    """
    groups: Dict[Any, List[Tuple[Mapping[str, Any], Mapping[str, float]]]] = {}
    for params, metrics in records:
        groups.setdefault(params.get(compare_by), []).append((params, metrics))

    out: Dict[Any, Dict[str, MetricSummary]] = {}
    for group_value, members in groups.items():
        samples: Dict[str, List[float]] = {}
        if batch:
            batches: Dict[str, Dict[str, List[float]]] = {}
            for params, metrics in members:
                combo = _combo_key(
                    {k: v for k, v in params.items() if k != compare_by}
                )
                bucket = batches.setdefault(combo, {})
                for name, value in metrics.items():
                    bucket.setdefault(name, []).append(float(value))
            for bucket in batches.values():
                for name, values in bucket.items():
                    samples.setdefault(name, []).append(
                        math.fsum(values) / len(values)
                    )
        else:
            for _, metrics in members:
                for name, value in metrics.items():
                    samples.setdefault(name, []).append(float(value))
        out[group_value] = {
            name: summarize(values) for name, values in sorted(samples.items())
        }
    return out


def comparison_table(
    summaries: Mapping[Any, Mapping[str, MetricSummary]],
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """Fixed-width text table: one row per group, ``mean +- ci95`` cells."""
    if not summaries:
        return "(no records)"
    if metrics is None:
        names: List[str] = []
        for group in summaries.values():
            for name in group:
                if name not in names:
                    names.append(name)
        metrics = names
    header = ["group"] + list(metrics)
    rows: List[List[str]] = []
    for group_value in sorted(summaries, key=lambda v: (v is None, str(v))):
        row = [str(group_value)]
        for name in metrics:
            cell = summaries[group_value].get(name)
            row.append(
                f"{cell.mean:.4g} +- {cell.ci95:.2g}" if cell is not None else "-"
            )
        rows.append(row)
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
