"""Telemetry export: registry + manifest -> JSONL or CSV on disk.

JSONL (the default) writes one self-describing object per line — a
``manifest`` line first, then one line per counter/gauge/histogram/span —
so the file streams into ``jq``/pandas without a schema.  A path ending in
``.csv`` instead writes flat ``kind,name,field,value`` rows (histograms
and spans explode into one row per field).
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any, Dict, Optional, Union

from .manifest import RunManifest
from .metrics import MetricsRegistry


def export(
    path: Union[str, os.PathLike],
    registry: Optional[MetricsRegistry] = None,
    manifest: Optional[RunManifest] = None,
    snapshot: Optional[Dict[str, Any]] = None,
) -> int:
    """Write telemetry to ``path``; returns the number of metric lines.

    Pass either a live ``registry`` or a pre-merged ``snapshot`` (a sweep's
    aggregate); ``manifest`` is optional but recommended.  Format is chosen
    by extension: ``.csv`` -> CSV, anything else -> JSONL.
    """
    if registry is not None and snapshot is None:
        snapshot = registry.snapshot(spans=True)
    snapshot = snapshot or {}
    path = os.fspath(path)
    if path.endswith(".csv"):
        return _export_csv(path, manifest, snapshot)
    return _export_jsonl(path, manifest, snapshot)


def _iter_lines(snapshot: Dict[str, Any]):
    for name, value in snapshot.get("counters", {}).items():
        yield "counter", name, {"value": value}
    for name, value in snapshot.get("gauges", {}).items():
        yield "gauge", name, {"value": value}
    for name, data in snapshot.get("histograms", {}).items():
        yield "histogram", name, dict(data)
    for name, data in snapshot.get("spans", {}).items():
        yield "span", name, dict(data)


def _export_jsonl(path: str, manifest: Optional[RunManifest], snapshot: Dict[str, Any]) -> int:
    lines = 0
    with open(path, "w", encoding="utf-8") as handle:
        if manifest is not None:
            handle.write(json.dumps(
                {"type": "manifest", **manifest.to_dict()}, sort_keys=True
            ) + "\n")
        for kind, name, payload in _iter_lines(snapshot):
            handle.write(json.dumps(
                {"type": kind, "name": name, **payload}, sort_keys=True
            ) + "\n")
            lines += 1
    return lines


def _export_csv(path: str, manifest: Optional[RunManifest], snapshot: Dict[str, Any]) -> int:
    lines = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", "name", "field", "value"])
        if manifest is not None:
            for key, value in sorted(manifest.to_dict().items()):
                if isinstance(value, (dict, list)):
                    value = json.dumps(value, sort_keys=True)
                writer.writerow(["manifest", key, "", value])
        for kind, name, payload in _iter_lines(snapshot):
            for key, value in sorted(payload.items()):
                if isinstance(value, list):
                    value = json.dumps(value)
                writer.writerow([kind, name, key, value])
                lines += 1
    return lines
