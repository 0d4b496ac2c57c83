"""Outside-in layer tracer for the end-to-end benchmark.

The tracer is installed from the benchmark's own files: it wraps public
methods of the program's classes and each simulator's ``schedule`` /
``schedule_at`` / ``run``, so nothing under ``src/`` changes.

Every wrapped call, and every event callback the simulator dispatches, is a
crossing into a *layer* named after the module that defines the code (see
:data:`LAYER_RULES`; a ``Process`` step belongs to its generator's module).
One running clock drives the accounting: at each crossing the time since the
previous crossing is charged to the current *layer path* (``sim>medium>rx``
is the receive path entered from the medium from an event), so the self
times of all paths add up to the traced wall time.  A dense trial crosses
layers tens of millions of times, so no per-call span is kept — only the
aggregated self time and call count of each path, read when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.cti import CtiClassifier
from repro.core.fingerprint import DeviceIdentifier
from repro.devices.base import Radio
from repro.mac.wifi import WifiMac
from repro.mac.zigbee import ZigbeeMac
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.kmeans import KMeans
from repro.phy.medium import Medium
from repro.phy.medium_fast import VectorMedium
from repro.phy.propagation import Channel
from repro.phy.rssi import RssiSampler
from repro.scenarios.compiler import CompiledScenario
from repro.sim.process import Process
from repro.sim.rng import RandomStreams

#: Module prefix -> layer; the first matching rule wins.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.rng", "propagation"),
    ("repro.sim", "sim"),
    ("repro.phy.medium", "medium"),
    ("repro.phy.medium_fast", "medium"),
    ("repro.phy.spectrum", "medium"),
    ("repro.phy.propagation", "propagation"),
    ("repro.phy.rssi", "rssi"),
    ("repro.phy", "rx"),
    ("repro.devices.interferers", "traffic"),
    ("repro.devices", "rx"),
    ("repro.mac", "mac"),
    ("repro.core.cti", "cti"),
    ("repro.core.fingerprint", "cti"),
    ("repro.core", "core"),
    ("repro.baselines", "core"),
    ("repro.ml", "ml"),
    ("repro.traffic", "traffic"),
    ("repro.mobility", "mobility"),
    ("repro.scenarios", "scenarios"),
)

#: Where time is charged when no traced layer is on the stack: the
#: benchmark's own trial code, the experiment runners, telemetry.
ROOT = "other"

LAYERS: Tuple[str, ...] = (
    "sim", "medium", "propagation", "rx", "rssi", "mac", "core", "cti", "ml",
    "traffic", "mobility", "scenarios", ROOT,
)

_MEDIUM_METHODS = (
    "transmit", "move_many", "rx_power_dbm", "captured_power_mw",
    "interference_mw", "decoding_interference_mw", "cca_power_mw",
    "inband_energy_dbm",
)

#: (class, method names) wrapped at class level.  Names a class inherits
#: are wrapped where they are defined.
METHOD_TARGETS: Tuple[Tuple[type, Tuple[str, ...]], ...] = (
    (Medium, _MEDIUM_METHODS),
    (VectorMedium, _MEDIUM_METHODS),
    (Channel, (
        "link_budget", "ensure_shadowing", "ensure_fading_generators",
        "mean_rx_power_dbm", "rx_power_dbm",
    )),
    (RandomStreams, ("stream", "stream_many")),
    (Radio, ("on_transmission_start", "on_transmission_end", "transmit_frame", "move_to")),
    (RssiSampler, ("capture",)),
    (CtiClassifier, ("fit",)),
    (DeviceIdentifier, ("fit",)),
    (DecisionTreeClassifier, ("fit",)),
    (KMeans, ("fit",)),
    (CompiledScenario, ("run",)),
)

#: MAC classes: every public ``on_*``, ``send*`` and ``enqueue*`` method.
MAC_CLASSES = (WifiMac, ZigbeeMac)
_MAC_PREFIXES = ("on_", "send", "enqueue")

#: Module-level functions, rebound in every ``repro`` module that imported them.
FUNCTION_TARGETS = (
    ("repro.core.cti", "extract_features"),
    ("repro.core.fingerprint", "extract_fingerprint"),
    ("repro.scenarios.compiler", "compile_scenario"),
)

_NO_KWARGS: Dict[str, Any] = {}


def layer_of(module: Optional[str]) -> str:
    """The layer that owns code defined in ``module``."""
    if module:
        for prefix, layer in LAYER_RULES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return ROOT


class Tracer:
    """Per-layer-path self time and call counts, accumulated over trials.

    Call :meth:`install` before the run and :meth:`uninstall` after it,
    :meth:`attach_sim` on every simulator right after it is built, and
    :meth:`begin` / :meth:`end` around each trial: only time between them
    is charged.
    """

    def __init__(self) -> None:
        #: Path id -> ``>``-joined layers below the root (the root is ROOT).
        self.path_names: List[str] = [ROOT]
        self.self_s: List[float] = [0.0]
        self.calls: List[int] = [0]
        self._path_layer: List[str] = [ROOT]
        self._children: List[Dict[str, int]] = [{}]
        self._method_calls: Dict[str, List[int]] = {}
        self._module_layers: Dict[Optional[str], str] = {}
        self._restore: List[Tuple[Any, str, Any]] = []
        self._build_clock()

    # ------------------------------------------------------------------
    # The running clock
    # ------------------------------------------------------------------
    def _build_clock(self) -> None:
        clock = time.perf_counter
        self_s, calls, children = self.self_s, self.calls, self._children
        new_path = self._new_path
        cur = 0
        last = clock()

        def call_in(layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
            nonlocal cur, last
            t = clock()
            parent = cur
            self_s[parent] += t - last
            node = children[parent].get(layer)
            if node is None:
                node = new_path(parent, layer)
            calls[node] += 1
            cur = node
            last = t
            try:
                return fn(*args, **kwargs)
            finally:
                t = clock()
                self_s[node] += t - last
                cur = parent
                last = t

        def begin() -> None:
            nonlocal cur, last
            cur = 0
            last = clock()

        def end() -> None:
            nonlocal last
            t = clock()
            self_s[cur] += t - last
            last = t

        self._call_in = call_in
        self.begin = begin
        self.end = end

    def _new_path(self, parent: int, layer: str) -> int:
        # Re-entering the current layer extends no path: a layer's calls
        # into itself are part of its own self time.
        if self._path_layer[parent] == layer:
            node = parent
        else:
            node = len(self.path_names)
            name = layer if parent == 0 else f"{self.path_names[parent]}>{layer}"
            self.path_names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
            self._path_layer.append(layer)
            self._children.append({})
        self._children[parent][layer] = node
        return node

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        call_in = self._call_in
        count = self._method_calls.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            return call_in(layer, fn, args, kwargs)

        return wrapper

    def _patch(self, owner: Any, attr: str, layer: str, name: str) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, layer, name))

    def install(self) -> None:
        """Wrap the cross-layer methods and functions listed above."""
        for cls, names in METHOD_TARGETS:
            layer = layer_of(cls.__module__)
            for attr in names:
                if attr in cls.__dict__:
                    self._patch(cls, attr, layer, f"{cls.__name__}.{attr}")
        for cls in MAC_CLASSES:
            for attr in sorted(cls.__dict__):
                if attr.startswith(_MAC_PREFIXES) and callable(cls.__dict__[attr]):
                    self._patch(cls, attr, "mac", f"{cls.__name__}.{attr}")
        for module_name, attr in FUNCTION_TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, layer_of(module_name), attr)
            for name, module in list(sys.modules.items()):
                if name.startswith("repro") and getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Undo :meth:`install` (and nothing else)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def attach_sim(self, sim: Any) -> None:
        """Trace one simulator: its run loop and every callback it dispatches.

        Scheduling is a ``sim`` crossing; the callback is wrapped into a
        dispatch that charges it to the layer owning the callback.
        """
        call_in = self._call_in
        layer_for = self._layer_for
        schedule, schedule_at = sim.schedule, sim.schedule_at

        def dispatch(layer: str, callback: Callable, *args: Any) -> Any:
            return call_in(layer, callback, args, _NO_KWARGS)

        def traced_schedule(delay: float, callback: Callable, *args: Any):
            return schedule(delay, dispatch, layer_for(callback), callback, *args)

        def traced_schedule_at(when: float, callback: Callable, *args: Any):
            return schedule_at(when, dispatch, layer_for(callback), callback, *args)

        sim.schedule = self._wrap(traced_schedule, "sim", "sim.schedule")
        sim.schedule_at = self._wrap(traced_schedule_at, "sim", "sim.schedule_at")
        sim.run = self._wrap(sim.run, "sim", "sim.run")

    def _layer_for(self, callback: Callable) -> str:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process):
            frame = owner.generator.gi_frame
            module = frame.f_globals.get("__name__") if frame is not None else None
        else:
            module = getattr(callback, "__module__", None)
        layer = self._module_layers.get(module)
        if layer is None:
            layer = self._module_layers[module] = layer_of(module)
        return layer

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def method_calls(self, name: str) -> int:
        """Calls made to one wrapped method, e.g. ``Radio.on_transmission_start``."""
        return self._method_calls.get(name, [0])[0]

    def paths(self) -> Dict[str, Dict[str, float]]:
        """Self seconds and calls of every layer path seen."""
        return {
            name: {"self_s": self.self_s[i], "calls": self.calls[i]}
            for i, name in enumerate(self.path_names)
        }

    def layer_totals(self) -> Dict[str, Tuple[float, int]]:
        """(self seconds, calls) of each layer, summed over its paths."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for i, layer in enumerate(self._path_layer):
            totals[layer][0] += self.self_s[i]
            totals[layer][1] += self.calls[i]
        return {layer: (s, int(c)) for layer, (s, c) in totals.items()}
