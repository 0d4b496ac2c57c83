"""The coordination-scheme table: one entry per scheme the paper compares.

BiCord's evaluation (Figs. 10-13) runs five coordination schemes on the
same deployments.  Each is one :class:`Scheme` in :data:`SCHEMES`: how to
build the Wi-Fi-side coordinator (if the scheme has one) and a ZigBee
link's protocol node, whether the coordinator consumes CSI, and whether it
honors a Wi-Fi priority grant policy (Sec. VIII-G).  The scenario
compiler, the experiment runners, spec validation and the CLI all read
this table, so adding a scheme is adding one entry here.

Factories receive the scenario's ``CoordinatorSpec`` as ``spec`` and read
``spec.bicord`` (the BiCord config), ``spec.ecc_whitespace`` and
``spec.ecc_period``.  This module imports only ``core``, ``baselines`` and
``devices``, so ``repro.experiments`` and ``repro.scenarios`` can both
import it at load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from .baselines import (
    CsmaNode,
    EccCoordinator,
    EccNode,
    PredictiveNode,
    SlowCtcCoordinator,
    SlowCtcNode,
)
from .core import BicordCoordinator, BicordNode, PowerMap
from .devices import WifiDevice, ZigbeeDevice

#: ``(observer, spec, grant_policy) -> coordinator``; ``observer`` is the
#: Wi-Fi receiver hosting it, ``grant_policy`` is ``None`` or a zero-arg
#: predicate that vetoes grants while it returns False.
CoordinatorFactory = Callable[[WifiDevice, Any, Optional[Callable[[], bool]]], Any]
#: ``(sender, receiver_name, coordinator, spec, powermap) -> node``.
NodeFactory = Callable[[ZigbeeDevice, str, Any, Any, PowerMap], Any]


@dataclass(frozen=True)
class Scheme:
    """How one coordination scheme is wired into a deployment."""

    name: str
    node: NodeFactory
    #: ``None``: the scheme has no Wi-Fi-side coordinator (csma, predictive).
    coordinator: Optional[CoordinatorFactory] = None
    #: The coordinator's Wi-Fi receiver needs a CSI observer.
    observes_csi: bool = False
    #: The coordinator accepts a grant policy (Wi-Fi priority, Sec. VIII-G).
    honors_priority: bool = False


def _ecc_node(sender, receiver, coordinator, spec, powermap):
    node = EccNode(sender, receiver)
    coordinator.register(node)
    return node


SCHEMES: Dict[str, Scheme] = {
    scheme.name: scheme
    for scheme in (
        Scheme(
            "bicord",
            node=lambda sender, receiver, coordinator, spec, powermap: BicordNode(
                sender, receiver, config=spec.bicord, powermap=powermap
            ),
            coordinator=lambda observer, spec, grant_policy: BicordCoordinator(
                observer, config=spec.bicord, grant_policy=grant_policy
            ),
            observes_csi=True,
            honors_priority=True,
        ),
        Scheme(
            "ecc",
            node=_ecc_node,
            coordinator=lambda observer, spec, grant_policy: EccCoordinator(
                observer,
                whitespace=spec.ecc_whitespace,
                period=spec.ecc_period,
                grant_policy=grant_policy,
            ),
            honors_priority=True,
        ),
        Scheme(
            "csma",
            node=lambda sender, receiver, coordinator, spec, powermap: CsmaNode(
                sender, receiver
            ),
        ),
        Scheme(
            "predictive",
            node=lambda sender, receiver, coordinator, spec, powermap: PredictiveNode(
                sender, receiver
            ),
        ),
        Scheme(
            "slow-ctc",
            node=lambda sender, receiver, coordinator, spec, powermap: SlowCtcNode(
                sender, receiver, coordinator, config=spec.bicord
            ),
            coordinator=lambda observer, spec, grant_policy: SlowCtcCoordinator(
                observer, config=spec.bicord
            ),
        ),
    )
}


def scheme_names(honors_priority: bool = False) -> Tuple[str, ...]:
    """Registered scheme names; only priority-honoring ones when asked."""
    return tuple(
        name for name, scheme in SCHEMES.items()
        if scheme.honors_priority or not honors_priority
    )


def get_scheme(name: str, honors_priority: bool = False) -> Scheme:
    """The table entry for ``name``; ``ValueError`` names the valid choices."""
    names = scheme_names(honors_priority)
    if name not in names:
        kind = "priority-honoring scheme" if honors_priority else "scheme"
        raise ValueError(f"unknown {kind} {name!r}; expected one of {names}")
    return SCHEMES[name]
