"""Coordinator unit behaviours driven by synthetic CSI (no ZigBee node)."""

import pytest

from repro.core import BicordConfig, BicordCoordinator
from repro.phy.csi import CsiSample
from repro.traffic import WifiPacketSource

from .helpers import office_devices


def coordinator_setup(seed=1, config=None, grant_policy=None):
    office = office_devices(seed=seed, location="A")
    cal = office.calibration
    WifiPacketSource(
        office.ctx, office.wifi_sender.mac, "F",
        payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
    )
    coordinator = BicordCoordinator(
        office.wifi_receiver, config=config, grant_policy=grant_policy
    )
    return office, coordinator


def inject_detection(office, coordinator, at):
    """Force two high CSI samples through the detector at time ``at``."""

    def fire():
        coordinator.detector.observe(
            CsiSample(time=office.ctx.sim.now, deviation=0.9, zigbee_overlap=True)
        )
        coordinator.detector.observe(
            CsiSample(time=office.ctx.sim.now + 1e-4, deviation=0.9,
                      zigbee_overlap=True)
        )

    office.ctx.sim.schedule_at(at, fire)


def test_detection_triggers_exactly_one_grant():
    office, coordinator = coordinator_setup()
    inject_detection(office, coordinator, 0.05)
    office.ctx.sim.run(until=0.2)
    assert coordinator.grants_issued == 1
    assert coordinator.allocator.rounds_in_current_burst in (0, 1)


def test_detection_during_active_whitespace_is_ignored():
    office, coordinator = coordinator_setup()
    inject_detection(office, coordinator, 0.05)
    inject_detection(office, coordinator, 0.06)  # inside the 30 ms grant
    office.ctx.sim.run(until=0.2)
    assert coordinator.grants_issued == 1


def test_detection_after_whitespace_continues_burst():
    office, coordinator = coordinator_setup()
    inject_detection(office, coordinator, 0.05)
    # ~1 ms after the 30 ms white space ends: round 2 of the same burst.
    inject_detection(office, coordinator, 0.085)
    office.ctx.sim.run(until=0.2)
    assert coordinator.grants_issued == 2
    # Both grants belong to one burst -> the estimate updated once.
    assert coordinator.allocator.bursts_observed == 1
    assert coordinator.allocator.learning_iterations == 1


def test_silence_after_whitespace_ends_burst():
    office, coordinator = coordinator_setup()
    inject_detection(office, coordinator, 0.05)
    office.ctx.sim.run(until=0.3)
    assert coordinator.bursts_completed == 1
    assert coordinator.allocator.converged  # one-round burst


def test_policy_consulted_per_detection():
    calls = []

    def policy():
        calls.append(True)
        return False

    office, coordinator = coordinator_setup(grant_policy=policy)
    inject_detection(office, coordinator, 0.05)
    inject_detection(office, coordinator, 0.10)
    office.ctx.sim.run(until=0.2)
    assert coordinator.grants_issued == 0
    assert coordinator.requests_ignored == 2
    assert len(calls) == 2


def test_stop_cancels_timers():
    office, coordinator = coordinator_setup()
    inject_detection(office, coordinator, 0.05)
    office.ctx.sim.run(until=0.07)
    coordinator.stop()
    pending_before = office.ctx.sim.pending_count()
    office.ctx.sim.run(until=0.5)
    # No re-estimation keeps rescheduling itself after stop().
    assert coordinator._reestimation_event.cancelled


def test_whitespace_active_property():
    office, coordinator = coordinator_setup()
    inject_detection(office, coordinator, 0.05)
    states = {}
    office.ctx.sim.schedule_at(0.06, lambda: states.update(during=coordinator.whitespace_active))
    office.ctx.sim.schedule_at(0.15, lambda: states.update(after=coordinator.whitespace_active))
    office.ctx.sim.run(until=0.2)
    assert states["during"] is True
    assert states["after"] is False
