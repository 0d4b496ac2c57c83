"""Tests for packet-level FEC: the code itself and the CSMA+FEC node."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FecCsmaNode
from repro.core.fec import FecBlock, FecDecoder, FecEncoder
from repro.traffic import Burst, WifiPacketSource, ZigbeeBurstSource

from .helpers import office_devices


# ----------------------------------------------------------------------
# Coding logic
# ----------------------------------------------------------------------
def test_encoder_basic():
    block = FecEncoder(2).encode(6, burst_id=1)
    assert block.k == 6 and block.m == 2
    assert block.total_packets == 8
    assert block.group_members(0) == [0, 2, 4]
    assert block.group_members(1) == [1, 3, 5]


def test_parity_never_exceeds_data():
    block = FecEncoder(5).encode(2)
    assert block.m == 2


def test_encoder_validation():
    with pytest.raises(ValueError):
        FecEncoder(-1)
    with pytest.raises(ValueError):
        FecEncoder(1).encode(0)


def test_decoder_no_loss_complete():
    decoder = FecDecoder(FecEncoder(1).encode(4))
    for i in range(4):
        decoder.receive_data(i)
    assert decoder.complete
    assert decoder.delivered_count() == 4


def test_decoder_recovers_single_loss_per_group():
    decoder = FecDecoder(FecEncoder(1).encode(4))
    for i in (0, 1, 3):
        decoder.receive_data(i)
    decoder.receive_parity(0)
    assert decoder.missing_after_recovery() == []
    assert decoder.complete


def test_decoder_cannot_recover_double_loss_in_one_group():
    decoder = FecDecoder(FecEncoder(1).encode(4))
    decoder.receive_data(0)
    decoder.receive_data(1)  # lost: 2 and 3, same (single) parity group
    decoder.receive_parity(0)
    assert sorted(decoder.missing_after_recovery()) == [2, 3]


def test_decoder_two_groups_recover_two_losses():
    decoder = FecDecoder(FecEncoder(2).encode(6))
    for i in (0, 1, 2, 3):  # lost: 4 (group 0) and 5 (group 1)
        decoder.receive_data(i)
    decoder.receive_parity(0)
    decoder.receive_parity(1)
    assert decoder.complete


def test_decoder_index_validation():
    decoder = FecDecoder(FecEncoder(1).encode(3))
    with pytest.raises(IndexError):
        decoder.receive_data(3)
    with pytest.raises(IndexError):
        decoder.receive_parity(1)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=12),
    m=st.integers(min_value=0, max_value=4),
    lost=st.sets(st.integers(min_value=0, max_value=11)),
)
def test_recovery_never_exceeds_one_per_group(k, m, lost):
    block = FecEncoder(m).encode(k)
    decoder = FecDecoder(block)
    lost = {i for i in lost if i < k}
    for i in range(k):
        if i not in lost:
            decoder.receive_data(i)
    for j in range(block.m):
        decoder.receive_parity(j)
    missing = decoder.missing_after_recovery()
    if block.m == 0:
        assert set(missing) == lost  # no parity, no recovery
        return
    # Everything missing must come from groups that lost >= 2 packets.
    for index in missing:
        group = block.parity_group(index)
        lost_in_group = [i for i in lost if block.parity_group(i) == group]
        assert len(lost_in_group) >= 2
    # And recovery never invents packets.
    assert set(missing).issubset(lost)


# ----------------------------------------------------------------------
# The CSMA+FEC node
# ----------------------------------------------------------------------
def test_fec_node_clean_channel_everything_arrives():
    office = office_devices(seed=1, location="A")
    node = FecCsmaNode(office.zigbee_sender, "ZR", n_parity=1)
    node.offer_burst(Burst(created_at=0.0, n_packets=5, payload_bytes=50, burst_id=1))
    office.ctx.sim.run(until=1.0)
    assert node.packets_delivered == 5
    assert node.packets_recovered == 0
    assert node.bursts_completed == 1
    assert node.parity_sent == 1


def test_fec_recovers_under_mild_interference():
    """Sparse Wi-Fi (20 ms spacing) and a weak ZigBee link: losses are
    occasional (a Wi-Fi frame overlapping the weak data frame kills it),
    and FEC repairs a good share of them."""
    from repro.experiments.topology import Calibration

    office = office_devices(
        seed=4, location="A",
        calibration=Calibration(zigbee_data_power_dbm=-25.0),
    )
    cal = office.calibration
    WifiPacketSource(office.ctx, office.wifi_sender.mac, "F",
                     payload_bytes=cal.wifi_payload_bytes, interval=20e-3)
    node = FecCsmaNode(office.zigbee_sender, "ZR", n_parity=2, app_retries=0)
    ZigbeeBurstSource(office.ctx, node.offer_burst, n_packets=8, payload_bytes=50,
                      interval_mean=0.2, poisson=False, max_bursts=20)
    office.ctx.sim.run(until=5.0)
    while node.outstanding_packets and office.ctx.sim.now < 20.0:
        office.ctx.sim.run(until=office.ctx.sim.now + 0.5)
    total = node.packets_delivered + node.packets_recovered + node.packets_lost
    assert total == 160
    assert node.effective_delivered > node.packets_delivered  # FEC earned its keep


def test_fec_useless_under_saturated_wifi():
    """The paper's argument: when the channel is owned by Wi-Fi, recovery
    schemes cannot help — coordination is required."""
    office = office_devices(seed=5, location="A")
    cal = office.calibration
    WifiPacketSource(office.ctx, office.wifi_sender.mac, "F",
                     payload_bytes=cal.wifi_payload_bytes,
                     interval=cal.wifi_interval)
    node = FecCsmaNode(office.zigbee_sender, "ZR", n_parity=2, app_retries=1)
    ZigbeeBurstSource(office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
                      interval_mean=0.25, poisson=False, max_bursts=8)
    office.ctx.sim.run(until=4.0)
    while node.outstanding_packets and office.ctx.sim.now < 20.0:
        office.ctx.sim.run(until=office.ctx.sim.now + 0.5)
    total = node.packets_delivered + node.packets_recovered + node.packets_lost
    assert total == 40
    assert node.effective_delivered / total < 0.3
