"""Tests for frame builders, sizes, and BER dispatch."""

import pytest

from repro.mac.frames import (
    BROADCAST,
    Frame,
    FrameType,
    WIFI_ACK_MPDU_BYTES,
    WIFI_MAC_OVERHEAD_BYTES,
    ZIGBEE_ACK_MPDU_BYTES,
    ZIGBEE_MAC_OVERHEAD_BYTES,
    wifi_ack_frame,
    wifi_cts_frame,
    wifi_data_frame,
    zigbee_ack_frame,
    zigbee_control_frame,
    zigbee_data_frame,
)
from repro.phy.medium import Technology
from repro.phy.modulation import WIFI_RATES, wifi_rate


def test_wifi_data_frame_sizes_and_bits():
    frame = wifi_data_frame("a", "b", 100, wifi_rate(24.0), created_at=1.5)
    assert frame.mpdu_bytes == 100 + WIFI_MAC_OVERHEAD_BYTES
    assert frame.bits == 8 * frame.mpdu_bytes
    assert frame.created_at == 1.5
    assert not frame.is_broadcast


def test_zigbee_data_frame_overhead():
    frame = zigbee_data_frame("a", "b", 50)
    assert frame.mpdu_bytes == 50 + ZIGBEE_MAC_OVERHEAD_BYTES
    assert frame.technology is Technology.ZIGBEE


def test_ack_frames_fixed_sizes():
    assert wifi_ack_frame("a", "b", wifi_rate(6.0)).mpdu_bytes == WIFI_ACK_MPDU_BYTES
    ack = zigbee_ack_frame("a", "b", acked_seq=7)
    assert ack.mpdu_bytes == ZIGBEE_ACK_MPDU_BYTES
    assert ack.meta["acked_seq"] == 7


def test_cts_frame_carries_nav_and_meta():
    cts = wifi_cts_frame("a", 0.03, wifi_rate(6.0), bicord=True)
    assert cts.frame_type is FrameType.CTS
    assert cts.is_broadcast
    assert cts.meta["nav_duration"] == 0.03
    assert cts.meta["bicord"] is True


def test_control_frame_total_size_is_the_mpdu():
    control = zigbee_control_frame("a", 120)
    assert control.mpdu_bytes == 120
    assert control.destination == BROADCAST
    assert control.payload_bytes == 120 - ZIGBEE_MAC_OVERHEAD_BYTES


def test_frame_ids_are_unique():
    a = zigbee_data_frame("x", "y", 10)
    b = zigbee_data_frame("x", "y", 10)
    assert a.frame_id != b.frame_id


def test_durations_dispatch_by_technology():
    z = zigbee_data_frame("a", "b", 50)
    w = wifi_data_frame("a", "b", 100, wifi_rate(1.0))
    assert z.duration() == pytest.approx((6 + 61) * 32e-6)
    assert w.duration() == pytest.approx(192e-6 + 8 * 128 / 1e6)


def test_wifi_frame_without_rate_has_no_duration():
    frame = Frame(FrameType.DATA, Technology.WIFI, "a", "b", mpdu_bytes=10)
    with pytest.raises(ValueError):
        frame.duration()


def test_ber_dispatch():
    z = zigbee_data_frame("a", "b", 50)
    w = wifi_data_frame("a", "b", 100, wifi_rate(24.0))
    assert 0.0 <= z.ber(0.0) <= 0.5
    assert 0.0 <= w.ber(0.0) <= 0.5
    # ZigBee's DSSS decodes at SINRs that kill 24 Mbps OFDM.
    assert z.ber(3.0) < w.ber(3.0)


def test_ber_is_a_python_float_for_every_rate_and_technology():
    frames = [wifi_data_frame("a", "b", 100, rate) for rate in WIFI_RATES.values()] + [
        zigbee_data_frame("a", "b", 50),
        Frame(FrameType.DATA, Technology.BLE, "a", "b", mpdu_bytes=20),
    ]
    for frame in frames:
        cutoff = frame.ber_zero_sinr_db
        for sinr in (-20.0, 0.0, 5.0, 12.5, 20.0, cutoff - 1.0, cutoff, 80.0):
            assert type(frame.ber(sinr)) is float
        assert frame.ber(cutoff) == 0.0 and frame.ber(cutoff - 1.0) > 0.0


def test_microwave_frames_have_no_models():
    frame = Frame(FrameType.DATA, Technology.MICROWAVE, "oven", "*", mpdu_bytes=1)
    with pytest.raises(ValueError):
        frame.duration()
    with pytest.raises(ValueError):
        frame.ber(0.0)
