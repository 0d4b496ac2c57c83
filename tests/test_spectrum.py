"""Tests for the 2.4 GHz spectrum model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phy.spectrum import (
    Band,
    ble_channel,
    overlap_fraction,
    overlapping_zigbee_channels,
    wifi_channel,
    zigbee_channel,
)


def test_wifi_channel_centers():
    assert wifi_channel(1).center_mhz == 2412.0
    assert wifi_channel(6).center_mhz == 2437.0
    assert wifi_channel(11).center_mhz == 2462.0
    assert wifi_channel(13).center_mhz == 2472.0
    assert wifi_channel(14).center_mhz == 2484.0


def test_zigbee_channel_centers():
    assert zigbee_channel(11).center_mhz == 2405.0
    assert zigbee_channel(24).center_mhz == 2470.0
    assert zigbee_channel(26).center_mhz == 2480.0


def test_unknown_channels_raise():
    with pytest.raises(ValueError):
        wifi_channel(15)
    with pytest.raises(ValueError):
        zigbee_channel(10)
    with pytest.raises(ValueError):
        ble_channel(40)


def test_paper_channel_pairs_overlap():
    """The paper pairs Wi-Fi 11 with ZigBee 24 and Wi-Fi 13 with ZigBee 26."""
    assert zigbee_channel(24).overlaps(wifi_channel(11))
    assert zigbee_channel(26).overlaps(wifi_channel(13))
    assert 24 in overlapping_zigbee_channels(11)
    assert 26 in overlapping_zigbee_channels(13)


def test_non_overlapping_pair():
    # ZigBee channel 26 (2480) is outside Wi-Fi channel 1 (2402-2422).
    assert not zigbee_channel(26).overlaps(wifi_channel(1))
    assert overlap_fraction(zigbee_channel(26), wifi_channel(1)) == 0.0


def test_zigbee_into_wifi_captures_everything():
    """A 2 MHz ZigBee signal inside a 20 MHz Wi-Fi filter is fully captured."""
    fraction = overlap_fraction(zigbee_channel(24), wifi_channel(11))
    assert fraction == pytest.approx(1.0)


def test_wifi_into_zigbee_captures_ten_percent():
    """A ZigBee filter slices 2/20 of the Wi-Fi power: the -10 dB asymmetry."""
    fraction = overlap_fraction(wifi_channel(11), zigbee_channel(24))
    assert fraction == pytest.approx(0.1)


def test_partial_overlap_fraction():
    a = Band(center_mhz=2450.0, bandwidth_mhz=20.0)  # 2440-2460
    b = Band(center_mhz=2458.0, bandwidth_mhz=4.0)  # 2456-2460
    assert a.overlapped_mhz(b) == pytest.approx(4.0)
    assert overlap_fraction(a, b) == pytest.approx(4.0 / 20.0)
    assert overlap_fraction(b, a) == pytest.approx(1.0)


def test_band_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        Band(center_mhz=2412.0, bandwidth_mhz=0.0)


@given(
    c1=st.floats(min_value=2400, max_value=2480),
    w1=st.floats(min_value=1, max_value=40),
    c2=st.floats(min_value=2400, max_value=2480),
    w2=st.floats(min_value=1, max_value=40),
)
def test_overlap_fraction_bounds_and_symmetric_overlap(c1, w1, c2, w2):
    a, b = Band(c1, w1), Band(c2, w2)
    assert 0.0 <= overlap_fraction(a, b) <= 1.0
    assert a.overlapped_mhz(b) == pytest.approx(b.overlapped_mhz(a))
    assert a.overlaps(b) == b.overlaps(a)


@given(c=st.floats(min_value=2400, max_value=2480), w=st.floats(min_value=1, max_value=40))
def test_band_fully_overlaps_itself(c, w):
    band = Band(c, w)
    assert overlap_fraction(band, band) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "band",
    [wifi_channel(11), zigbee_channel(24), ble_channel(7), Band(2458.0, 60.0), Band(2400.1, 0.3)],
)
def test_band_edges_are_exact_across_replace_deepcopy_and_pickle(band):
    import copy
    import dataclasses
    import pickle

    edges = (
        band.center_mhz - band.bandwidth_mhz / 2.0,
        band.center_mhz + band.bandwidth_mhz / 2.0,
        band.bandwidth_mhz * 1e6,
    )
    copies = [
        band,
        dataclasses.replace(band),
        copy.deepcopy(band),
        copy.copy(band),
        pickle.loads(pickle.dumps(band)),
    ]
    for other in copies:
        assert (other.low_mhz, other.high_mhz, other.bandwidth_hz) == edges
        assert other == band and hash(other) == hash(band)
    moved = dataclasses.replace(band, center_mhz=band.center_mhz + 5.0)
    assert moved.low_mhz == (band.center_mhz + 5.0) - band.bandwidth_mhz / 2.0
    assert moved.high_mhz == (band.center_mhz + 5.0) + band.bandwidth_mhz / 2.0
    assert [f.name for f in dataclasses.fields(band)] == ["center_mhz", "bandwidth_mhz"]
    assert repr(band) == (
        f"Band(center_mhz={band.center_mhz!r}, bandwidth_mhz={band.bandwidth_mhz!r})"
    )
