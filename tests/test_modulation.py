"""Tests for BER/PER models and frame durations."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phy import modulation
from repro.phy.modulation import (
    WIFI_RATES,
    ber_gfsk,
    ber_oqpsk_dsss,
    ble_frame_duration,
    packet_success_probability,
    wifi_frame_duration,
    wifi_rate,
    zigbee_frame_duration,
)
from repro.sim.units import db_to_linear


# ----------------------------------------------------------------------
# BER curves
# ----------------------------------------------------------------------
@given(st.floats(min_value=-30.0, max_value=30.0))
def test_oqpsk_ber_bounds(sinr_db):
    ber = ber_oqpsk_dsss(sinr_db)
    assert 0.0 <= ber <= 0.5


def test_oqpsk_ber_monotonic_decreasing():
    points = [ber_oqpsk_dsss(s) for s in range(-10, 11)]
    assert all(a >= b for a, b in zip(points, points[1:]))


def test_oqpsk_spreading_gain_region():
    """O-QPSK/DSSS decodes around 0..3 dB SINR and fails well below."""
    assert ber_oqpsk_dsss(3.0) < 1e-4  # essentially error-free
    assert ber_oqpsk_dsss(-10.0) > 0.1  # hopeless


def test_wifi_rate_ber_ordering_at_fixed_sinr():
    """Faster rates need more SINR: at 10 dB, 54 Mbps is worse than 6 Mbps."""
    ber6 = wifi_rate(6.0).ber(10.0)
    ber54 = wifi_rate(54.0).ber(10.0)
    assert ber6 < ber54


@given(st.sampled_from(sorted(WIFI_RATES)), st.floats(min_value=-10, max_value=40))
def test_wifi_ber_bounds(mbps, sinr_db):
    ber = wifi_rate(mbps).ber(sinr_db)
    assert 0.0 <= ber <= 0.5


def test_wifi_ber_monotonic_in_sinr():
    rate = wifi_rate(24.0)
    points = [rate.ber(float(s)) for s in range(-5, 30)]
    assert all(a >= b - 1e-15 for a, b in zip(points, points[1:]))


def test_unknown_wifi_rate_raises():
    with pytest.raises(ValueError):
        wifi_rate(33.0)  # not an 802.11b/g rate


def test_dsss_rates_available():
    """802.11b rates exist and their durations follow the long-preamble PLCP."""
    from repro.phy.modulation import wifi_frame_duration as dur

    assert dur(100, wifi_rate(1.0)) == pytest.approx(192e-6 + 800e-6)
    assert dur(100, wifi_rate(11.0)) == pytest.approx(192e-6 + 800e-6 / 11.0)


def test_dsss_processing_gain():
    """1 Mbps DSSS decodes at channel SINRs far below what OFDM needs."""
    assert wifi_rate(1.0).ber(-5.0) < 1e-3  # 20x despreading gain
    assert wifi_rate(54.0).ber(-5.0) > 0.1
    # And within DSSS, slower is more robust.
    assert wifi_rate(1.0).ber(-8.0) < wifi_rate(11.0).ber(-8.0)


def test_gfsk_ber_behaviour():
    assert ber_gfsk(-20.0) == pytest.approx(0.5, abs=0.01)
    assert ber_gfsk(20.0) < 1e-10
    points = [ber_gfsk(float(s)) for s in range(-10, 20)]
    assert all(a >= b for a, b in zip(points, points[1:]))


# ----------------------------------------------------------------------
# BER curves against their full formulas (and scipy's erfc, when installed)
# ----------------------------------------------------------------------
def _reference_dsss(sinr_db):
    """The DSSS formula term by term, every exponent tested against -700."""
    sinr = db_to_linear(sinr_db)
    total = 0.0
    for k in range(2, 17):
        sign = 1.0 if k % 2 == 0 else -1.0
        exponent = 20.0 * sinr * (1.0 / k - 1.0)
        if exponent > -700.0:
            total += sign * math.comb(16, k) * math.exp(exponent)
    ber = (8.0 / 15.0) * (1.0 / 16.0) * total
    return min(max(ber, 0.0), 0.5)


def _q_function(x, erfc=math.erfc):
    return 0.5 * erfc(x / math.sqrt(2.0))


def _reference_ber_uncoded(modulation_kind, snr_per_bit, erfc=math.erfc):
    """The constellation BERs written out from their Q-function forms."""
    kinds = modulation.WifiModulation
    if snr_per_bit <= 0.0:
        return 0.5
    if modulation_kind is kinds.BPSK or modulation_kind is kinds.QPSK:
        return _q_function(math.sqrt(2.0 * snr_per_bit), erfc)
    if modulation_kind is kinds.QAM16:
        return (3.0 / 8.0) * erfc(math.sqrt(0.4 * snr_per_bit))
    return (7.0 / 24.0) * erfc(math.sqrt(snr_per_bit / 7.0))


def _grid(low_db, high_db):
    """SINRs from ``low_db`` to ``high_db`` in 0.001 dB steps."""
    steps = round((high_db - low_db) * 1000)
    return [low_db + i / 1000.0 for i in range(steps + 1)]


def test_dsss_ber_equals_full_formula_across_the_cutoff():
    """The exponent cutoff moves from k = 16 to k = 2 between 15.7 and 18.5 dB."""
    grid = _grid(15.0, 19.0) + _grid(-5.0, 5.0)[::7]
    assert all(ber_oqpsk_dsss(s) == _reference_dsss(s) for s in grid)
    assert ber_oqpsk_dsss(19.0) == 0.0 and _reference_dsss(15.0) > 0.0


@pytest.mark.parametrize("mbps", sorted(WIFI_RATES))
def test_wifi_ber_equals_full_formula_across_erfc_underflow(monkeypatch, mbps):
    """Every rate's BER, 1 dB either side of the SINR where erfc underflows
    to exactly 0.0."""
    rate = wifi_rate(mbps)
    with monkeypatch.context() as patched:
        patched.setattr(modulation, "_ber_uncoded", _reference_ber_uncoded)
        low, high = -10.0, 80.0
        assert rate.ber(low) > 0.0 and rate.ber(high) == 0.0
        while high - low > 1e-6:  # the lowest SINR with an exact-zero BER
            mid = (low + high) / 2.0
            low, high = (low, mid) if rate.ber(mid) == 0.0 else (mid, high)
        grid = _grid(round(high, 3) - 1.0, round(high, 3) + 1.0)
        expected = [rate.ber(s) for s in grid]
    assert [rate.ber(s) for s in grid] == expected
    assert expected[0] > 0.0 and expected[-1] == 0.0


#: The OFDM rates' coding gains and bits per subcarrier, restated here so
#: the constants a ``WifiRate`` works out once are checked against the rule.
_OFDM_GAIN_DB = {"1/2": 5.0, "2/3": 4.0, "3/4": 3.5}
_OFDM_BITS = {"bpsk": 1, "qpsk": 2, "qam16": 4, "qam64": 6}


@pytest.mark.parametrize(
    "mbps", sorted(m for m, r in WIFI_RATES.items() if r.kind is modulation.WifiPhyKind.OFDM)
)
def test_ofdm_ber_equals_its_formula_on_the_grid(mbps):
    """Per-rate constants leave every OFDM BER bit for bit as the formula."""
    rate = wifi_rate(mbps)
    gain = _OFDM_GAIN_DB[rate.code_rate]
    bits = _OFDM_BITS[rate.modulation.value]
    grid = _grid(-10.0, 45.0)
    expected = [
        min(_reference_ber_uncoded(rate.modulation, db_to_linear(s + gain) / bits), 0.5)
        for s in grid
    ]
    assert [rate.ber(s) for s in grid] == expected
    assert expected[0] > 0.0 and expected[-1] == 0.0


@pytest.mark.parametrize("mbps", sorted(WIFI_RATES))
def test_wifi_ber_agrees_with_scipy_erfc_on_the_grid(monkeypatch, mbps):
    """``math.erfc`` and scipy's cephes ``erfc`` differ only in the last
    bits: every rate's BER is within 1e-12 relative of the scipy formula on
    the -10..45 dB grid, wherever scipy's BER is a normal float."""
    scipy_special = pytest.importorskip("scipy.special")

    def scipy_erfc(x):
        return float(scipy_special.erfc(x))

    rate = wifi_rate(mbps)
    grid = _grid(-10.0, 45.0)
    with monkeypatch.context() as patched:
        patched.setattr(
            modulation,
            "_ber_uncoded",
            lambda kind, snr: _reference_ber_uncoded(kind, snr, scipy_erfc),
        )
        expected = [rate.ber(s) for s in grid]
    actual = [rate.ber(s) for s in grid]
    compared = [(a, e) for a, e in zip(actual, expected) if e >= sys.float_info.min]
    assert len(compared) > len(grid) // 4
    assert all(abs(a - e) <= 1e-12 * e for a, e in compared)


# ----------------------------------------------------------------------
# Zero-BER cutoffs
# ----------------------------------------------------------------------
#: (BER function, its cutoff) for every rate and technology.
_CUTOFFS = {
    **{f"wifi-{mbps:g}": (rate.ber, rate.ber_zero_sinr_db) for mbps, rate in WIFI_RATES.items()},
    "dsss": (ber_oqpsk_dsss, modulation.DSSS_BER_ZERO_SINR_DB),
    "gfsk": (ber_gfsk, modulation.GFSK_BER_ZERO_SINR_DB),
}


def _floats_around(x, n):
    """``x`` and the ``n`` floats on each side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


@pytest.mark.parametrize("name", sorted(_CUTOFFS))
def test_ber_is_zero_from_its_cutoff_and_positive_one_float_below(name):
    ber, cutoff = _CUTOFFS[name]
    assert ber(cutoff) == 0.0
    assert ber(math.nextafter(cutoff, -math.inf)) > 0.0


@pytest.mark.parametrize("name", sorted(_CUTOFFS))
def test_ber_is_zero_exactly_at_and_above_its_cutoff(name):
    """``sinr >= cutoff`` iff the BER is 0.0, on a 10^5-point sweep over
    -50..100 dB and on the 64 floats either side of the cutoff."""
    ber, cutoff = _CUTOFFS[name]
    sinrs = np.linspace(-50.0, 100.0, 100_000).tolist() + _floats_around(cutoff, 64)
    assert [sinr >= cutoff for sinr in sinrs] == [ber(sinr) == 0.0 for sinr in sinrs]


def test_ber_zero_cutoff_is_the_least_zero_float():
    """On a step function the cutoff is the step, to the float."""
    step = 3.25
    assert modulation.ber_zero_cutoff(lambda s: 0.0 if s >= step else 0.1) == step
    with pytest.raises(ValueError):
        modulation.ber_zero_cutoff(lambda s: 0.1)


# ----------------------------------------------------------------------
# Packet success probability
# ----------------------------------------------------------------------
@given(
    ber=st.floats(min_value=0.0, max_value=0.5),
    n_bits=st.integers(min_value=0, max_value=20000),
)
def test_packet_success_bounds(ber, n_bits):
    p = packet_success_probability(ber, n_bits)
    assert 0.0 <= p <= 1.0


def test_packet_success_extremes():
    assert packet_success_probability(0.0, 1000) == 1.0
    assert packet_success_probability(1.0, 10) == 0.0
    assert packet_success_probability(0.1, 0) == 1.0


def test_packet_success_matches_direct_formula():
    assert packet_success_probability(1e-3, 800) == pytest.approx((1 - 1e-3) ** 800)


def test_packet_success_monotonic_in_length():
    p_short = packet_success_probability(1e-3, 100)
    p_long = packet_success_probability(1e-3, 1000)
    assert p_long < p_short


# ----------------------------------------------------------------------
# Durations
# ----------------------------------------------------------------------
def test_zigbee_duration_reference():
    # SHR+PHR = 6 bytes = 192 us, then 32 us per MPDU byte.
    assert zigbee_frame_duration(0) == pytest.approx(192e-6)
    assert zigbee_frame_duration(61) == pytest.approx(192e-6 + 61 * 32e-6)


def test_zigbee_50byte_packet_airtime_matches_paper_arithmetic():
    """Sec. III: ~20 ms fits 3 consecutive 50 B packets with ACK.

    One 50 B-payload frame (61 B MPDU) lasts ~2.14 ms; with ACK (5 B MPDU,
    ~0.35 ms), two turnarounds and CSMA overhead, one exchange is roughly
    3-6 ms, so roughly 3 exchanges fit in 20 ms.
    """
    data = zigbee_frame_duration(61)
    ack = zigbee_frame_duration(5)
    exchange = data + ack + 2 * 192e-6 + 2.0e-3  # turnarounds + typical backoff
    assert 3 * exchange < 20e-3 < 5 * exchange


def test_wifi_duration_reference():
    # 100 B at 24 Mbps: 16+4 us preamble + ceil((16+800+6)/96)=9 symbols.
    rate = wifi_rate(24.0)
    assert wifi_frame_duration(100, rate) == pytest.approx(20e-6 + 9 * 4e-6)


def test_wifi_duration_monotonic_in_size_and_rate():
    slow, fast = wifi_rate(6.0), wifi_rate(54.0)
    assert wifi_frame_duration(500, slow) > wifi_frame_duration(500, fast)
    assert wifi_frame_duration(1000, fast) > wifi_frame_duration(100, fast)


def test_ble_duration_reference():
    # 40 us header + (pdu+3 CRC)*8 bits at 1 us/bit.
    assert ble_frame_duration(37) == pytest.approx(40e-6 + 40 * 8e-6)


def test_negative_sizes_raise():
    with pytest.raises(ValueError):
        zigbee_frame_duration(-1)
    with pytest.raises(ValueError):
        wifi_frame_duration(-1, wifi_rate(6.0))
    with pytest.raises(ValueError):
        ble_frame_duration(-1)


@given(st.integers(min_value=0, max_value=2000))
def test_wifi_duration_symbol_aligned(nbytes):
    duration = wifi_frame_duration(nbytes, wifi_rate(24.0))
    symbols = (duration - 20e-6) / 4e-6
    assert symbols == pytest.approx(round(symbols))


def test_rate_airtime_equals_wifi_frame_duration():
    """Every rate, every MPDU size up to the 802.11 maximum of 2346 B."""
    sizes = range(2347)
    for rate in WIFI_RATES.values():
        expected = [wifi_frame_duration(n, rate) for n in sizes]
        assert [rate.airtime(n) for n in sizes] == expected
        assert [rate.airtime(n) for n in sizes] == expected  # memoized


def test_wifi_rate_constants_stay_out_of_equality_and_copies():
    import copy
    import dataclasses
    import pickle

    rate = wifi_rate(24.0)
    rate.airtime(100)
    for other in (
        copy.deepcopy(rate),
        pickle.loads(pickle.dumps(rate)),
        dataclasses.replace(rate),
    ):
        assert other == rate and hash(other) == hash(rate)
        assert other.airtime(100) == rate.airtime(100)
        assert other.ber(12.3) == rate.ber(12.3)
    assert [f.name for f in dataclasses.fields(rate)] == [
        "mbps", "modulation", "code_rate", "bits_per_symbol", "kind",
    ]
