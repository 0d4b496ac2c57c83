"""Sec. VII-B — energy cost of BiCord on ZigBee nodes.

Paper: delivering ten 120 B packets per burst under strong Wi-Fi costs
BiCord 10-21% more energy than sending them on a clear channel — less than
two interference-induced retransmissions would cost — because a salvo is
usually just one or two control packets and the learned white space removes
repeated signaling.
"""

from repro.devices.energy import RX_CURRENT_MA, SUPPLY_VOLTAGE, tx_current_ma
from repro.experiments import EnergyTrialConfig, format_table, run_energy_trial
from repro.mac.frames import zigbee_data_frame

from .conftest import scaled


def test_energy_overhead(benchmark, emit):
    result = benchmark.pedantic(
        lambda: run_energy_trial(
            EnergyTrialConfig(
                n_packets=10, payload_bytes=120, n_bursts=scaled(8, minimum=4)
            ),
            seed=1,
        ),
        rounds=1, iterations=1,
    )
    # Cost of one interference-induced retransmission of a 120 B data packet.
    retx_mj = (
        zigbee_data_frame("ZS", "ZR", 120).duration()
        * tx_current_ma(0.0) * SUPPLY_VOLTAGE
        + 1e-3 * RX_CURRENT_MA * SUPPLY_VOLTAGE  # ACK wait
    )
    rows = [
        ["BiCord under Wi-Fi (mJ)", result.bicord_mj],
        ["clear channel (mJ)", result.clear_channel_mj],
        ["overhead (%)", result.overhead_fraction * 100.0],
        ["control packets sent", float(result.control_packets)],
        ["2 retransmissions equivalent (mJ)", 2 * retx_mj * 8],
    ]
    emit(
        "energy_overhead",
        format_table(["metric", "value"], rows,
                     title="Sec. VII-B: energy overhead (paper: 10-21%)",
                     float_format="{:.2f}"),
    )
    assert 0.0 < result.overhead_fraction < 0.8
