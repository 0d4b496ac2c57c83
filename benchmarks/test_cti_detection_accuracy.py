"""Sec. VII-A — accuracy of CTI detection and Wi-Fi device identification.

Paper: 96.39% average accuracy detecting Wi-Fi among RSSI segments from all
technologies; 89.76% (+-2.14) identifying which Wi-Fi device transmits.
"""

import numpy as np

from repro.experiments import (
    CtiTrialConfig,
    DeviceIdTrialConfig,
    format_table,
    run_cti_accuracy,
    run_device_identification,
)

from .conftest import scaled


def test_cti_detection_accuracy(benchmark, emit):
    def run():
        n_traces = scaled(60, minimum=30)
        cti = run_cti_accuracy(CtiTrialConfig(n_traces=n_traces), seed=0)
        device_accs = [
            run_device_identification(
                DeviceIdTrialConfig(n_traces=n_traces), seed=seed
            ).accuracy
            for seed in range(scaled(4, minimum=2))
        ]
        return cti, device_accs

    cti, device_accs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["Wi-Fi detection accuracy", cti.wifi_detection_accuracy, 0.9639],
        ["multiclass interferer accuracy", cti.multiclass_accuracy, float("nan")],
        ["device identification (mean)", float(np.mean(device_accs)), 0.8976],
        ["device identification (std)", float(np.std(device_accs)), 0.0214],
    ]
    emit(
        "cti_detection_accuracy",
        format_table(["metric", "measured", "paper"], rows,
                     title="Sec. VII-A: CTI detection accuracy"),
    )
    assert cti.wifi_detection_accuracy > 0.9
    assert np.mean(device_accs) > 0.7
