"""Wi-Fi transmitter identification from RSSI fingerprints (Sec. VII-A).

Once the activity is known to be Wi-Fi, the ZigBee node must tell *which*
transmitter it is, because the right signaling power depends on the
transmitter (PowerMap).  Following Smoggy-Link, four finer-grained features
form a per-device fingerprint:

* **energy span** — range between the strongest and weakest busy samples;
* **energy level** — mean busy-sample RSSI (dominated by path loss, hence by
  *which* device is transmitting from *where*);
* **energy variance** — variance of busy-sample RSSI;
* **occupancy level** — fraction of time the channel is busy (reflects the
  device's traffic intensity).

Fingerprints are clustered with L1 k-means (Manhattan distance, per the
paper); at runtime a new trace is assigned to the nearest cluster center.
Features are standardized before clustering so the dBm-scaled features do
not drown the occupancy fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..ml.kmeans import KMeans
from ..phy.rssi import RssiTrace


@dataclass(frozen=True)
class Fingerprint:
    """The four Smoggy-Link features of one trace."""

    energy_span: float  # dB
    energy_level: float  # dBm
    energy_variance: float  # dB^2
    occupancy_level: float  # fraction in [0, 1]

    def as_vector(self) -> List[float]:
        return [
            self.energy_span,
            self.energy_level,
            self.energy_variance,
            self.occupancy_level,
        ]


def extract_fingerprint(
    trace: RssiTrace,
    noise_floor_dbm: float,
    busy_margin_db: float = 8.0,
) -> Fingerprint:
    """Compute the fingerprint of one RSSI trace."""
    samples = np.asarray(trace.samples_dbm, dtype=float)
    busy = samples >= noise_floor_dbm + busy_margin_db
    occupancy = float(busy.mean())
    busy_samples = samples[busy]
    if len(busy_samples) == 0:
        return Fingerprint(0.0, noise_floor_dbm, 0.0, 0.0)
    span = float(busy_samples.max() - busy_samples.min())
    level = float(busy_samples.mean())
    variance = float(busy_samples.var())
    return Fingerprint(span, level, variance, occupancy)


class DeviceIdentifier:
    """Clusters fingerprints into per-transmitter groups and labels new ones."""

    def __init__(self, n_devices: int, rng: Optional[np.random.Generator] = None):
        if n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        self.n_devices = n_devices
        self._kmeans = KMeans(n_devices, rng=rng)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        assert self._mean is not None and self._std is not None
        return (X - self._mean) / self._std

    def fit(self, fingerprints: Sequence[Fingerprint]) -> np.ndarray:
        """Cluster a training set; returns the cluster label of each input.

        Features are standardized robustly (median / MAD) so that one
        device's widely-spread feature does not compress the scale on which
        the other devices separate.
        """
        X = np.asarray([f.as_vector() for f in fingerprints], dtype=float)
        if len(X) < self.n_devices:
            raise ValueError("need at least one fingerprint per device")
        self._mean = np.median(X, axis=0)
        mad = np.median(np.abs(X - self._mean), axis=0)
        self._std = 1.4826 * mad  # consistent with sigma for normal data
        # A (near-)constant feature carries no information; neutralize it
        # instead of letting floating-point dust blow it up after scaling.
        degenerate = self._std <= 1e-9 * np.maximum(np.abs(self._mean), 1.0)
        self._std[degenerate] = 1.0
        result = self._kmeans.fit(self._standardize(X))
        self.labels_ = result.labels
        return result.labels

    def identify(self, fingerprint: Fingerprint) -> int:
        """Cluster id (device identity) of a fresh fingerprint."""
        if self._kmeans.result is None:
            raise RuntimeError("identifier is not fitted")
        X = np.asarray([fingerprint.as_vector()], dtype=float)
        return int(self._kmeans.predict(self._standardize(X))[0])

