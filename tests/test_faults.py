"""Fault-injection subsystem: plans, injectors, determinism, robustness runs."""

import dataclasses

import numpy as np
import pytest

from repro.experiments import (
    CoexistenceConfig,
    RobustnessTrialConfig,
    SweepEngine,
    SweepSpec,
    run_coexistence,
    run_experiment,
    run_robustness_trial,
)
from repro.experiments.sweep import trial_key
from repro.faults import (
    DIMENSIONS,
    CsiFaultInjector,
    CtsFaultInjector,
    ControlFaultInjector,
    DetectionFaultInjector,
    FaultPlan,
    NegotiationFaultInjector,
    TimerFaultInjector,
    build_harness,
)
from repro.faults.injectors import DROP_ATTENUATION_DB, MIN_TIMER_S
from repro.mac.frames import wifi_cts_frame, zigbee_control_frame
from repro.serialization import canonical_dumps, from_dict, to_dict
from repro.sim.rng import RandomStreams

pytestmark = pytest.mark.faults


def rng(seed=0):
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# FaultPlan: validation, activity, dimensions
# ----------------------------------------------------------------------
def test_default_plan_is_inert():
    plan = FaultPlan()
    assert not plan.active
    assert build_harness(plan, RandomStreams(0)) is None
    assert build_harness(None, RandomStreams(0)) is None


@pytest.mark.parametrize("field,value", [
    ("csi_miss_rate", -0.1),
    ("detection_fn_rate", 1.5),
    ("control_drop_rate", 2.0),
    ("cts_suppress_rate", -1.0),
    ("control_truncate_min_fraction", 0.0),
    ("reestimation_skew", -1.0),
    ("end_silence_skew", -2.0),
    ("timer_jitter", -1e-3),
    ("negotiation_noise_db", -0.5),
])
def test_plan_rejects_out_of_domain_values(field, value):
    with pytest.raises(ValueError):
        FaultPlan(**{field: value})


def test_from_dimension_maps_rates():
    plan = FaultPlan.from_dimension("detection", 0.4)
    assert plan.detection_fn_rate == pytest.approx(0.4)
    assert plan.detection_fp_rate == pytest.approx(0.004)
    assert plan.control_drop_rate == 0.0
    plan = FaultPlan.from_dimension("control", 0.6)
    assert plan.control_drop_rate == pytest.approx(0.6)
    assert plan.control_truncate_rate == pytest.approx(0.3)
    plan = FaultPlan.from_dimension("timers", 1.0)
    assert plan.reestimation_skew == pytest.approx(-0.9)
    assert plan.end_silence_skew == pytest.approx(-0.75)
    combined = FaultPlan.from_dimension("all", 0.5)
    assert combined.detection_fn_rate > 0 and combined.cts_suppress_rate > 0
    assert FaultPlan.from_dimension("all", 0.0) == FaultPlan()


def test_from_dimension_rejects_unknowns():
    with pytest.raises(ValueError):
        FaultPlan.from_dimension("gremlins", 0.5)
    with pytest.raises(ValueError):
        FaultPlan.from_dimension("all", 1.5)
    assert "all" in DIMENSIONS


def test_harness_builds_only_requested_injectors():
    harness = build_harness(FaultPlan(detection_fn_rate=0.5), RandomStreams(0))
    assert harness.detection is not None
    assert harness.csi is None and harness.control is None
    assert harness.cts is None and harness.timers is None
    assert harness.negotiation is None
    assert harness.counters() == {
        "fault_detections_suppressed": 0,
        "fault_detections_injected": 0,
    }


def test_plan_serialization_roundtrip_and_cache_key_sensitivity():
    plan = FaultPlan.from_dimension("all", 0.25)
    assert from_dict(FaultPlan, to_dict(plan)) == plan
    clean = trial_key("robustness", {"dimension": "all", "rate": 0.0}, seed=0)
    faulted = trial_key("robustness", {"dimension": "all", "rate": 0.25}, seed=0)
    assert clean != faulted


# ----------------------------------------------------------------------
# Injector units
# ----------------------------------------------------------------------
def test_control_injector_drop_attenuates_and_stamps():
    injector = ControlFaultInjector(FaultPlan(control_drop_rate=1.0), rng())
    frame = zigbee_control_frame("ZS", 120)
    power = injector.perturb(frame, -1.0)
    assert power == pytest.approx(-1.0 - DROP_ATTENUATION_DB)
    assert frame.meta["fault_control_dropped"] is True
    assert injector.controls_dropped == 1


def test_control_injector_truncation_preserves_mac_overhead():
    injector = ControlFaultInjector(
        FaultPlan(control_truncate_rate=1.0, control_truncate_min_fraction=0.25),
        rng(),
    )
    frame = zigbee_control_frame("ZS", 120)
    orig_payload = frame.payload_bytes  # 120 B MPDU minus MAC overhead
    overhead = frame.mpdu_bytes - frame.payload_bytes
    full_duration = frame.duration()
    power = injector.perturb(frame, -1.0)
    assert power == pytest.approx(-1.0)  # truncation does not touch power
    assert frame.payload_bytes < orig_payload
    assert frame.payload_bytes >= int(orig_payload * 0.25)
    assert frame.mpdu_bytes - frame.payload_bytes == overhead
    assert frame.duration() < full_duration  # shorter on the air, fewer overlaps
    assert frame.meta["fault_control_truncated"] == orig_payload


def test_detection_injector_flips_both_ways():
    fn = DetectionFaultInjector(FaultPlan(detection_fn_rate=1.0), rng())
    assert fn.flip(True) is False and fn.detections_suppressed == 1
    assert fn.flip(False) is False  # fn rate never *creates* detections
    fp = DetectionFaultInjector(FaultPlan(detection_fp_rate=1.0), rng())
    assert fp.flip(False) is True and fp.detections_injected == 1
    assert fp.flip(True) is True  # fp rate never suppresses real ones


def test_cts_injector_stamps():
    drop = CtsFaultInjector(FaultPlan(cts_suppress_rate=1.0), rng())
    assert drop.stamp() == {"fault_cts_drop": True}
    delay = CtsFaultInjector(
        FaultPlan(cts_delay_rate=1.0, cts_delay_max=2e-3), rng()
    )
    stamp = delay.stamp()
    assert 0.0 <= stamp["fault_cts_delay"] <= 2e-3
    clean = CtsFaultInjector(FaultPlan(cts_suppress_rate=0.5), rng())
    clean.plan = FaultPlan()  # zero rates -> no draws, empty stamp
    assert clean.stamp() == {}


def test_timer_injector_skews_and_floors():
    injector = TimerFaultInjector(FaultPlan(reestimation_skew=-0.5), rng())
    assert injector.reestimation_period(10.0) == pytest.approx(5.0)
    fast = TimerFaultInjector(FaultPlan(end_silence_skew=-0.999999), rng())
    assert fast.end_silence(20e-3) == MIN_TIMER_S  # never 0 / negative
    jitter = TimerFaultInjector(FaultPlan(timer_jitter=1e-3), rng())
    values = {jitter.end_silence(20e-3) for _ in range(8)}
    assert len(values) > 1
    assert all(abs(v - 20e-3) <= 1e-3 + 1e-12 for v in values)


def test_csi_injector_miss_and_spurious():
    injector = CsiFaultInjector(
        FaultPlan(csi_miss_rate=1.0, csi_spurious_rate=1.0), rng()
    )
    assert injector.miss_overlap() is True
    spurious = injector.spurious_deviation()
    assert spurious is not None and 0.3 <= spurious <= 0.9
    off = CsiFaultInjector(FaultPlan(csi_miss_rate=1.0), rng())
    assert off.spurious_deviation() is None


def test_negotiation_injector_biases_rssi():
    injector = NegotiationFaultInjector(FaultPlan(negotiation_bias_db=3.0), rng())
    assert injector.perturb_rssi(-60.0) == pytest.approx(-57.0)
    assert injector.negotiations_perturbed == 1


def test_injector_sequences_reproducible_per_seed():
    plan = FaultPlan(control_drop_rate=0.5)
    a = ControlFaultInjector(plan, RandomStreams(9).stream("faults/control"))
    b = ControlFaultInjector(plan, RandomStreams(9).stream("faults/control"))
    fates_a = [a.perturb(zigbee_control_frame("ZS", 120), 0.0) for _ in range(50)]
    fates_b = [b.perturb(zigbee_control_frame("ZS", 120), 0.0) for _ in range(50)]
    assert fates_a == fates_b
    assert a.controls_dropped == b.controls_dropped > 0


# ----------------------------------------------------------------------
# MAC-level CTS fault semantics
# ----------------------------------------------------------------------
def make_office():
    from .helpers import office_devices

    return office_devices(seed=0, location="A")


def test_dropped_cts_never_sets_nav():
    office = make_office()
    mac = office.wifi_sender.mac
    cts = wifi_cts_frame("F", 30e-3, mac.basic_rate, bicord=True, fault_cts_drop=True)
    mac._handle_cts(cts)
    assert mac.nav_until == 0.0


def test_delayed_cts_sets_nav_late_but_ends_on_time():
    office = make_office()
    sim = office.sim
    mac = office.wifi_sender.mac
    cts = wifi_cts_frame(
        "F", 30e-3, mac.basic_rate, bicord=True, fault_cts_delay=1e-3
    )
    mac._handle_cts(cts)
    assert mac.nav_until == 0.0  # not yet decoded
    sim.run(until=2e-3)
    # NAV was applied after the decode delay, ending when the original
    # reservation ends (the white space is not extended by the delay).
    assert mac.nav_until == pytest.approx(30e-3)


def test_clean_cts_still_sets_nav():
    office = make_office()
    mac = office.wifi_sender.mac
    cts = wifi_cts_frame("F", 30e-3, mac.basic_rate, bicord=True)
    mac._handle_cts(cts)
    assert mac.nav_until == pytest.approx(30e-3)


# ----------------------------------------------------------------------
# End-to-end: zero-rate exactness, determinism, degradation accounting
# ----------------------------------------------------------------------
def test_zero_rate_plan_reproduces_fault_free_run_exactly():
    """Acceptance: an inert faults config is bitwise-identical to no faults."""
    clean = run_coexistence(CoexistenceConfig(seed=3, n_bursts=6))
    inert = run_coexistence(CoexistenceConfig(seed=3, n_bursts=6, faults=FaultPlan()))
    assert canonical_dumps(clean) == canonical_dumps(inert)
    zero = run_robustness_trial(
        RobustnessTrialConfig(dimension="all", rate=0.0, n_bursts=6), seed=3
    )
    assert zero.prr == clean.delivery_ratio
    assert zero.mean_delay == clean.mean_delay
    assert zero.p95_delay == clean.p95_delay
    assert zero.fault_counters == {}


def test_faulted_run_is_deterministic_per_seed():
    """Acceptance: same FaultPlan + seed -> bitwise-identical results."""
    cfg = RobustnessTrialConfig(dimension="all", rate=0.5, n_bursts=6)
    a = run_robustness_trial(cfg, seed=7)
    b = run_robustness_trial(cfg, seed=7)
    assert canonical_dumps(a) == canonical_dumps(b)
    assert sum(a.fault_counters.values()) > 0
    c = run_robustness_trial(cfg, seed=8)
    assert canonical_dumps(a) != canonical_dumps(c)


def test_fault_counters_surface_in_coexistence_extra():
    plan = FaultPlan(control_drop_rate=0.8, detection_fn_rate=0.5)
    result = run_coexistence(CoexistenceConfig(seed=2, n_bursts=6, faults=plan))
    assert result.extra.get("fault_controls_dropped", 0) > 0
    assert "fault_detections_suppressed" in result.extra


def test_control_drops_degrade_signaling():
    """Dropping every control packet degrades coordination: the ZigBee node
    burns many more control transmissions and delivery slows down.  (It is
    not fully blinded — colliding *data* frames still disturb CSI, so some
    grants survive; that's the protocol's own redundancy, not a fault leak.)"""
    clean = run_coexistence(CoexistenceConfig(seed=5, n_bursts=6))
    deaf = run_coexistence(CoexistenceConfig(
        seed=5, n_bursts=6, faults=FaultPlan(control_drop_rate=1.0)
    ))
    assert deaf.extra["fault_controls_dropped"] == deaf.control_packets
    assert deaf.control_packets > 2 * clean.control_packets
    assert deaf.mean_delay > clean.mean_delay


def test_explicit_plan_overrides_dimension_axes():
    cfg = RobustnessTrialConfig(
        dimension="all", rate=0.9, faults=FaultPlan(), n_bursts=4
    )
    assert cfg.plan() == FaultPlan()
    result = run_robustness_trial(cfg, seed=0)
    assert result.fault_counters == {}


def test_robustness_config_validation():
    with pytest.raises(ValueError):
        RobustnessTrialConfig(dimension="nope")
    with pytest.raises(ValueError):
        RobustnessTrialConfig(rate=1.2)
    with pytest.raises(ValueError):
        RobustnessTrialConfig(scheme="token-ring")


# ----------------------------------------------------------------------
# Robustness experiment through the registry + sweep cache
# ----------------------------------------------------------------------
def test_robustness_registered_and_runs_via_registry():
    result = run_experiment(
        "robustness", seed=1, dimension="detection", rate=0.3, n_bursts=5
    )
    assert result.dimension == "detection"
    assert 0.0 <= result.prr <= 1.0
    assert result.bursts_offered > 0


def test_robustness_sweep_smoke_with_caching(tmp_path):
    """Acceptance: a tiny robustness grid runs through the sweep engine and
    re-runs entirely from cache."""
    spec = SweepSpec(
        experiment="robustness",
        grid={"rate": (0.0, 0.5)},
        base={"dimension": "control", "n_bursts": 4},
        seeds=(0, 1),
    )
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = engine.run(spec)
    assert (first.executed, first.cached_hits) == (4, 0)
    second = engine.run(spec)
    assert (second.executed, second.cached_hits) == (0, 4)
    for a, b in zip(first.results, second.results):
        assert canonical_dumps(a) == canonical_dumps(b)


def test_robustness_curve_reports_degradation_points():
    from repro.experiments import robustness_curve

    points = robustness_curve(
        dimension="control", rates=(0.0, 1.0), seeds=(0,),
        base={"n_bursts": 4},
        engine=SweepEngine(jobs=1, cache=False),
    )
    assert [point["rate"] for point in points] == [0.0, 1.0]
    assert all(point["seeds"] == 1 for point in points)
    assert 0.0 <= points[0]["prr_mean"] <= 1.0
