"""Tests for the intra-node heterogeneous device scheduler (Sec. III-B)."""

import pytest

from repro.core.scheduler import DeviceScheduler
from repro.devices import SimDevice, device_spec
from repro.sim import Environment


def make_devices(*names):
    env = Environment()
    return env, [SimDevice(env, device_spec(n), "node0", index=i)
                 for i, n in enumerate(names)]


def test_paper_example_k20_vs_gtx480():
    """The worked example of Sec. III-B: K20 queue has 3 jobs x 100 ms, the
    GTX480 queue one of 125 ms; the new job must go to the GTX480 because
    max(300, 250) < max(400, 125)."""
    env, (k20, gtx480) = make_devices("k20", "gtx480")
    k20.measured_times["k"] = 0.100
    gtx480.measured_times["k"] = 0.125
    k20.pending_work_s = 0.300
    gtx480.pending_work_s = 0.125
    sched = DeviceScheduler()
    decision = sched.choose([k20, gtx480], "k")
    assert decision.device is gtx480
    assert decision.makespan_s == pytest.approx(0.300)


def test_choose_faster_device_when_queues_empty():
    env, (k20, gtx480) = make_devices("k20", "gtx480")
    k20.measured_times["k"] = 0.100
    gtx480.measured_times["k"] = 0.200
    decision = DeviceScheduler().choose([k20, gtx480], "k")
    assert decision.device is k20


def test_bootstrap_uses_static_speed_table():
    """Without measurements, placement follows the static table (K20=40
    beats GTX480=20)."""
    env, (k20, gtx480) = make_devices("k20", "gtx480")
    sched = DeviceScheduler()
    decision = sched.choose([k20, gtx480], "k")
    assert decision.device is k20
    assert not decision.used_measurement


def test_one_measurement_scales_other_devices():
    """With a measurement on one device, others are predicted via the table:
    K20 measured 100 ms => GTX480 (half the speed rating) predicted 200 ms."""
    env, (k20, gtx480) = make_devices("k20", "gtx480")
    k20.measured_times["k"] = 0.100
    sched = DeviceScheduler()
    predictions = sched.predict([k20, gtx480], "k")
    assert predictions[k20.lane] == (pytest.approx(0.100), True)
    t480, measured = predictions[gtx480.lane]
    assert not measured
    assert t480 == pytest.approx(0.100 * 40.0 / 20.0)


def test_pending_work_reserved_and_released():
    env, (k20,) = make_devices("k20")
    k20.measured_times["k"] = 0.050
    sched = DeviceScheduler()
    d1 = sched.choose([k20], "k")
    d2 = sched.choose([k20], "k")
    assert k20.pending_work_s == pytest.approx(0.100)
    sched.job_finished(d1)
    assert k20.pending_work_s == pytest.approx(0.050)
    sched.job_finished(d2)
    assert k20.pending_work_s == 0.0


def test_eight_jobs_split_7_to_1_between_k20_and_phi():
    """The Fig. 16 discussion: with the Phi ~4x slower than the K20, a set
    of 8 jobs is split 7 on the K20 and 1 on the Phi."""
    env, (k20, phi) = make_devices("k20", "xeon_phi")
    k20.measured_times["kmeans"] = 0.100
    phi.measured_times["kmeans"] = 0.400
    sched = DeviceScheduler()
    placements = [sched.choose([k20, phi], "kmeans").device.spec.name
                  for _ in range(8)]
    assert placements.count("k20") == 7
    assert placements.count("xeon_phi") == 1
    # Makespan of this split: 7 x 100 = 700 ms vs 1 x 400 ms.
    assert k20.pending_work_s == pytest.approx(0.700)
    assert phi.pending_work_s == pytest.approx(0.400)


def test_empty_device_list_rejected():
    with pytest.raises(ValueError, match="no many-core devices"):
        DeviceScheduler().choose([], "k")


def test_tie_breaks_prefer_faster_device():
    env, (k20, gtx480) = make_devices("k20", "gtx480")
    # Identical measured times and empty queues: same makespan either way.
    k20.measured_times["k"] = 0.100
    gtx480.measured_times["k"] = 0.100
    decision = DeviceScheduler().choose([gtx480, k20], "k")
    assert decision.device is k20


def test_unknown_policy_error_lists_known_names_for_kind():
    """The registry's error path is kind-aware: asking for a bogus device
    policy must name the *device* policies (and only those), so a typo'd
    ``--scheduler-policy`` is self-correcting from the message alone."""
    from repro.core.policy import create_policy, policy_names

    with pytest.raises(ValueError) as excinfo:
        create_policy("device", "makespan-lookbehind")
    message = str(excinfo.value)
    assert "unknown policy" in message
    assert "'makespan-lookbehind'" in message
    assert "'device'" in message
    for name in policy_names("device"):
        assert name in message
    assert "makespan-lookahead" in message
    # Steal-policy names must not leak into a device-kind error.
    for name in policy_names("steal"):
        if name not in policy_names("device"):
            assert f"'{name}'" not in message
