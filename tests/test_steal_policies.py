"""Tests for the pluggable steal-policy layer (repro.satin.steal)."""

import random

import pytest

from repro.cluster import SimCluster, satin_cpu_cluster
from repro.core.policy import create_policy, policy_names
from repro.obs.bus import EventBus
from repro.satin import RuntimeConfig, SatinRuntime
from repro.satin.steal import (
    AdaptiveStealPolicy,
    ClusterAwareStealPolicy,
    RandomStealPolicy,
    StealPolicy,
    create_steal_policy,
    steal_policy_names,
)

from test_satin_runtime import TreeSum, expected_sum


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


def test_registry_lists_all_steal_policies():
    assert steal_policy_names() == ["random", "cluster-aware", "adaptive"]
    # same registry the device policies live in (unified surface)
    assert steal_policy_names() == policy_names("steal")
    assert policy_names("device") == ["makespan", "makespan-lookahead",
                                      "static", "round-robin"]


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown policy"):
        create_steal_policy("bogus")
    with pytest.raises(ValueError, match="unknown policy"):
        create_policy("device", "bogus")


def test_create_returns_fresh_instances():
    a, b = create_steal_policy("adaptive"), create_steal_policy("adaptive")
    assert a is not b
    assert isinstance(a, StealPolicy) and a.kind == "steal"


def test_runtime_rejects_unknown_steal_policy():
    cluster = SimCluster(satin_cpu_cluster(2))
    with pytest.raises(ValueError, match="unknown policy"):
        SatinRuntime(cluster, TreeSum(),
                     RuntimeConfig(steal_policy="does-not-exist"))


# --------------------------------------------------------------------------
# random (the paper's baseline): RNG-consumption parity
# --------------------------------------------------------------------------


def test_random_policy_matches_inline_shuffle():
    """The default policy must consume the runtime RNG exactly like the
    historical inline ``rng.shuffle(victims)`` — this is what keeps seeded
    event streams byte-identical across the refactor."""
    candidates = [1, 2, 3, 5, 8]
    order = RandomStealPolicy().victim_order(
        0, candidates, random.Random(42))
    reference = list(candidates)
    random.Random(42).shuffle(reference)
    assert order == reference
    assert sorted(order) == sorted(candidates)


def _decisions_of(policy):
    """The ``sched_decision`` events of four steal rounds on an enabled
    bus."""
    bus = EventBus().enable()
    policy.bind(bus)
    for thief in range(4):
        order = policy.victim_order(
            thief, [r for r in range(8) if r != thief], random.Random(thief))
        policy.observe(thief, order[0], hit=False)
    return bus.by_kind("sched_decision")


def test_random_policy_emits_no_decisions():
    assert _decisions_of(RandomStealPolicy()) == []
    # the same rounds on the same bus shape do record a policy that emits
    assert len(_decisions_of(ClusterAwareStealPolicy())) == 4


# --------------------------------------------------------------------------
# cluster-aware locality stealing
# --------------------------------------------------------------------------


def test_cluster_aware_polls_neighborhood_first():
    policy = ClusterAwareStealPolicy(group_size=4)
    candidates = [r for r in range(16) if r != 5]
    order = policy.victim_order(5, candidates, random.Random(1))
    near = {4, 6, 7}  # rank 5's group, minus itself
    assert set(order[:len(near)]) == near
    assert set(order) == set(candidates)


def test_cluster_aware_shuffles_within_tiers():
    policy = ClusterAwareStealPolicy(group_size=4)
    candidates = [r for r in range(16) if r != 5]
    orders = {tuple(policy.victim_order(5, candidates, random.Random(s)))
              for s in range(8)}
    assert len(orders) > 1  # not a fixed ordering inside the tiers


def test_cluster_aware_rejects_bad_group_size():
    with pytest.raises(ValueError, match="group_size"):
        ClusterAwareStealPolicy(group_size=0)


# --------------------------------------------------------------------------
# adaptive history-weighted selection
# --------------------------------------------------------------------------


def test_adaptive_scores_follow_ewma():
    policy = AdaptiveStealPolicy()
    policy.observe(0, 3, True)
    assert policy.scores[3] == pytest.approx(0.75 * 0.5 + 0.25)
    policy.observe(0, 3, False)
    assert policy.scores[3] == pytest.approx(0.75 * 0.625)


def test_adaptive_prefers_productive_victims():
    policy = AdaptiveStealPolicy()
    for _ in range(20):
        policy.observe(0, 1, True)   # victim 1: always has work
        policy.observe(0, 2, False)  # victim 2: always empty
    firsts = [policy.victim_order(0, [1, 2, 3], random.Random(s))[0]
              for s in range(50)]
    assert firsts.count(1) > firsts.count(2)
    # exploration floor: the cold victim is still polled first sometimes
    assert set(policy.victim_order(0, [1, 2], random.Random(0))) == {1, 2}


def test_adaptive_order_is_a_permutation_and_deterministic():
    policy = AdaptiveStealPolicy()
    candidates = list(range(1, 9))
    a = policy.victim_order(0, candidates, random.Random(9))
    b = policy.victim_order(0, candidates, random.Random(9))
    assert sorted(a) == candidates
    assert a == b  # same rng state -> same order


# --------------------------------------------------------------------------
# end-to-end through the runtime
# --------------------------------------------------------------------------


def _run(policy, seed=11, obs=False, nodes=4, size=2048):
    cluster = SimCluster(satin_cpu_cluster(nodes))
    if obs:
        cluster.env.obs.enable()
    runtime = SatinRuntime(cluster, TreeSum(leaf_size=32), RuntimeConfig(
        seed=seed, steal_policy=policy))
    result = runtime.run((0, size))
    return result, runtime


@pytest.mark.parametrize("policy", ["random", "cluster-aware", "adaptive"])
def test_every_policy_computes_the_correct_result(policy):
    result, runtime = _run(policy)
    assert result.result == expected_sum(2048)
    assert result.stats.steal_successes > 0


@pytest.mark.parametrize("policy", ["cluster-aware", "adaptive"])
def test_new_policies_emit_unified_sched_decisions(policy):
    """The non-default policies emit ``sched_decision`` events in the
    unified shape: policy name, ``scope="steal"``, the chosen victim."""
    result, runtime = _run(policy, obs=True)
    decisions = [e for e in runtime.obs.events if e.kind == "sched_decision"
                 and e.fields.get("scope") == "steal"]
    assert decisions
    for ev in decisions:
        assert ev.fields["policy"] == policy
        assert ev.fields["chosen"] == ev.fields["order"][0]
        assert ev.node is not None and ev.fields["chosen"] != ev.node


def test_random_policy_keeps_decision_stream_silent():
    """The baseline stays silent so ``sched_decision`` counts keep
    matching ``DeviceScheduler.decisions`` (the PR-1 invariant)."""
    result, runtime = _run("random", obs=True)
    assert not any(e.kind == "sched_decision" for e in runtime.obs.events)


def test_policies_change_the_schedule_not_the_answer():
    results = {p: _run(p)[0] for p in steal_policy_names()}
    values = {r.result for r in results.values()}
    assert values == {expected_sum(2048)}
    # distinct victim-selection -> (almost surely) distinct steal patterns
    attempts = [r.stats.steal_attempts for r in results.values()]
    assert len(set(attempts)) > 1


def test_policy_decisions_are_deterministic_per_seed():
    a = _run("adaptive", seed=13, obs=True)[1].obs.serialize()
    b = _run("adaptive", seed=13, obs=True)[1].obs.serialize()
    assert a == b


# --------------------------------------------------------------------------
# CLI surface
# --------------------------------------------------------------------------


def test_cli_accepts_registered_policy_names(capsys):
    from repro.__main__ import main
    # table1 ignores the policy (signature filtering), but the name is
    # validated against the registry either way.
    assert main(["run", "table1", "--steal-policy", "adaptive",
                 "--scheduler-policy", "static"]) == 0
    capsys.readouterr()


def test_cli_rejects_unknown_policy_names(capsys):
    from repro.__main__ import main
    assert main(["run", "table1", "--steal-policy", "bogus"]) == 2
    assert "unknown policy" in capsys.readouterr().err
    assert main(["run", "table1", "--scheduler-policy", "bogus"]) == 2
    assert "unknown policy" in capsys.readouterr().err
