"""Pluggable cluster-level steal policies (victim selection).

Satin's load balancing is *random work-stealing* (Sec. II-A): an idle
worker polls uniformly random victims until one hands over a job, and a
fully failed round backs off exponentially.  This module turns the victim
choice into a pluggable :class:`StealPolicy` — registered in the unified
policy registry of :mod:`repro.core.policy` under kind ``"steal"``,
selectable via ``RuntimeConfig(steal_policy=...)`` and ``python -m repro
run --steal-policy ...`` — so alternative victim-selection strategies can
be benchmarked against the paper's baseline without touching the runtime.
The backoff schedule belongs to the runtime.

Three policies ship:

* :class:`RandomStealPolicy` (``random``, the default) — the paper's
  uniform-random victim sweep, byte-for-byte compatible with the historical
  runtime behavior (it consumes the runtime RNG identically and emits no
  extra events, so seeded observability streams are unchanged),
* :class:`ClusterAwareStealPolicy` (``cluster-aware``) — locality stealing:
  victims in the thief's rank-neighborhood (same switch/rack in the DAS-4
  picture) are polled before remote ones, cutting round-trip latency on the
  common hit path,
* :class:`AdaptiveStealPolicy` (``adaptive``) — history-weighted victim
  selection: an EWMA success score per victim biases the polling order
  toward recently productive victims.

The two non-default policies emit unified ``sched_decision`` events (one
per steal round, ``scope="steal"``) through the shared
:class:`~repro.core.policy.SchedulingPolicy` interface, making steal-victim
choices replayable from the event log exactly like device placements.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from ..core.policy import SchedulingPolicy, create_policy, policy_names, register_policy

__all__ = [
    "StealPolicy",
    "RandomStealPolicy",
    "ClusterAwareStealPolicy",
    "AdaptiveStealPolicy",
    "create_steal_policy",
    "steal_policy_names",
]


class StealPolicy(SchedulingPolicy):
    """Victim selection for one runtime.

    ``victim_order`` returns the ranks a steal round should poll, in
    order; the runtime sends one request at a time and stops at the first
    hit (Satin's sweep).  ``observe`` feeds the outcome of each poll back
    to the policy.  The idle wait after fully failed rounds is the
    runtime's capped exponential backoff, the same under every policy.
    """

    kind = "steal"

    def victim_order(self, thief: int, candidates: Sequence[int],
                     rng: random.Random) -> List[int]:
        """Order the candidate victim ranks for one steal round."""
        raise NotImplementedError

    def observe(self, thief: int, victim: int, hit: bool) -> None:
        """Outcome feedback: one poll of ``victim`` found work or not."""


@register_policy
class RandomStealPolicy(StealPolicy):
    """Uniform-random victim sweep — the paper's baseline (Sec. II-A).

    Consumes the runtime RNG exactly like the historical inline
    implementation (one ``shuffle`` of the candidate list per round) and
    emits no ``sched_decision`` events, keeping seeded event streams
    byte-identical to the pre-policy-layer runtime.
    """

    name = "random"

    def victim_order(self, thief: int, candidates: Sequence[int],
                     rng: random.Random) -> List[int]:
        order = list(candidates)
        rng.shuffle(order)
        return order


@register_policy
class ClusterAwareStealPolicy(StealPolicy):
    """Locality-aware stealing: poll the thief's neighborhood first.

    Ranks are grouped into fixed-size neighborhoods (``group_size``
    consecutive ranks — the switch/rack granularity of a DAS-4-like
    machine).  A round polls the thief's own group first, then the rest;
    both tiers are shuffled so victims within a tier are still chosen
    uniformly (no single nearby victim gets hammered).
    """

    name = "cluster-aware"

    def __init__(self, group_size: int = 4) -> None:
        super().__init__()
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.group_size = group_size

    def victim_order(self, thief: int, candidates: Sequence[int],
                     rng: random.Random) -> List[int]:
        if not candidates:
            return []
        group = thief // self.group_size
        near = [r for r in candidates if r // self.group_size == group]
        far = [r for r in candidates if r // self.group_size != group]
        rng.shuffle(near)
        rng.shuffle(far)
        order = near + far
        self.emit_decision(node=thief, chosen=order[0], order=order,
                           near=len(near), far=len(far))
        return order


@register_policy
class AdaptiveStealPolicy(StealPolicy):
    """History-weighted victim selection.

    Keeps an EWMA success score per victim (1.0 = every recent poll found
    work).  A round orders victims by weighted sampling without
    replacement, so productive victims are polled earlier while cold ones
    are still revisited (the floor weight keeps exploration alive —
    a victim that *becomes* loaded is rediscovered within a few rounds).
    """

    name = "adaptive"

    #: EWMA smoothing: score <- (1-alpha)*score + alpha*hit
    alpha = 0.25
    #: optimistic initial score for never-polled victims
    initial_score = 0.5
    #: exploration floor added to every weight
    floor = 0.05

    def __init__(self) -> None:
        super().__init__()
        self.scores: Dict[int, float] = {}

    def observe(self, thief: int, victim: int, hit: bool) -> None:
        old = self.scores.get(victim, self.initial_score)
        self.scores[victim] = (1.0 - self.alpha) * old \
            + self.alpha * (1.0 if hit else 0.0)

    def _weight(self, rank: int) -> float:
        return self.floor + self.scores.get(rank, self.initial_score)

    def victim_order(self, thief: int, candidates: Sequence[int],
                     rng: random.Random) -> List[int]:
        pool = list(candidates)
        order: List[int] = []
        while pool:
            weights = [self._weight(r) for r in pool]
            pick = rng.random() * sum(weights)
            acc = 0.0
            chosen_idx = len(pool) - 1
            for i, w in enumerate(weights):
                acc += w
                if pick < acc:
                    chosen_idx = i
                    break
            order.append(pool.pop(chosen_idx))
        if order:
            self.emit_decision(
                node=thief, chosen=order[0], order=order,
                weights={r: round(self._weight(r), 6) for r in order})
        return order


def create_steal_policy(name: str) -> StealPolicy:
    """Instantiate a registered steal policy by name."""
    policy = create_policy("steal", name)
    assert isinstance(policy, StealPolicy)
    return policy


def steal_policy_names() -> List[str]:
    """Registered steal-policy names, in registration order."""
    return policy_names("steal")
