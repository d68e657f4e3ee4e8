"""Admission-control policies of the job service.

Which backlogged tenant gets the next free cluster slot is a scheduling
decision, so the policies live in the same unified
:class:`~repro.core.policy.SchedulingPolicy` registry as the cluster-level
steal policies and the intra-node device schedulers — registry kind
``"admission"``, selectable from config and the ``repro serve`` CLI.

* :class:`FairShareAdmission` (``fair-share``) — weighted fair queueing via
  stride scheduling.  Every tenant carries a virtual time; admitting a job
  advances it by ``cost / weight``; the backlogged tenant with the smallest
  virtual time is served next.  A tenant re-entering the backlog is clamped
  up to the smallest virtual time of the currently active tenants, so idle
  periods bank no credit and a returning tenant cannot starve the others.
  For continuously backlogged tenants the classical stride bound holds:
  weighted service lags differ by at most one maximal job cost — the
  no-starvation certificate the hypothesis suite asserts.

* :class:`StrictPriorityAdmission` (``strict-priority``) — higher
  ``TenantConfig.priority`` levels always win; *within* a level the
  fair-share rule applies, so equal-priority tenants still share fairly.

Both emit the unified ``sched_decision`` observability event (scope
``admission``) when bound to a bus.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..core.policy import SchedulingPolicy, create_policy, register_policy
from .tenants import TenantState

__all__ = [
    "AdmissionPolicy",
    "FairShareAdmission",
    "StrictPriorityAdmission",
    "create_admission_policy",
]


class AdmissionPolicy(SchedulingPolicy):
    """Protocol of admission policies: pick the next tenant to serve."""

    kind = "admission"

    def select(self, tenants: Sequence[TenantState]) -> Optional[TenantState]:
        """Choose which of the *eligible* tenants is admitted next.

        ``tenants`` only contains eligible tenants (backlogged and under
        their in-flight quota); returns ``None`` when the sequence is
        empty.
        """
        raise NotImplementedError

    def on_admitted(self, tenant: TenantState, cost: float = 1.0) -> None:
        """Account one admission of ``cost`` (in nodes) against a tenant."""

    def on_backlogged(self, tenant: TenantState,
                      all_tenants: Iterable[TenantState]) -> None:
        """A tenant's queue went empty -> non-empty (activation hook)."""


def _min_vtime_pick(tenants: Sequence[TenantState]) -> TenantState:
    """Smallest virtual time wins; ties break on the tenant name so the
    decision is deterministic regardless of dict/list ordering."""
    return min(tenants, key=lambda t: (t.vtime, t.name))


def _clamp_vtime(tenant: TenantState,
                 all_tenants: Iterable[TenantState]) -> None:
    """Stride-scheduler activation rule: a re-activating tenant may not
    re-enter below the active floor (idle time banks no credit)."""
    active = [t.vtime for t in all_tenants
              if t is not tenant and (t.backlogged or t.in_flight > 0)]
    if active:
        tenant.vtime = max(tenant.vtime, min(active))


@register_policy
class FairShareAdmission(AdmissionPolicy):
    """Weighted fair queueing over tenant admission queues."""

    name = "fair-share"

    def select(self, tenants: Sequence[TenantState]) -> Optional[TenantState]:
        if not tenants:
            return None
        chosen = _min_vtime_pick(tenants)
        self.emit_decision(
            None, chosen.name,
            vtimes={t.name: round(t.vtime, 9) for t in tenants})
        return chosen

    def on_admitted(self, tenant: TenantState, cost: float = 1.0) -> None:
        tenant.vtime += cost / tenant.config.weight

    def on_backlogged(self, tenant: TenantState,
                      all_tenants: Iterable[TenantState]) -> None:
        _clamp_vtime(tenant, all_tenants)


@register_policy
class StrictPriorityAdmission(AdmissionPolicy):
    """Higher priority level always wins; fair share within a level."""

    name = "strict-priority"

    def select(self, tenants: Sequence[TenantState]) -> Optional[TenantState]:
        if not tenants:
            return None
        top = max(t.config.priority for t in tenants)
        level: List[TenantState] = [
            t for t in tenants if t.config.priority == top]
        chosen = _min_vtime_pick(level)
        self.emit_decision(
            None, chosen.name, priority=top,
            vtimes={t.name: round(t.vtime, 9) for t in level})
        return chosen

    def on_admitted(self, tenant: TenantState, cost: float = 1.0) -> None:
        tenant.vtime += cost / tenant.config.weight

    def on_backlogged(self, tenant: TenantState,
                      all_tenants: Iterable[TenantState]) -> None:
        # Clamp against the tenant's own priority level only: a low-priority
        # tenant's vtime must not drag a re-activating high-priority one up.
        peers = [t for t in all_tenants
                 if t.config.priority == tenant.config.priority]
        _clamp_vtime(tenant, peers)


def create_admission_policy(name: str) -> AdmissionPolicy:
    """Instantiate a registered admission policy by name."""
    policy = create_policy("admission", name)
    assert isinstance(policy, AdmissionPolicy)
    return policy
