"""Unified scheduling-policy protocol and registry.

The paper's contributions are layered: Satin's cluster-level random work
stealing (Sec. II-A) balances load *between* nodes, and Cashmere's
min-makespan device scheduler (Sec. III-B) balances load *within* a node.
Both are load-balancing policies, and both benefit from being first-class
pluggable components (cf. EngineCL's scheduler plugins): new policies can
be added, selected from config/CLI, and compared in ablations without
touching the runtime.

This module is the one spine both kinds share:

* :class:`SchedulingPolicy` — the common protocol: a policy has a ``kind``
  (``"steal"`` or ``"device"``), a registered ``name``, and emits
  ``sched_decision`` observability events in one unified shape,
* a **registry** keyed by ``(kind, name)`` — ``repro.satin.steal`` registers
  the cluster-level steal policies, :mod:`repro.core.scheduler` the
  intra-node device-placement policies,
* one config/CLI surface: ``CashmereConfig(steal_policy=...,
  scheduler_policy=...)`` and ``python -m repro run --steal-policy ...``
  both resolve names through :func:`create_policy`.

The unified ``sched_decision`` event always carries ``policy`` (the
registered name), ``scope`` (the policy kind) and ``chosen`` (the selected
device lane or victim rank); kind-specific snapshots ride along as extra
fields, so one replay tool can audit every placement decision a run made.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type, TypeVar

from ..obs.bus import EventBus

__all__ = [
    "SchedulingPolicy",
    "register_policy",
    "create_policy",
    "policy_names",
    "policy_class",
]


class SchedulingPolicy:
    """Base protocol shared by steal and device-placement policies.

    Subclasses set the class attributes and register themselves with
    :func:`register_policy`.  A policy instance is bound to at most one
    runtime; :meth:`bind` hands it the runtime's event bus.
    """

    #: policy family: ``"steal"`` (cluster level) or ``"device"`` (intra-node)
    kind: str = ""
    #: registered name (the config/CLI identifier)
    name: str = ""

    def __init__(self) -> None:
        self.obs: Optional[EventBus] = None

    def bind(self, obs: Optional[EventBus]) -> "SchedulingPolicy":
        """Attach the runtime's event bus (fluent)."""
        self.obs = obs
        return self

    # -- unified event shape -------------------------------------------------
    def emit_decision(self, node: Optional[int], chosen: object,
                      **fields: object) -> None:
        """Emit one ``sched_decision`` event in the unified shape.

        Every decision event carries ``policy``, ``scope`` and ``chosen``;
        callers add kind-specific snapshot fields (pending work, victim
        order, weights, ...).  No-op when unbound or disabled.  A policy
        that never calls it (the paper's random steal sweep) emits no
        decision events at all.
        """
        obs = self.obs
        if obs is None or not obs.enabled:
            return
        obs.emit("sched_decision", node=node, policy=self.name,
                 scope=self.kind, chosen=chosen, **fields)


_P = TypeVar("_P", bound=Type[SchedulingPolicy])

#: (kind, name) -> policy class, in registration order per kind
_REGISTRY: Dict[Tuple[str, str], Type[SchedulingPolicy]] = {}


def register_policy(cls: _P) -> _P:
    """Class decorator: register a policy under ``(cls.kind, cls.name)``."""
    if not cls.kind or not cls.name:
        raise ValueError(
            f"{cls.__name__} must define non-empty 'kind' and 'name'")
    key = (cls.kind, cls.name)
    if key in _REGISTRY:
        raise ValueError(
            f"duplicate policy registration {cls.kind}:{cls.name}")
    _REGISTRY[key] = cls
    return cls


def policy_names(kind: str) -> List[str]:
    """Registered policy names of one kind, in registration order."""
    return [name for (k, name) in _REGISTRY if k == kind]


def policy_class(kind: str, name: str) -> Type[SchedulingPolicy]:
    """Look up a registered policy class (raises ``ValueError`` if absent).

    The error names the *kind* and enumerates the names registered for that
    kind — a typo'd ``--scheduler-policy`` should list the device policies,
    not the steal or admission ones.
    """
    try:
        return _REGISTRY[(kind, name)]
    except KeyError:
        known = tuple(policy_names(kind))
        raise ValueError(
            f"unknown policy {name!r} for kind {kind!r}; "
            f"known {kind} policies: {known}") from None


def create_policy(kind: str, name: str, **kwargs: object) -> SchedulingPolicy:
    """Instantiate a registered policy by kind and name."""
    return policy_class(kind, name)(**kwargs)
