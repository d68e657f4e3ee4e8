"""Discrete-event simulation substrate for the Cashmere reproduction.

The paper ran on the DAS-4 cluster; this package provides the virtual
hardware it ran on: a deterministic process-based event engine
(:mod:`repro.sim.engine`), contention primitives (:mod:`repro.sim.resources`:
slots held for a span of time, and a continuous amount), and an
InfiniBand-style interconnect model (:mod:`repro.sim.network`) whose
endpoints keep delivered messages for one armed receiver hop.
"""

from .engine import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .network import (
    GIGABIT_ETHERNET,
    QDR_INFINIBAND,
    Endpoint,
    Message,
    Network,
    NetworkSpec,
)
from .resources import Container, Resource

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Resource",
    "Container",
    "Network",
    "NetworkSpec",
    "Endpoint",
    "Message",
    "QDR_INFINIBAND",
    "GIGABIT_ETHERNET",
]
