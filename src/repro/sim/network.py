"""Cluster interconnect model.

Models a switched fabric (the DAS-4 uses QDR InfiniBand): every node owns a
full-duplex NIC.  Sending a message serializes it onto the sender's injection
link at the link bandwidth, the fabric adds a fixed latency, and the message
then lands in the receiver's mailbox, where the receiver's armed hop takes
it.  Concurrent sends from one node queue on its NIC; sends from different
nodes proceed in parallel — this is what produces the "skewed
computation/communication ratio" the paper discusses when fast many-core
leaves meet a relatively slow network.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Generator, Iterable, Optional

from .engine import Environment, Event, SimulationError
from .resources import Resource


def _exact(nbytes: float) -> Any:
    """Counter charge for a payload size: exact int when integral.

    Byte counters accumulate millions of terms; float accumulation loses
    integer exactness past 2**53.  Integral sizes (the only kind the stack
    produces) are charged as Python ints, whose sums are exact at any
    magnitude; non-integral sizes fall back to the float itself.
    """
    i = int(nbytes)
    return i if i == nbytes else nbytes

__all__ = ["NetworkSpec", "Message", "Network", "Endpoint", "QDR_INFINIBAND", "GIGABIT_ETHERNET"]


@dataclass(frozen=True)
class NetworkSpec:
    """Static parameters of an interconnect."""

    name: str
    bandwidth_bps: float  #: bytes per second on each injection link
    latency_s: float      #: one-way fabric latency in seconds
    per_message_overhead_s: float = 0.0  #: software/protocol overhead per message

    def transfer_time(self, nbytes: float) -> float:
        """Serialization + latency for one message of ``nbytes``."""
        return self.per_message_overhead_s + self.latency_s + nbytes / self.bandwidth_bps


#: QDR InfiniBand as on DAS-4: ~32 Gbit/s signal, ~3.2 GB/s effective
#: payload bandwidth and a few microseconds of latency; we add a modest
#: per-message software overhead for the (Java, in the paper) messaging layer.
QDR_INFINIBAND = NetworkSpec(
    name="qdr-infiniband",
    bandwidth_bps=3.2e9,
    latency_s=2.0e-6,
    per_message_overhead_s=15.0e-6,
)

#: A slower commodity network, used by ablation benches.
GIGABIT_ETHERNET = NetworkSpec(
    name="gigabit-ethernet",
    bandwidth_bps=118e6,
    latency_s=50e-6,
    per_message_overhead_s=60e-6,
)


@dataclass(slots=True)
class Message:
    """A message in flight or delivered.

    ``payload`` is an arbitrary Python object; ``nbytes`` is the size that is
    *charged* to the network (the model size of the data, which for simulated
    paper-scale runs is much larger than the in-memory payload).
    """

    src: int
    dst: int
    tag: str
    payload: Any = None
    nbytes: float = 0.0
    send_time: float = 0.0
    recv_time: float = 0.0


class Endpoint:
    """A node's attachment to the network: NIC plus mailbox.

    Delivered messages wait in :attr:`mailbox` until the node's receiver
    takes them: one hop at a time, armed with :meth:`arm`, which pops the
    oldest message when it runs.
    """

    def __init__(self, env: Environment, network: "Network", rank: int):
        self.env = env
        self.network = network
        self.rank = rank
        self.nic = Resource(env, capacity=1)
        #: delivered messages not yet taken, oldest first
        self.mailbox: Deque[Message] = deque()
        #: the receiver hop armed for the next delivery, if any
        self._receiver: Optional[Callable[[], None]] = None
        #: cumulative statistics — byte counters start at int 0 so that
        #: integral charges (see :func:`_exact`) accumulate exactly
        self.bytes_sent: Any = 0
        self.bytes_received: Any = 0
        self.messages_sent = 0
        self.messages_received = 0

    def send(self, dst: int, tag: str, payload: Any = None, nbytes: float = 0.0) -> Generator:
        """Process: transmit a message to node ``dst`` (blocks the NIC)."""
        yield from self.network.transmit(self, dst, tag, payload, nbytes)

    def arm(self, hop: Callable[[], None]) -> None:
        """Queue the receiver ``hop`` (a zero-argument bound method, see
        :meth:`Environment._schedule`) to take one message: now if one
        waits in the mailbox, else at the next delivery."""
        if self.mailbox:
            self.env._ready.append(hop)
        else:
            self._receiver = hop


class _TransmitOp:
    """One in-flight transfer, driven by a chain of hops.

    Each step is a hop (a zero-argument bound method queued on the engine,
    see :meth:`Environment._schedule`), so no ``Event`` is built per step.
    A transfer takes three queue pops, and the receiver's armed hop a
    fourth:

    1. **grant** — :meth:`start` claims the sender's NIC; when the claim is
       granted, :meth:`_granted` starts serialization.
    2. **serialize** — per-message overhead plus ``nbytes / bandwidth``
       later, with the NIC held, :meth:`_ser_done` frees it and starts the
       fabric latency.
    3. **latency** — ``latency_s`` later, without the NIC,
       :meth:`_deliver` charges the byte/message counters and the ``send``
       obs interval, succeeds a blocking caller's ``done`` event with the
       message, lands it in the receiver's mailbox and queues the
       receiver's armed hop.

    No process exists per transfer: only a blocking caller waiting on
    ``done`` is resumed.  Fire-and-forget sends (``done is None``) resume
    nobody.

    Interrupts: a blocking caller's ``transmit`` calls :meth:`cancel` from
    its ``finally`` when interrupted mid-transfer, which frees the NIC at
    interrupt-delivery time and marks the op dead so the hops already
    queued pop inert.
    """

    __slots__ = ("network", "src_ep", "dst_ep", "msg", "nbytes", "done",
                 "req", "inject_start", "dead", "released")

    def __init__(self, network: "Network", src_ep: Endpoint, dst_ep: Endpoint,
                 msg: Message, nbytes: float, done: Optional[Event]):
        self.network = network
        self.src_ep = src_ep
        self.dst_ep = dst_ep
        self.msg = msg
        self.nbytes = nbytes
        self.done = done
        self.inject_start = 0.0
        self.dead = False
        self.released = False

    def start(self) -> None:
        """Claim the sender's NIC as ``req``; the grant runs
        :meth:`_granted`.  Every transfer starts before any other method
        of the op runs."""
        self.req = self.src_ep.nic.request(self._granted)

    def cancel(self) -> None:
        """Abort the transfer: free the NIC *now*."""
        self.dead = True
        if not self.released:
            self.released = True
            # Not granted yet: release() falls through to req.cancel() and
            # withdraws the queued claim.  Granted: frees the slot.
            self.src_ep.nic.release(self.req)

    def _granted(self) -> None:
        if self.dead:
            return
        network = self.network
        env = network.env
        spec = network.spec
        # Serialization occupies the sender's injection link.
        self.inject_start = env._now
        env._schedule(self._ser_done,
                      spec.per_message_overhead_s
                      + self.nbytes / spec.bandwidth_bps)

    def _ser_done(self) -> None:
        if not self.released:
            self.released = True
            self.src_ep.nic.release(self.req)
        if self.dead:
            return
        network = self.network
        # Fabric latency does not occupy the NIC.
        network.env._schedule(self._deliver, network.spec.latency_s)

    def _deliver(self) -> None:
        if self.dead:
            return
        network = self.network
        env = network.env
        msg = self.msg
        nbytes = self.nbytes
        src_ep = self.src_ep
        dst_ep = self.dst_ep
        msg.recv_time = env._now
        charge = _exact(nbytes)
        src_ep.bytes_sent += charge
        src_ep.messages_sent += 1
        dst_ep.bytes_received += charge
        dst_ep.messages_received += 1
        network.total_bytes += charge
        network.total_messages += 1
        obs = env.obs
        if obs.enabled:
            # One interval per message on the sender's NIC lane: NIC
            # injection start to delivery (the paper's node<->node bars).
            obs.emit("send", node=src_ep.rank,
                     lane=f"node{src_ep.rank}/net",
                     start=self.inject_start, end=env._now,
                     label=msg.tag, dst=msg.dst, nbytes=nbytes)
        done = self.done
        if done is not None:
            # The caller's resume event is queued before the receiver.
            done.succeed(msg)
        dst_ep.mailbox.append(msg)
        receiver = dst_ep._receiver
        if receiver is not None:
            dst_ep._receiver = None
            env._ready.append(receiver)


class Network:
    """The fabric connecting all endpoints."""

    def __init__(self, env: Environment, spec: NetworkSpec):
        self.env = env
        self.spec = spec
        self.endpoints: Dict[int, Endpoint] = {}
        #: int 0 start: integral charges accumulate exactly (see _exact)
        self.total_bytes: Any = 0
        self.total_messages = 0

    def attach(self, rank: int) -> Endpoint:
        if rank in self.endpoints:
            raise SimulationError(f"rank {rank} already attached")
        ep = Endpoint(self.env, self, rank)
        self.endpoints[rank] = ep
        return ep

    def _transfer(self, src_ep: Endpoint, dst: int, tag: str, payload: Any,
                  nbytes: float, done: Optional[Event]) -> _TransmitOp:
        """Build a transfer; its :meth:`_TransmitOp.start` claims the NIC."""
        dst_ep = self.endpoints.get(dst)
        if dst_ep is None:
            raise SimulationError(f"no endpoint with rank {dst}")
        msg = Message(src=src_ep.rank, dst=dst, tag=tag, payload=payload,
                      nbytes=nbytes, send_time=self.env._now)
        return _TransmitOp(self, src_ep, dst_ep, msg, nbytes, done)

    def post(self, src_ep: Endpoint, dst: int, tag: str,
             payload: Any, nbytes: float) -> None:
        """Fire-and-forget transfer, no Process spawned.

        The NIC is claimed by a front-lane starter hop rather than inline,
        so a caller's subsequent sends in the same step queue behind it in
        the same order as ``env.process(network.transmit(...))`` would put
        them.
        """
        op = self._transfer(src_ep, dst, tag, payload, nbytes, None)
        self.env._schedule_front(op.start)

    def transmit(self, src_ep: Endpoint, dst: int, tag: str,
                 payload: Any, nbytes: float) -> Generator:
        """Process body implementing one message transfer."""
        done = Event(self.env)
        op = self._transfer(src_ep, dst, tag, payload, nbytes, done)
        op.start()
        try:
            result = yield done
        finally:
            if not done.triggered:
                # Interrupted mid-transfer: free the NIC at this moment.
                op.cancel()
        return result

    def broadcast(self, src_ep: Endpoint, tag: str, payload: Any,
                  nbytes: float, ranks: Optional[Iterable[int]] = None) -> Generator:
        """Process: send to every (other) endpoint, serialized on the NIC.

        A flat broadcast matches the paper's master-to-slaves runtime-info
        broadcast at initialization; it is O(P) on the master's NIC, which is
        fine because it happens once.
        """
        targets = sorted(self.endpoints if ranks is None else ranks)
        for dst in targets:
            if dst == src_ep.rank:
                continue
            yield from self.transmit(src_ep, dst, tag, payload, nbytes)
