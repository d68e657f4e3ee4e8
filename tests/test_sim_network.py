"""Unit tests for the interconnect model."""

import pytest

from repro.sim import Environment, Network, NetworkSpec, QDR_INFINIBAND, SimulationError


def make_net(num_nodes=2, spec=None):
    env = Environment()
    net = Network(env, spec or NetworkSpec("test", bandwidth_bps=1e9, latency_s=1e-3))
    eps = [net.attach(i) for i in range(num_nodes)]
    return env, net, eps


def test_transfer_time_formula():
    spec = NetworkSpec("t", bandwidth_bps=1e9, latency_s=1e-3, per_message_overhead_s=1e-4)
    assert spec.transfer_time(1e9) == pytest.approx(1e-4 + 1e-3 + 1.0)


def test_message_delivery_and_timing():
    env, net, (a, b) = make_net()

    def sender():
        yield from a.send(1, "data", payload={"x": 1}, nbytes=1e9)

    env.process(sender())
    env.run()
    (msg,) = b.mailbox
    # 1 GB at 1 GB/s = 1 s serialize + 1 ms latency
    assert msg.payload == {"x": 1}
    assert msg.recv_time == pytest.approx(1.001)
    assert not a.mailbox


def test_sends_from_one_node_serialize_on_nic():
    env, net, (a, b) = make_net()

    def sender():
        yield from a.send(1, "m1", nbytes=1e9)

    def sender2():
        yield from a.send(1, "m2", nbytes=1e9)

    env.process(sender())
    env.process(sender2())
    env.run()
    # Second message waits for the first to leave the NIC.
    assert [m.tag for m in b.mailbox] == ["m1", "m2"]
    assert [m.recv_time for m in b.mailbox] == [pytest.approx(1.001),
                                                pytest.approx(2.001)]


def test_sends_from_different_nodes_parallel():
    env, net, eps = make_net(3)

    def sender(ep):
        yield from ep.send(2, "m", nbytes=1e9)

    env.process(sender(eps[0]))
    env.process(sender(eps[1]))
    env.run()
    assert [m.recv_time for m in eps[2].mailbox] == [pytest.approx(1.001),
                                                     pytest.approx(1.001)]


def test_armed_receiver_runs_once_per_arm():
    """An armed hop runs at the next delivery, or at once when a message
    already waits, and takes the oldest message; it does not re-arm."""
    env, net, (a, b) = make_net()
    taken = []

    class Receiver:  # a hop is a zero-argument bound method
        def take(self):
            msg = b.mailbox.popleft()
            taken.append((msg.tag, env.now))

    receiver = Receiver()
    b.arm(receiver.take)

    def sender():
        yield from a.send(1, "m1", nbytes=1e9)
        yield from a.send(1, "m2", nbytes=1e9)

    env.process(sender())
    env.run()
    assert taken == [("m1", pytest.approx(1.001))]
    assert [m.tag for m in b.mailbox] == ["m2"]
    b.arm(receiver.take)
    env.run()
    assert taken[1:] == [("m2", pytest.approx(2.002))]
    assert not b.mailbox


def test_statistics_accumulate():
    env, net, (a, b) = make_net()

    def sender():
        yield from a.send(1, "m", nbytes=500)
        yield from a.send(1, "m", nbytes=700)

    env.process(sender())
    env.run()
    assert a.bytes_sent == 1200
    assert a.messages_sent == 2
    assert b.bytes_received == 1200
    assert net.total_messages == 2


def test_broadcast_reaches_all_other_nodes():
    env, net, eps = make_net(4)

    def master():
        yield from net.broadcast(eps[0], "init", {"n": 42}, nbytes=100)

    env.process(master())
    env.run()
    got = [(ep.rank, msg.tag, msg.payload["n"])
           for ep in eps for msg in ep.mailbox]
    assert got == [(1, "init", 42), (2, "init", 42), (3, "init", 42)]


def test_send_to_unknown_rank_raises():
    env, net, (a, b) = make_net()

    def sender():
        yield from a.send(99, "m", nbytes=10)

    env.process(sender())
    with pytest.raises(SimulationError):
        env.run()


def test_duplicate_attach_rejected():
    env = Environment()
    net = Network(env, QDR_INFINIBAND)
    net.attach(0)
    with pytest.raises(SimulationError):
        net.attach(0)


def test_qdr_infiniband_is_fast():
    # The DAS-4 network: ~3.2 GB/s, microsecond latency.
    t = QDR_INFINIBAND.transfer_time(3.2e9)
    assert 1.0 < t < 1.01
