"""Property tests for the WorkDeque discipline (Sec. II-A).

The double-ended queue contract: the owner pushes and pops at the *new*
end (LIFO), thieves take from the *old* end (FIFO), blocked waiters are
served in arrival order, and the depth observer fires after every push —
including the direct waiter-handoff fast path, where the job never touches
the queue.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.satin.job import Job
from repro.satin.queues import WorkDeque
from repro.sim import Environment


def _job(env, i):
    return Job(task=i, origin_rank=0, depth=0, manycore=False,
               done=env.event(), id=i)


def _deque(observer=None):
    env = Environment()
    return env, WorkDeque(env, observer=observer)


# --------------------------------------------------------------------------
# ordering discipline
# --------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=50))
def test_owner_pops_are_lifo(n):
    env, dq = _deque()
    for i in range(n):
        dq.push(_job(env, i))
    popped = [dq.pop().id for _ in range(n)]
    assert popped == list(reversed(range(n)))
    assert dq.pop() is None


@given(st.integers(min_value=1, max_value=50))
def test_thief_takes_are_fifo(n):
    env, dq = _deque()
    for i in range(n):
        dq.push(_job(env, i))
    stolen = [dq.steal().id for _ in range(n)]
    assert stolen == list(range(n))
    assert dq.steal() is None


@given(st.lists(st.sampled_from(["push", "pop", "steal"]),
                min_size=1, max_size=200))
def test_mixed_ops_match_list_model(ops):
    """The deque behaves as a plain list: push appends, pop takes the
    back, steal takes the front."""
    env, dq = _deque()
    model = []
    next_id = 0
    for op in ops:
        if op == "push":
            dq.push(_job(env, next_id))
            model.append(next_id)
            next_id += 1
        elif op == "pop":
            job = dq.pop()
            assert (job.id if job else None) == (model.pop() if model else None)
        else:
            job = dq.steal()
            assert (job.id if job else None) == (model.pop(0) if model else None)
        assert len(dq) == len(model)
        assert [j.id for j in dq.items] == model


@given(st.integers(min_value=1, max_value=20))
def test_waiters_served_in_arrival_order(n):
    """Blocked waiters get jobs first-come first-served."""
    env, dq = _deque()
    waits = [dq.wait() for _ in range(n)]
    assert not any(ev.triggered for ev in waits)
    for i in range(n):
        dq.push(_job(env, 100 + i))
    for i, ev in enumerate(waits):
        assert ev.triggered
        assert ev.value.id == 100 + i
    # all jobs went straight to waiters; the queue itself stayed empty
    assert len(dq) == 0


def test_wait_pops_immediately_when_items_exist():
    env, dq = _deque()
    dq.push(_job(env, 1))
    ev = dq.wait()
    assert ev.triggered and ev.value.id == 1
    assert len(dq) == 0


def test_cancel_wait_requeues_won_job_without_double_count():
    env, dq = _deque()
    ev = dq.wait()
    dq.push(_job(env, 7))
    assert ev.triggered
    dq.cancel_wait(ev)
    assert dq.pop().id == 7
    assert dq.pop() is None  # requeued once, not twice


# --------------------------------------------------------------------------
# depth observer (the waiter-handoff regression)
# --------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10),
       st.integers(min_value=1, max_value=10))
def test_observer_fires_on_every_push_including_handoff(waiters, pushes):
    """The observer contract is "after every push" — the direct handoff
    to a blocked waiter must still produce a depth sample."""
    samples = []
    env, dq = _deque(observer=samples.append)
    waits = [dq.wait() for _ in range(waiters)]
    for i in range(pushes):
        dq.push(_job(env, i))
    assert len(samples) == pushes
    # handoff pushes sample the bypassed queue (depth 0); queued pushes
    # sample the growing queue
    handoffs = min(waiters, pushes)
    assert samples[:handoffs] == [0] * handoffs
    assert samples[handoffs:] == list(range(1, pushes - handoffs + 1))
    for ev in waits[:handoffs]:
        assert ev.triggered
