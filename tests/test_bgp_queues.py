"""Unit tests for the update-queue disciplines."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.messages import Update
from repro.bgp.queues import (
    QUEUES,
    DestinationBatchQueue,
    FIFOQueue,
    TCPBatchQueue,
    WithdrawalFirstBatchQueue,
    make_queue,
)
from repro.specs.serialize import validate_scheme
from tests.reference_queues import (
    DictDestinationBatchQueue,
    DictWithdrawalFirstBatchQueue,
)


def msg(dest, sender, path=(1,)):
    return Update(dest, path, sender)


def wd(dest, sender):
    return Update(dest, None, sender)


# ---------------------------------------------------------------------------
# FIFO
# ---------------------------------------------------------------------------
def test_fifo_order_one_at_a_time():
    q = FIFOQueue()
    messages = [msg(1, 10), msg(2, 11), msg(1, 12)]
    for m in messages:
        q.push(m)
    assert len(q) == 3
    out = []
    while len(q):
        batch, dropped = q.pop_batch()
        assert dropped == 0
        assert len(batch) == 1
        out.append(batch[0])
    assert out == messages


def test_fifo_clear():
    q = FIFOQueue()
    q.push(msg(1, 10))
    q.clear()
    assert len(q) == 0


# ---------------------------------------------------------------------------
# Destination batching (the paper's scheme)
# ---------------------------------------------------------------------------
def test_dest_batch_drains_whole_destination():
    q = DestinationBatchQueue(8)
    q.push(msg(1, 10))
    q.push(msg(2, 11))
    q.push(msg(1, 12))
    batch, dropped = q.pop_batch()
    assert dropped == 0
    assert [m.dest for m in batch] == [1, 1]
    assert {m.sender for m in batch} == {10, 12}
    assert len(q) == 1
    batch2, __ = q.pop_batch()
    assert [m.dest for m in batch2] == [2]


def test_dest_batch_serves_destinations_in_arrival_order():
    q = DestinationBatchQueue(8)
    q.push(msg(5, 1))
    q.push(msg(3, 1))
    q.push(msg(5, 2))
    first, __ = q.pop_batch()
    assert first[0].dest == 5
    second, __ = q.pop_batch()
    assert second[0].dest == 3


def test_dest_batch_drops_stale_from_same_neighbor():
    q = DestinationBatchQueue(8)
    old = msg(1, 10, path=(9, 8))
    newer = msg(1, 10, path=(7,))
    other = msg(1, 11, path=(5,))
    q.push(old)
    q.push(other)
    q.push(newer)
    batch, dropped = q.pop_batch()
    assert dropped == 1
    assert newer in batch
    assert other in batch
    assert old not in batch


def test_dest_batch_withdrawal_supersedes_announcement():
    q = DestinationBatchQueue(8)
    q.push(msg(1, 10, path=(2,)))
    q.push(wd(1, 10))
    batch, dropped = q.pop_batch()
    assert dropped == 1
    assert len(batch) == 1
    assert batch[0].is_withdrawal


def test_dest_batch_len_counts_messages():
    q = DestinationBatchQueue(8)
    for i in range(5):
        q.push(msg(i % 2, sender=i))
    assert len(q) == 5
    q.pop_batch()
    assert len(q) == 2


def test_dest_batch_reuse_destination_after_drain():
    q = DestinationBatchQueue(8)
    q.push(msg(1, 10))
    q.pop_batch()
    q.push(msg(1, 11))
    batch, __ = q.pop_batch()
    assert batch[0].sender == 11


_QUEUE_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=3),
            st.booleans(),
        ),
        st.tuples(st.just("pop_batch")),
    ),
    max_size=80,
)


@pytest.mark.parametrize(
    "slots, reference",
    [
        (DestinationBatchQueue, DictDestinationBatchQueue),
        (WithdrawalFirstBatchQueue, DictWithdrawalFirstBatchQueue),
    ],
)
@given(operations=_QUEUE_OPERATIONS)
def test_slot_queues_match_the_dict_reference(slots, reference, operations):
    """The destination-indexed slot list serves exactly what the old
    dict of per-destination lists served: the same messages (by
    identity) in every batch, the same stale count and the same length
    after every push and pop_batch."""
    q, model = slots(6), reference()
    for op, *args in operations:
        if op == "push":
            dest, sender, withdrawal = args
            m = wd(dest, sender) if withdrawal else msg(dest, sender, (sender,))
            q.push(m)
            model.push(m)
        elif op == "pop_batch":
            if not len(model):
                continue
            (batch, dropped), (want, want_dropped) = q.pop_batch(), model.pop_batch()
            assert list(map(id, batch)) == list(map(id, want))
            assert dropped == want_dropped
        assert len(q) == len(model)


# ---------------------------------------------------------------------------
# TCP-style batching (the Sec 4.4 baseline)
# ---------------------------------------------------------------------------
def test_tcp_batch_takes_fixed_size():
    q = TCPBatchQueue(batch_size=3)
    for i in range(5):
        q.push(msg(i, sender=i))
    batch, dropped = q.pop_batch()
    assert dropped == 0
    assert [m.dest for m in batch] == [0, 1, 2]
    assert len(q) == 2


def test_tcp_batch_dedups_within_batch_only():
    q = TCPBatchQueue(batch_size=2)
    first = msg(1, 10, path=(2,))
    second = msg(1, 10, path=(3,))
    third = msg(1, 10, path=(4,))
    q.push(first)
    q.push(second)
    q.push(third)
    batch, dropped = q.pop_batch()
    # first and second fall in the same batch -> dedup to second.
    assert dropped == 1
    assert batch == [second]
    batch2, dropped2 = q.pop_batch()
    # third is alone in the next batch: no chance to dedup.
    assert dropped2 == 0
    assert batch2 == [third]


def test_tcp_batch_different_senders_not_dedupped():
    q = TCPBatchQueue(batch_size=4)
    q.push(msg(1, 10))
    q.push(msg(1, 11))
    batch, dropped = q.pop_batch()
    assert dropped == 0
    assert len(batch) == 2


def test_tcp_batch_size_validation():
    with pytest.raises(ValueError):
        TCPBatchQueue(batch_size=0)


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------
def test_make_queue():
    assert isinstance(make_queue("fifo", 8), FIFOQueue)
    assert isinstance(make_queue("dest_batch", 8), DestinationBatchQueue)
    tcp = make_queue("tcp_batch", 8, tcp_batch_size=5)
    assert isinstance(tcp, TCPBatchQueue)
    assert tcp.batch_size == 5
    with pytest.raises(ValueError):
        make_queue("bogus", 8)


def test_spec_registry_names_every_queue():
    # Scheme dicts accept exactly the disciplines QUEUES lists.
    for name in QUEUES:
        assert validate_scheme({"queue": name}).queue_discipline == name
    with pytest.raises(ValueError, match=r"choose from \['dest_batch'"):
        validate_scheme({"queue": "lifo"})
