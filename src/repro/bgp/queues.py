"""Update-queue disciplines.

The paper's second contribution (Sec 4.4) is a change to how the update
queue at a router is organized:

* :class:`FIFOQueue` — the BGP default: messages processed strictly in
  arrival order, one decision per message (a ``deque`` with the interface
  below).  This is what generates invalid transient advertisements under
  overload.
* :class:`DestinationBatchQueue` — the paper's scheme: a logical queue per
  destination.  The server drains *all* queued updates for the head
  destination as one batch; within the batch, only the newest update from
  each neighbor is processed, older ones are deleted unprocessed ("we can
  delete multiple update messages from the same neighbor, as the older
  updates are now invalid").
* :class:`TCPBatchQueue` — the "batching carried out in BGP routers today"
  baseline from the end of Sec 4.4: read a fixed-size batch off the FIFO
  and deduplicate (destination, sender) pairs *within that batch only*.
  Effective for small failures, progressively useless for large ones — the
  behaviour the paper predicts.

All disciplines expose the same interface: ``push``, ``pop_batch`` (returns
the retained messages plus the number of stale messages deleted without
processing) and ``__len__`` (queued message count, the signal the dynamic
MRAI controller monitors).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple, Type

from repro.bgp.messages import Update


class QueueDiscipline:
    """Interface for update-queue disciplines."""

    def push(self, msg: Update) -> None:
        raise NotImplementedError

    def pop_batch(self) -> Tuple[List[Update], int]:
        """Next unit of work: (messages to process, stale messages deleted).

        Must only be called when the queue is non-empty.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FIFOQueue(deque, QueueDiscipline):
    """Strict arrival-order processing, one message at a time: a ``deque``
    (``len`` is its own)."""

    push = deque.append

    def pop_batch(self) -> Tuple[List[Update], int]:
        return [self.popleft()], 0


class DestinationBatchQueue(QueueDiscipline):
    """The paper's per-destination logical queues.

    Destinations are served in the arrival order of their *oldest* queued
    message (so the scheme is work-conserving and starvation-free); all
    messages for the served destination are drained together.

    The queues are one destination-indexed list, sized like the RIBs: a
    slot holds ``None``, the lone queued :class:`Update`, or — once a
    second one arrives — the list of them in arrival order.
    """

    def __init__(self, size: int) -> None:
        """An empty queue for destinations ``0 .. size - 1``."""
        self._order: Deque[int] = deque()
        self._slots: List[object] = [None] * size
        self._size = 0

    def push(self, msg: Update) -> None:
        dest = msg.dest
        slot = self._slots[dest]
        if slot is None:
            self._slots[dest] = msg
            self._order.append(dest)
        elif type(slot) is list:
            slot.append(msg)
        else:
            self._slots[dest] = [slot, msg]
        self._size += 1

    def pop_batch(self) -> Tuple[List[Update], int]:
        dest = self._order.popleft()
        slots = self._slots
        bucket = slots[dest]
        slots[dest] = None
        if type(bucket) is not list:
            self._size -= 1
            return [bucket], 0
        self._size -= len(bucket)
        # Keep only the newest update per sender; buckets are in arrival
        # order, so a later entry supersedes an earlier one from the same
        # neighbor.
        newest: Dict[int, Update] = {}
        for msg in bucket:
            newest[msg.sender] = msg
        if len(newest) == len(bucket):
            return bucket, 0
        retained_set = set(map(id, newest.values()))
        retained = [m for m in bucket if id(m) in retained_set]
        return retained, len(bucket) - len(retained)

    def __len__(self) -> int:
        return self._size


class WithdrawalFirstBatchQueue(DestinationBatchQueue):
    """Per-destination batching with bad-news-first scheduling.

    The paper's future work asks for batching "improved further to remove
    conflicting/superfluous updates" — the biggest remaining source of
    superfluous work is a node spending its processor on re-advertisements
    while a queued *withdrawal* would invalidate the very routes being
    re-advertised.  This variant serves destinations whose queued backlog
    contains a withdrawal before destinations with only announcements, so
    bad news (which prunes state and cancels pending work downstream)
    propagates at the head of the line.  Within a destination the batch
    semantics are identical to :class:`DestinationBatchQueue`.
    """

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self._urgent: Deque[int] = deque()
        self._urgent_set: set[int] = set()

    def push(self, msg: Update) -> None:
        super().push(msg)
        if msg.is_withdrawal and msg.dest not in self._urgent_set:
            self._urgent.append(msg.dest)
            self._urgent_set.add(msg.dest)

    def pop_batch(self) -> Tuple[List[Update], int]:
        # Prefer the oldest destination with a queued withdrawal; fall
        # back to plain arrival order.
        while self._urgent:
            dest = self._urgent[0]
            if self._slots[dest] is not None:
                self._urgent.popleft()
                self._urgent_set.discard(dest)
                self._order.remove(dest)
                self._order.appendleft(dest)
                break
            # The destination was already served via the normal order.
            self._urgent.popleft()
            self._urgent_set.discard(dest)
        return super().pop_batch()


class TCPBatchQueue(QueueDiscipline):
    """Fixed-size FIFO batches with within-batch deduplication.

    Models today's router practice of reading one TCP buffer per peer and
    processing the collected updates as a batch: duplicates (same
    destination *and* same sender) within one batch collapse to the newest,
    but two updates for the same destination rarely co-occur in a batch when
    many destinations are churning — exactly why the paper expects this
    scheme to fade for large failures.
    """

    def __init__(self, batch_size: int = 8) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._queue: Deque[Update] = deque()

    def push(self, msg: Update) -> None:
        self._queue.append(msg)

    def pop_batch(self) -> Tuple[List[Update], int]:
        take = min(self.batch_size, len(self._queue))
        batch = [self._queue.popleft() for __ in range(take)]
        newest: Dict[Tuple[int, int], Update] = {}
        for msg in batch:
            newest[(msg.dest, msg.sender)] = msg
        if len(newest) == len(batch):
            return batch, 0
        retained_set = set(map(id, newest.values()))
        retained = [m for m in batch if id(m) in retained_set]
        return retained, len(batch) - len(retained)

    def __len__(self) -> int:
        return len(self._queue)


#: Every queue discipline by name: the one list :func:`make_queue` builds
#: from and :class:`repro.bgp.config.BGPConfig` validates against.
QUEUES: Dict[str, Type[QueueDiscipline]] = {
    "fifo": FIFOQueue,
    "dest_batch": DestinationBatchQueue,
    "dest_batch_wf": WithdrawalFirstBatchQueue,
    "tcp_batch": TCPBatchQueue,
}


def make_queue(
    discipline: str, size: int, tcp_batch_size: int = 8
) -> QueueDiscipline:
    """Build the :data:`QUEUES` entry ``discipline`` for destinations
    ``0 .. size - 1`` (the per-destination disciplines index by them);
    ``tcp_batch_size`` sizes the ``"tcp_batch"`` discipline's batches."""
    cls = QUEUES.get(discipline)
    if cls is None:
        raise ValueError(f"unknown queue discipline {discipline!r}")
    if cls is TCPBatchQueue:
        return TCPBatchQueue(tcp_batch_size)
    if issubclass(cls, DestinationBatchQueue):
        return cls(size)
    return cls()
