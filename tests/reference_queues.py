"""Reference model of the per-destination queue disciplines.

The dict-of-lists layout ``repro.bgp.queues`` used before its queues
became one destination-indexed slot list: a dict from destination to the
list of its queued updates, in arrival order.  Kept here only so
``tests/test_bgp_queues.py`` can check the slot layout against it,
operation by operation.
"""

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.bgp.messages import Update


class DictDestinationBatchQueue:
    """Per-destination logical queues as ``dest -> [Update, ...]``."""

    def __init__(self) -> None:
        self._order: Deque[int] = deque()
        self._by_dest: Dict[int, List[Update]] = {}
        self._size = 0

    def push(self, msg: Update) -> None:
        bucket = self._by_dest.get(msg.dest)
        if bucket is None:
            self._by_dest[msg.dest] = [msg]
            self._order.append(msg.dest)
        else:
            bucket.append(msg)
        self._size += 1

    def pop_batch(self) -> Tuple[List[Update], int]:
        dest = self._order.popleft()
        bucket = self._by_dest.pop(dest)
        self._size -= len(bucket)
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


class DictWithdrawalFirstBatchQueue(DictDestinationBatchQueue):
    """The withdrawal-first variant over the same dict layout."""

    def __init__(self) -> None:
        super().__init__()
        self._urgent: Deque[int] = deque()
        self._urgent_set: set = set()

    def push(self, msg: Update) -> None:
        super().push(msg)
        if msg.is_withdrawal and msg.dest not in self._urgent_set:
            self._urgent.append(msg.dest)
            self._urgent_set.add(msg.dest)

    def pop_batch(self) -> Tuple[List[Update], int]:
        while self._urgent:
            dest = self._urgent[0]
            if dest in self._by_dest:
                self._urgent.popleft()
                self._urgent_set.discard(dest)
                self._order.remove(dest)
                self._order.appendleft(dest)
                break
            self._urgent.popleft()
            self._urgent_set.discard(dest)
        return super().pop_batch()
