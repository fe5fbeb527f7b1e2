"""The storage contract the campaign service is written against.

The service layers (submission planner, executor, HTTP API) never touch
SQL — every persistent effect goes through :class:`StoreBackend`, a
:class:`typing.Protocol` describing exactly the store surface the
service consumes: trial cache reads/writes, the durable work queue, and
tickets.  :class:`repro.store.ResultStore` satisfies it structurally
(no inheritance needed) and is what :class:`CampaignService` opens from
its configured store path; tests pass a fake through its ``backend=``
argument.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.store.queue import QueueTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.experiment import TrialResult


@runtime_checkable
class StoreBackend(Protocol):
    """Everything the campaign service needs from persistent storage.

    Implementations must be safe to share between threads of one
    process and between cooperating processes on the same backing
    store — the SQLite implementation documents how it achieves that in
    :mod:`repro.store.result_store`.
    """

    # -- trial cache ---------------------------------------------------
    def has(self, key: str) -> bool: ...

    def get(self, key: str) -> Optional["TrialResult"]: ...

    def put(
        self,
        key: str,
        trial: "TrialResult",
        fingerprint: Optional[Dict[str, Any]] = None,
    ) -> None: ...

    def provenance(self, key: str) -> Optional[Dict[str, Any]]: ...

    # -- work queue ----------------------------------------------------
    def enqueue(
        self, key: str, payload: Dict[str, Any], ticket: Optional[str] = None
    ) -> Tuple[int, bool]: ...

    def lease_tasks(
        self,
        owner: str,
        limit: int,
        lease_seconds: float,
        now: Optional[float] = None,
    ) -> List[QueueTask]: ...

    def heartbeat_tasks(
        self,
        owner: str,
        task_ids: Iterable[int],
        lease_seconds: float,
        now: Optional[float] = None,
    ) -> int: ...

    def complete_task(self, task_id: int) -> None: ...

    def fail_task(
        self, task_id: int, error: str, retry_at: Optional[float] = None
    ) -> str: ...

    def release_tasks(
        self, owner: str, task_ids: Optional[Iterable[int]] = None
    ) -> int: ...

    def queue_counts(self) -> Dict[str, int]: ...

    def queue_entries(
        self, state: Optional[str] = None, limit: Optional[int] = None
    ) -> List[QueueTask]: ...

    def queue_states_for(
        self, keys: Sequence[str]
    ) -> Dict[str, Dict[str, Any]]: ...

    # -- tickets + manifests -------------------------------------------
    def record_ticket(
        self,
        ticket: str,
        name: str,
        keys: Sequence[str],
        campaign: Optional[Dict[str, Any]] = None,
    ) -> None: ...

    def ticket_info(self, ticket: str) -> Optional[Dict[str, Any]]: ...

    def record_campaign(
        self, name: str, manifest: Dict[str, Any]
    ) -> int: ...

    # -- operations ----------------------------------------------------
    def stats(self) -> Dict[str, Any]: ...

    def close(self) -> None: ...
