"""The campaign daemon: HTTP API + executor thread + graceful drain.

:class:`CampaignService` wires the pieces into one long-running process:

* one :class:`~repro.store.result_store.ResultStore` handle, shared (it
  is internally locked) between the HTTP handler threads and the
  executor thread;
* the process-wide warm :class:`~repro.core.parallel.WorkerPool`,
  prewarmed *before* any server thread starts — under the ``fork``
  start method children must not be forked from a multi-threaded
  parent — so the first cold trial pays no spin-up;
* a :class:`~repro.service.executor.QueueExecutor` on a daemon thread,
  feeding a :class:`~repro.obs.live.LiveMonitor` whose busy-seconds ETA
  backs the ``/status`` and ``/queue`` endpoints;
* an :class:`http.server.ThreadingHTTPServer` running
  :mod:`repro.service.api`.

Shutdown (SIGTERM/SIGINT, or :meth:`request_shutdown`) is a *drain*:
new submissions start returning 503, the executor finishes its
in-flight batch and hands leased-but-unexecuted tasks back to the
queue, the worker pool is closed within a bounded join, and the HTTP
server stops last — so a supervisor's TERM never loses a banked result
or strands a lease.  Every queue mutation was already durable, so even
SIGKILL only costs in-flight trials (their leases expire and another
executor re-runs them).
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.core.parallel import get_worker_pool, shutdown_worker_pool
from repro.obs.live import LiveMonitor
from repro.obs.session import ObsSession

from repro.service.api import make_handler
from repro.service.executor import QueueExecutor
from repro.service.submission import SubmissionReceipt
from repro.store.result_store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from http.server import ThreadingHTTPServer


@dataclass
class ServiceConfig:
    """Everything ``repro-bgp serve`` can set."""

    store: str
    host: str = "127.0.0.1"
    #: 0 = let the OS pick (the bound port lands in the ready file).
    port: int = 8351
    #: The executor's pool fan-out, tasks per lease, lease length (it must
    #: outlast one trial's attempts) and idle sleep between empty polls.
    jobs: int = 1
    batch_size: int = 16
    lease_seconds: float = 120.0
    poll_interval: float = 0.25
    #: Shutdown budget for the executor join + pool close.
    drain_timeout: float = 15.0
    #: Written (JSON: host/port/pid/store) once the server is accepting —
    #: how scripts and CI learn the bound port without racing the boot.
    ready_file: Optional[str] = None
    #: LiveMonitor heartbeat JSONL path (optional).
    heartbeat: Optional[str] = None
    #: Silence the status line (heartbeat/API telemetry still work).
    quiet: bool = False


class CampaignService:
    """One daemon instance: build with a config, ``run()`` until TERM.

    Tests drive the pieces directly (:meth:`start`, HTTP via a client,
    :meth:`shutdown`); the CLI calls :meth:`run`, which adds signal
    handlers around the same lifecycle.
    """

    def __init__(
        self,
        config: ServiceConfig,
        backend: Optional[ResultStore] = None,
    ) -> None:
        self.config = config
        self.backend = (
            backend if backend is not None else ResultStore(config.store)
        )
        self.stop_event = threading.Event()
        self.started_at = time.time()
        self.submissions = 0
        self.obs = ObsSession()
        self.monitor = LiveMonitor(
            jobs=max(1, config.jobs),
            session=self.obs,
            stream=None if config.quiet else sys.stderr,
            heartbeat=config.heartbeat,
            label="service",
        )
        self.executor = QueueExecutor(
            self.backend, config, obs=self.obs, monitor=self.monitor
        )
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._executor_thread: Optional[threading.Thread] = None
        self._shutdown_done = False
        self._mutex = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def stopping(self) -> bool:
        return self.stop_event.is_set()

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.server_address[1]

    def start(self) -> None:
        """Boot: prewarm pool, start executor thread, bind HTTP server."""
        from http.server import ThreadingHTTPServer

        # Fork the pool workers while this process is still effectively
        # single-threaded; everything after this line may thread freely.
        if self.config.jobs > 1:
            get_worker_pool().prewarm(self.config.jobs)
        self._server = ThreadingHTTPServer(
            (self.config.host, self.config.port), make_handler(self)
        )
        self._server.daemon_threads = True
        self._executor_thread = threading.Thread(
            target=self.executor.drain,
            kwargs={"stop": self.stop_event},
            name="repro-service-executor",
            daemon=True,
        )
        self._executor_thread.start()
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service-http",
            daemon=True,
        )
        self._server_thread.start()
        self._write_ready_file()

    def _write_ready_file(self) -> None:
        if not self.config.ready_file:
            return
        import os

        path = Path(self.config.ready_file)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "host": self.config.host,
                    "port": self.port,
                    "pid": os.getpid(),
                    "store": self.config.store,
                },
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )

    def request_shutdown(self) -> None:
        """Flip to draining (idempotent, callable from signal context)."""
        self.stop_event.set()

    def shutdown(self) -> None:
        """Drain and stop everything; safe to call more than once."""
        with self._mutex:
            if self._shutdown_done:
                return
            self._shutdown_done = True
        self.stop_event.set()
        if self._executor_thread is not None:
            # The executor settles the outcome it is waiting on, sees
            # the stop flag and releases the rest of its batch.
            self._executor_thread.join(self.config.drain_timeout)
        # Anything still leased by us (the join timed out) goes straight
        # back to pending for the next executor.
        try:
            self.backend.release_tasks(self.executor.owner)
        except Exception:  # noqa: BLE001 - shutdown must not throw
            pass
        shutdown_worker_pool(timeout=self.config.drain_timeout)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._server_thread is not None:
            self._server_thread.join(2.0)
        self.monitor.finish()
        try:
            self.backend.close()
        except Exception:  # noqa: BLE001 - shutdown must not throw
            pass

    def run(self) -> int:
        """CLI entry: start, serve until SIGTERM/SIGINT, drain, exit 0."""

        def handle(signum: int, _frame: Any) -> None:
            self.log(f"signal {signal.Signals(signum).name}: draining")
            self.request_shutdown()

        previous = {
            sig: signal.signal(sig, handle)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            self.start()
            self.log(
                f"serving on http://{self.config.host}:{self.port} "
                f"(store {self.config.store}, jobs {self.config.jobs})"
            )
            while not self.stop_event.wait(0.2):
                pass
        finally:
            self.shutdown()
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        self.log("drained cleanly")
        return 0

    # ------------------------------------------------------------------
    # Telemetry for the API layer
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        from repro.core.parallel import pool_stats

        return {
            "status": "draining" if self.stopping else "ok",
            "uptime_seconds": round(time.time() - self.started_at, 1),
            "submissions": self.submissions,
            "store": self.backend.stats(),
            "executor": self.executor.telemetry(),
            "session": self.obs.counters_snapshot(),
            "pool": pool_stats(),
            "live": self.monitor.snapshot(),
        }

    def queue_status(self) -> Dict[str, Any]:
        status = {
            "queue": self.backend.queue_counts(),
            "executor": self.executor.telemetry(),
        }
        self.annotate_eta(status)
        return status

    def annotate_eta(self, payload: Dict[str, Any]) -> None:
        """Attach the LiveMonitor's busy-seconds ETA to a response."""
        eta = self.monitor.eta_seconds()
        payload["eta_seconds"] = (
            round(eta, 1) if eta != float("inf") else None
        )

    def note_submission(self, receipt: SubmissionReceipt) -> None:
        self.submissions += 1
        if self.obs is not None:
            # Cache-hit accounting mirrors run_campaign: one hit per
            # trial served from the store at submission time.
            for _ in range(receipt.cached):
                self.obs.note_cache(True)
        self.log(receipt.summary())

    # ------------------------------------------------------------------
    def log(self, message: str) -> None:
        if not self.config.quiet:
            print(f"[service] {message}", file=sys.stderr, flush=True)

    def log_request_line(self, line: str) -> None:
        if not self.config.quiet:
            print(f"[service] http {line}", file=sys.stderr, flush=True)
