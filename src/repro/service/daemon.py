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
  whose lifetime counters turn the queue's open trials into the ETA of
  the ``/status`` and ``/queue`` endpoints
  (:meth:`~repro.service.executor.QueueExecutor.eta_seconds`);
* a :class:`socketserver.ThreadingTCPServer` (daemon threads, address
  reuse) whose handler is :mod:`repro.service.api`'s, a
  :class:`socketserver.StreamRequestHandler` that reads and writes the
  HTTP itself: the daemon loads no :mod:`http.server`, and binding does
  no reverse lookup of the bound address (``socket.getfqdn``).

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
from repro.service.submission import SubmissionReceipt, ticket_status
from repro.store.result_store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from socketserver import ThreadingTCPServer


#: The longest ``[service]`` line the daemon writes, in characters; a
#: longer one (a request line may be 64 KiB) is cut to end in ``_LOG_CUT``.
MAX_LOG_LINE = 1024
_LOG_CUT = "...[cut]"
#: What the log escapes: C0 and C1 controls, DEL, the rest of Latin-1,
#: and the backslash, so an escape in the log is never the client's.
_LOG_ESCAPES = {
    code: f"\\x{code:02x}" for code in (*range(0x20), *range(0x7F, 0x100))
}
_LOG_ESCAPES[ord("\\")] = "\\\\"


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
    #: Silence the ``[service]`` lines on stderr.
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
        from repro.service.executor import QueueExecutor

        self.config = config
        self.backend = (
            backend if backend is not None else ResultStore(config.store)
        )
        self.stop_event = threading.Event()
        self.started_at = time.time()
        self.submissions = 0
        #: Trials the store answered at submission time, over all receipts.
        self.served_cached = 0
        self.executor = QueueExecutor(self.backend, config)
        self._server: Optional[ThreadingTCPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._executor_thread: Optional[threading.Thread] = None
        self._shutdown_done = False
        self._mutex = threading.Lock()
        #: HTTP handler threads note submissions concurrently.
        self._counts_lock = threading.Lock()

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
        from socketserver import ThreadingTCPServer

        from repro.service.api import make_handler

        class Server(ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        # Fork the pool workers while this process is still effectively
        # single-threaded; everything after this line may thread freely.
        if self.config.jobs > 1:
            get_worker_pool().prewarm(self.config.jobs)
        self._server = Server(
            (self.config.host, self.config.port), make_handler(self)
        )
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
            "served_cached": self.served_cached,
            "store": self.backend.stats(),
            "executor": self.executor.telemetry(),
            "pool": pool_stats(),
        }

    def queue_status(self) -> Dict[str, Any]:
        """Tasks per state, drain counters, and the ETA of the pending
        and running tasks (failed ones are no remaining work)."""
        queue = self.backend.queue_counts()
        return {
            "queue": queue,
            "executor": self.executor.telemetry(),
            "eta_seconds": self.executor.eta_seconds(
                queue["pending"] + queue["running"]
            ),
        }

    def ticket_status(self, ticket: str) -> Dict[str, Any]:
        """One ticket's :func:`~repro.service.submission.ticket_status`
        plus its ETA: 0.0 once none of its trials is pending or running,
        else the whole queue's, which its open trials wait behind."""
        status = ticket_status(ticket, self.backend)
        status["eta_seconds"] = (
            self.queue_status()["eta_seconds"]
            if status["pending"] or status["running"]
            else 0.0
        )
        return status

    def note_submission(self, receipt: SubmissionReceipt) -> None:
        with self._counts_lock:
            self.submissions += 1
            self.served_cached += receipt.cached
        self.log(receipt.summary())

    # ------------------------------------------------------------------
    def log(self, message: str) -> None:
        """One ``[service]`` line on stderr, unless quiet: control and
        non-ASCII characters escaped as ``\\xNN`` (a request line is the
        client's bytes), and cut to :data:`MAX_LOG_LINE` characters."""
        if self.config.quiet:
            return
        line = f"[service] {message}".translate(_LOG_ESCAPES)
        if len(line) > MAX_LOG_LINE:
            line = line[: MAX_LOG_LINE - len(_LOG_CUT)] + _LOG_CUT
        print(line, file=sys.stderr, flush=True)
