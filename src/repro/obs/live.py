"""Live campaign/sweep telemetry: status line, heartbeat stream, watch.

Long grids would otherwise run dark until the store's counters can be
read after the fact.  This module is the operator-facing layer:

* :class:`LiveMonitor` — a fold of the
  :class:`~repro.core.batch.BatchOutcome` stream a run's per-trial hook
  sees (hand it to a driver as ``on_outcome=monitor``; a figure's grids
  all reach the same monitor, so it reports the whole run): it renders
  a terminal status line (trials done/cached/failed, store hit rate,
  worker utilization, ETA) and optionally appends one JSON line per
  render to a *heartbeat* file other processes can tail;
* :func:`watch_campaign` — the render behind ``repro-bgp campaign
  watch``: per-cell cached/missing/failed counts against the store plus
  the latest heartbeat, re-renderable until the grid completes.

The ETA is :func:`repro.core.batch.eta_seconds`, the rule the service
executor reports too: executed trials' simulation wall seconds
extrapolated over the open trials and the workers.  Store hits carry no
wall time, so a cached prefix leaves the ETA unknown until a trial has
executed instead of projecting lookup speed onto the cold trials.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    IO,
    Optional,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.batch import BatchOutcome
    from repro.store.campaign import Campaign
    from repro.store.result_store import ResultStore

__all__ = [
    "LiveMonitor",
    "last_heartbeat",
    "watch_campaign",
]

class LiveMonitor:
    """Terminal status line + heartbeat JSONL from settled trials.

    Call the monitor with each :class:`~repro.core.batch.BatchOutcome`
    (it *is* a per-outcome hook); call :meth:`finish` when the run ends
    to render what is still unrendered, terminate the status line and
    close the heartbeat file.  An executed or failed outcome renders at
    once; a store hit only joins the counters, so a cached prefix shows
    up in the next render (or in :meth:`finish`'s) rather than one line
    per hit.

    Parameters
    ----------
    total:
        Trials the whole run settles (every grid of a figure).
    jobs:
        Worker count of the run (for the utilization and ETA
        denominators).
    stream:
        Where the status line goes (None for heartbeat-only monitoring
        with no terminal output).  On a TTY the line redraws in place
        with ``\\r``; otherwise one line per render.
    heartbeat:
        Optional path: every render appends one JSON object line with
        the full telemetry snapshot (see :meth:`snapshot`).
    label:
        What the run is (a campaign name, a figure id).
    """

    def __init__(
        self,
        *,
        total: int,
        jobs: int = 1,
        stream: Optional[IO[str]],
        heartbeat: Optional[Union[str, Path]] = None,
        label: str = "",
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.total = total
        self.jobs = jobs
        self.stream = stream
        self.label = label
        self.done = 0
        self.cached = 0
        #: Failed executions, retried ones included.
        self.failed = 0
        #: Simulation wall seconds of the executed trials.
        self.busy_seconds = 0.0
        self.renders = 0
        self._start = time.perf_counter()
        self._unrendered = False
        self._heartbeat_path = Path(heartbeat) if heartbeat else None
        self._heartbeat_file: Optional[IO[str]] = None
        self._finished = False
        # snapshot() may be read from another thread than the one that
        # folds outcomes; a reentrant lock (render calls snapshot) keeps
        # the counters and the record rendered from them consistent.
        self._mutex = threading.RLock()

    # ------------------------------------------------------------------
    def __call__(self, outcome: "BatchOutcome") -> None:
        """Fold one settled trial; render unless it was a store hit."""
        with self._mutex:
            if outcome.error is not None:
                self.failed += 1
            else:
                self.done += 1
                if outcome.cached:
                    self.cached += 1
                    self._unrendered = True
                    return
                trial = outcome.trial
                self.busy_seconds += trial.warmup_wall + trial.convergence_wall
            self.render()

    # -- derived telemetry ---------------------------------------------
    def elapsed(self) -> float:
        """Wall seconds since the monitor was built."""
        return time.perf_counter() - self._start

    def hit_rate(self) -> float:
        """The share of done trials the store served."""
        return self.cached / self.done if self.done else 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of worker capacity spent simulating (busy / jobs x
        elapsed)."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (elapsed * self.jobs))

    def eta_seconds(self) -> Optional[float]:
        """:func:`repro.core.batch.eta_seconds` of the trials still open;
        None until a trial has executed."""
        # Imported here: `campaign watch` loads this module, not the
        # batch runner.
        from repro.core.batch import eta_seconds

        return eta_seconds(
            self.total - self.done,
            self.busy_seconds,
            self.done - self.cached,
            self.jobs,
        )

    def snapshot(self) -> Dict[str, Any]:
        """The full telemetry record (one heartbeat line's payload)."""
        with self._mutex:
            elapsed = self.elapsed()
            return {
                "kind": "heartbeat",
                "ts": time.time(),
                "label": self.label,
                "done": self.done,
                "total": self.total,
                "cached": self.cached,
                "failed": self.failed,
                "hit_rate": round(self.hit_rate(), 4),
                "elapsed_seconds": round(elapsed, 3),
                "busy_seconds": round(self.busy_seconds, 3),
                "jobs": self.jobs,
                "utilization": round(self.utilization(elapsed), 4),
                "eta_seconds": self.eta_seconds(),
            }

    def status_line(self) -> str:
        with self._mutex:
            elapsed = self.elapsed()
            eta = self.eta_seconds()
            parts = [
                f"[{self.done}/{self.total}]",
                self.label,
                f"cached {self.cached}",
            ]
            if self.failed:
                parts.append(f"failed {self.failed}")
            if self.cached:
                parts.append(f"hit {self.hit_rate():.0%}")
            if self.jobs > 1:
                parts.append(f"util {self.utilization(elapsed):.0%}")
            parts.append(f"elapsed {elapsed:.0f}s")
            parts.append("eta ?" if eta is None else f"eta {eta:.0f}s")
            return " ".join(p for p in parts if p)

    # ------------------------------------------------------------------
    def render(self) -> None:
        with self._mutex:
            line = self.status_line()
            if self.stream is not None:
                if self.stream.isatty():
                    self.stream.write("\r\x1b[2K" + line)
                else:
                    self.stream.write(line + "\n")
                self.stream.flush()
            self._write_heartbeat()
            self.renders += 1
            self._unrendered = False

    def _write_heartbeat(self) -> None:
        if self._heartbeat_path is None:
            return
        if self._heartbeat_file is None:
            if self._heartbeat_path.parent != Path(""):
                self._heartbeat_path.parent.mkdir(
                    parents=True, exist_ok=True
                )
            self._heartbeat_file = self._heartbeat_path.open(
                "a", encoding="utf-8"
            )
        self._heartbeat_file.write(
            json.dumps(self.snapshot(), sort_keys=True) + "\n"
        )
        self._heartbeat_file.flush()

    def finish(self) -> None:
        """Render folded store hits no render has shown yet, terminate
        the status line and close the heartbeat file."""
        with self._mutex:
            if self._finished:
                return
            self._finished = True
            if self._unrendered:
                self.render()
            if self.renders and self.stream is not None:
                if self.stream.isatty():
                    self.stream.write("\n")
                self.stream.flush()
            if self._heartbeat_file is not None:
                self._heartbeat_file.close()
                self._heartbeat_file = None

    def __enter__(self) -> "LiveMonitor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.finish()


def last_heartbeat(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The most recent parseable heartbeat record in a JSONL file.

    Returns None for a missing/empty file; a truncated trailing line
    (the writer may be mid-append) falls back to the previous one.
    """
    path = Path(path)
    if not path.exists():
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    for line in reversed(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            return record
    return None


def watch_campaign(
    campaign: "Campaign",
    store: "ResultStore",
    heartbeat: Optional[Union[str, Path]] = None,
) -> str:
    """One render of a campaign's live state (``campaign watch``).

    Per-cell cached/missing/failed counts from the store (so a
    partially-complete grid is debuggable at a glance), the aggregate
    completion bar, and — when a heartbeat file is being written by a
    concurrently running ``campaign run --heartbeat`` — the live ETA /
    utilization line from its latest record.
    """
    from repro.store.campaign import campaign_status

    status = campaign_status(campaign, store)
    fraction = status.cached / status.total if status.total else 1.0
    bar_width = 30
    filled = int(round(fraction * bar_width))
    bar = "#" * filled + "-" * (bar_width - filled)
    lines = [
        f"campaign {status.name}: [{bar}] {fraction:.0%} "
        f"({status.cached}/{status.total} trials cached)",
        status.render(),
    ]
    if heartbeat is not None:
        record = last_heartbeat(heartbeat)
        if record is not None:
            age = time.time() - float(record.get("ts", 0.0))
            eta = record.get("eta_seconds")
            eta_text = "?" if eta is None else f"{eta:.0f}s"
            lines.append(
                f"heartbeat ({age:.0f}s ago): "
                f"[{record.get('done', '?')}/{record.get('total', '?')}] "
                f"util {float(record.get('utilization', 0.0)):.0%} "
                f"eta {eta_text}"
            )
        else:
            lines.append(f"heartbeat: no records yet at {heartbeat}")
    lines.append(
        "status: complete"
        if status.complete
        else f"status: in flight ({status.missing} trials to go)"
    )
    return "\n".join(lines)
