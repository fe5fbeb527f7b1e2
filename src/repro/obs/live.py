"""Live campaign/sweep telemetry: status line, heartbeat stream, watch.

Long grids used to run dark: the only signals were per-trial
:class:`~repro.core.experiment.Progress` ticks a caller had to wire up
itself, and the store's counters after the fact.  This module adds the
operator-facing layer:

* :class:`LiveMonitor` — a :data:`~repro.core.experiment.ProgressFn`
  that renders a terminal status line (trials done/cached/failed, store
  hit rate, worker utilization, ETA extrapolated from completed-trial
  wall times) and optionally appends one JSON line per tick to a
  *heartbeat* file other processes can tail; hand it to a driver as
  ``progress=monitor``;
* :func:`watch_campaign` — the render behind ``repro-bgp campaign
  watch``: per-cell cached/missing/failed counts against the store plus
  the latest heartbeat, re-renderable until the grid completes.

The ETA here is *wall-time based*: completed trials report their
simulation wall seconds through :attr:`Progress.busy_seconds`, so the
estimate is ``remaining x mean-trial-wall / jobs`` — robust to cached
prefixes (a 90%-cached resume doesn't project the cache-hit rate onto
the cold trials the way elapsed/done would).
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
    from repro.core.experiment import Progress
    from repro.store.campaign import Campaign
    from repro.store.result_store import ResultStore

__all__ = [
    "LiveMonitor",
    "last_heartbeat",
    "watch_campaign",
]

class LiveMonitor:
    """Terminal status line + heartbeat JSONL from progress ticks.

    Call the monitor as a progress function (it *is* one); call
    :meth:`finish` when the run ends to terminate the status line and
    flush/close the heartbeat file.

    Parameters
    ----------
    jobs:
        Worker count of the run (for the utilization denominator).
    stream:
        Where the status line goes (None for heartbeat-only monitoring
        with no terminal output).  On a TTY the line redraws in place
        with ``\\r``; otherwise one line per render.
    heartbeat:
        Optional path: every render appends one JSON object line with
        the full telemetry snapshot (see :meth:`snapshot`).
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        stream: Optional[IO[str]],
        heartbeat: Optional[Union[str, Path]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.stream = stream
        self.last: Optional["Progress"] = None
        self.renders = 0
        self._heartbeat_path = Path(heartbeat) if heartbeat else None
        self._heartbeat_file: Optional[IO[str]] = None
        self._finished = False
        # snapshot() may be read from another thread than the one that
        # ticks update(); a reentrant lock (render calls snapshot)
        # keeps the telemetry consistent.
        self._mutex = threading.RLock()

    # ------------------------------------------------------------------
    def __call__(self, progress: "Progress") -> None:
        self.update(progress)

    def update(self, progress: "Progress") -> None:
        """Fold one progress tick and render it."""
        with self._mutex:
            self.last = progress
            self.render()

    # -- derived telemetry ---------------------------------------------
    @property
    def cached(self) -> int:
        return self.last.cached if self.last is not None else 0

    @property
    def failed(self) -> int:
        return self.last.failed if self.last is not None else 0

    def hit_rate(self) -> float:
        """The tick's share of done trials the store served."""
        if self.last is None or self.last.done <= 0:
            return 0.0
        return self.cached / self.last.done

    def utilization(self) -> float:
        """Fraction of worker capacity spent simulating (busy / jobs x
        elapsed)."""
        if self.last is None or self.last.elapsed <= 0:
            return 0.0
        return min(
            1.0, self.last.busy_seconds / (self.last.elapsed * self.jobs)
        )

    def eta_seconds(self) -> float:
        """Remaining wall-clock estimate from completed-trial wall times.

        Falls back to the tick's elapsed/done extrapolation when no
        trial wall times have been reported (e.g. an all-cached run).
        """
        if self.last is None:
            return float("inf")
        remaining = self.last.total - self.last.done
        if remaining <= 0:
            return 0.0
        executed = self.last.done - self.cached
        if self.last.busy_seconds > 0 and executed > 0:
            return remaining * (self.last.busy_seconds / executed) / self.jobs
        if self.last.done > 0 and self.last.elapsed > 0:
            return self.last.eta
        # First heartbeat (nothing completed yet, or only cached hits
        # with no wall times): no basis for an estimate.
        return float("inf")

    def snapshot(self) -> Dict[str, Any]:
        """The full telemetry record (one heartbeat line's payload)."""
        with self._mutex:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> Dict[str, Any]:
        progress = self.last
        eta = self.eta_seconds()
        return {
            "kind": "heartbeat",
            "ts": time.time(),
            "label": progress.label if progress else "",
            "done": progress.done if progress else 0,
            "total": progress.total if progress else 0,
            "cached": self.cached,
            "failed": self.failed,
            "hit_rate": round(self.hit_rate(), 4),
            "elapsed_seconds": round(progress.elapsed, 3) if progress else 0.0,
            "busy_seconds": (
                round(progress.busy_seconds, 3) if progress else 0.0
            ),
            "jobs": self.jobs,
            "utilization": round(self.utilization(), 4),
            "eta_seconds": (
                round(eta, 1) if eta != float("inf") else None
            ),
        }

    def status_line(self) -> str:
        progress = self.last
        if progress is None:
            return "waiting for first trial..."
        eta = self.eta_seconds()
        eta_text = "?" if eta == float("inf") else f"{eta:.0f}s"
        parts = [
            f"[{progress.done}/{progress.total}]",
            progress.label,
            f"cached {self.cached}",
        ]
        if self.failed:
            parts.append(f"failed {self.failed}")
        if self.cached:
            parts.append(f"hit {self.hit_rate():.0%}")
        if self.jobs > 1:
            parts.append(f"util {self.utilization():.0%}")
        parts.append(f"elapsed {progress.elapsed:.0f}s")
        parts.append(f"eta {eta_text}")
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
            json.dumps(self._snapshot_locked(), sort_keys=True) + "\n"
        )
        self._heartbeat_file.flush()

    def finish(self) -> None:
        """Terminate the status line and close the heartbeat file."""
        with self._mutex:
            if self._finished:
                return
            self._finished = True
            if self.last is not None and self.stream is not None:
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
