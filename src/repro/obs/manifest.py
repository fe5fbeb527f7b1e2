"""Run manifests: what ran, where, with which knobs, how long each phase took.

A manifest is the provenance record written next to every metrics export:
enough to re-run the experiment (the spec's declarative dict, which
:func:`repro.specs.build_spec` turns back into the spec, + seeds + package
version) and enough to compare simulator *speed* across commits
(wall-clock phase timings for warm-up / failure / convergence, host
fingerprint).
:meth:`RunManifest.save` writes :meth:`RunManifest.to_dict` as JSON.
"""

from __future__ import annotations

import json
import platform
import socket
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union


def host_fingerprint() -> Dict[str, str]:
    """Where the run happened (for wall-clock comparability)."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "hostname": socket.gethostname(),
    }


@dataclass
class PhaseTiming:
    """One named phase of a run: wall-clock plus simulation-side extent."""

    name: str
    wall_seconds: float
    sim_seconds: float = 0.0
    events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "events": self.events,
        }


@dataclass
class RunManifest:
    """Provenance + timing record of one experiment or sweep run."""

    kind: str = "repro-run"
    created_utc: str = ""
    package_version: str = ""
    host: Dict[str, str] = field(default_factory=dict)
    command: str = ""
    spec: Dict[str, Any] = field(default_factory=dict)
    seeds: List[int] = field(default_factory=list)
    topology: str = ""
    phases: List[PhaseTiming] = field(default_factory=list)
    counters: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        *,
        kind: str = "repro-run",
        command: str = "",
        spec: Optional[Dict[str, Any]] = None,
        seeds: Optional[List[int]] = None,
        topology: str = "",
        phases: Optional[List[PhaseTiming]] = None,
        counters: Optional[Dict[str, Any]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> "RunManifest":
        """A manifest stamped with now, the package version and the host."""
        from repro import __version__

        return cls(
            kind=kind,
            created_utc=datetime.now(timezone.utc).isoformat(),
            package_version=__version__,
            host=host_fingerprint(),
            command=command,
            spec=dict(spec) if spec is not None else {},
            seeds=list(seeds) if seeds else [],
            topology=topology,
            phases=list(phases) if phases else [],
            counters=dict(counters) if counters else {},
            extra=dict(extra) if extra else {},
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "created_utc": self.created_utc,
            "package_version": self.package_version,
            "host": dict(self.host),
            "command": self.command,
            "spec": self.spec,
            "seeds": list(self.seeds),
            "topology": self.topology,
            "phases": [p.to_dict() for p in self.phases],
            "counters": dict(self.counters),
            "extra": dict(self.extra),
        }

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
        return path
