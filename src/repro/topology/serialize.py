"""Topology serialization.

BRITE's main interoperability feature was file export ("BRITE can export
topologies in the format used by SSFNet"); the equivalent here is a stable
JSON representation, so generated topologies can be stored, diffed, shared
between experiment runs, and — most importantly for reproduction work —
*measured* AS graphs can be imported from files instead of synthesized.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.topology.graph import Link, Router, Topology

#: Format identifier stored in every file; bump on breaking changes.
FORMAT_VERSION = 1


def topology_to_dict(topology: Topology) -> Dict[str, Any]:
    """A JSON-ready dictionary capturing the full topology."""
    return {
        "format": "repro-topology",
        "version": FORMAT_VERSION,
        "name": topology.name,
        "routers": [
            {"id": r.node_id, "asn": r.asn, "x": r.x, "y": r.y}
            for r in sorted(topology.routers.values(), key=lambda r: r.node_id)
        ],
        "links": [
            {"a": l.a, "b": l.b, "delay": l.delay, "kind": l.kind}
            for l in topology.links
        ],
    }


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    """Rebuild a topology from :func:`topology_to_dict` output.

    Validates the format marker and structural integrity (the Topology
    constructor enforces no duplicate routers/links, known endpoints...).
    """
    if not isinstance(data, dict) or data.get("format") != "repro-topology":
        raise ValueError("not a repro topology document")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported topology format version {data.get('version')!r}"
        )
    topology = Topology(name=data.get("name", "topology"))
    for entry in data["routers"]:
        topology.add_router(
            Router(
                node_id=int(entry["id"]),
                asn=int(entry["asn"]),
                x=float(entry["x"]),
                y=float(entry["y"]),
            )
        )
    for entry in data["links"]:
        topology.add_link(
            Link(
                a=int(entry["a"]),
                b=int(entry["b"]),
                delay=float(entry["delay"]),
                kind=str(entry.get("kind", "inter_as")),
            )
        )
    return topology


def save_topology(topology: Topology, path: Union[str, Path]) -> None:
    """Write a topology to a JSON file."""
    Path(path).write_text(
        json.dumps(topology_to_dict(topology), indent=2) + "\n",
        encoding="utf-8",
    )


def load_topology(path: Union[str, Path]) -> Topology:
    """Read a topology from a JSON file and validate it."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    topology = topology_from_dict(data)
    topology.validate()
    return topology
