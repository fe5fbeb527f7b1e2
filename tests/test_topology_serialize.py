"""Tests for topology serialization."""

import json

import pytest

from repro.topology.multirouter import MultiRouterSpec, multi_router_topology
from repro.topology.serialize import (
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.skewed import skewed_topology


def equivalent(a, b):
    return (
        {n: (r.asn, r.x, r.y) for n, r in a.routers.items()}
        == {n: (r.asn, r.x, r.y) for n, r in b.routers.items()}
        and sorted((l.a, l.b, l.delay, l.kind) for l in a.links)
        == sorted((l.a, l.b, l.delay, l.kind) for l in b.links)
    )


def test_dict_round_trip_flat():
    topo = skewed_topology(30, seed=5)
    rebuilt = topology_from_dict(topology_to_dict(topo))
    assert equivalent(topo, rebuilt)
    assert rebuilt.name == topo.name


def test_dict_round_trip_multirouter():
    topo = multi_router_topology(MultiRouterSpec(num_ases=10), seed=2)
    rebuilt = topology_from_dict(topology_to_dict(topo))
    assert equivalent(topo, rebuilt)
    rebuilt.validate()


def test_file_round_trip(tmp_path):
    topo = skewed_topology(20, seed=1)
    path = tmp_path / "topo.json"
    save_topology(topo, path)
    loaded = load_topology(path)
    assert equivalent(topo, loaded)
    # The file is plain JSON.
    data = json.loads(path.read_text())
    assert data["format"] == "repro-topology"


def test_from_dict_rejects_wrong_format():
    with pytest.raises(ValueError):
        topology_from_dict({"format": "something-else", "version": 1})


def test_from_dict_rejects_wrong_version():
    topo = skewed_topology(10, seed=1)
    data = topology_to_dict(topo)
    data["version"] = 999
    with pytest.raises(ValueError):
        topology_from_dict(data)


def test_loaded_topology_is_validated(tmp_path):
    topo = skewed_topology(10, seed=1)
    data = topology_to_dict(topo)
    data["links"] = data["links"][:1]  # disconnect it
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(Exception):
        load_topology(path)
