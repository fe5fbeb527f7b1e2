"""Topology generation (the BRITE substitute).

The paper generates AS-level topologies with a modified BRITE: mostly flat
(one router per AS) graphs with *skewed* degree distributions ("70-30",
"50-50", "85-15"), plus verification topologies using an Internet-derived
degree distribution and multi-router-per-AS hierarchies.  Those three
kinds are implemented here (:mod:`~repro.topology.skewed`,
:mod:`~repro.topology.internet`, :mod:`~repro.topology.multirouter`); the
paper's Waxman, Barabasi-Albert and GLP checks are not reproduced.

Every generator returns a :class:`~repro.topology.graph.Topology`: routers
with grid coordinates and AS numbers, undirected links with one-way delays,
and helpers for degrees, connectivity and distance ordering.
"""
