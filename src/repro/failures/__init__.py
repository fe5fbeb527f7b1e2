"""Failure models.

The paper's large-scale failures are geographically concentrated: routers
are placed on a 1000x1000 grid and "failures in contiguous areas of the grid
(usually the center of the grid to avoid edge effects)" take down *all*
routers and links in the area (Sec 3.1/3.2).  :func:`geographic_failure`
implements exactly that; :func:`random_failure` provides the scattered
counterpart for comparison experiments.
"""
