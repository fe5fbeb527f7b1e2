"""Result analysis and reporting.

Turns :class:`~repro.core.sweep.Series` objects into the text tables the
benchmark harness prints — the same rows/series the paper's figures plot —
plus small helpers for shape assertions (V-shape detection, optimum
location) used by the benchmark suite and EXPERIMENTS.md.
"""
