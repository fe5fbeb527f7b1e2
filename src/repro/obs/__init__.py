"""Observability layer: metrics, probes, profiling, manifests, exporters.

The package the ROADMAP's perf work stands on: every signal the paper's
dynamic-MRAI argument rests on (unfinished work, queue depth, MRAI ladder
level) is exposed as a per-node time series; every run can emit a metrics
registry, a provenance manifest with wall-clock phase timings, and an
event-loop hotspot profile.  One
:class:`~repro.obs.session.TrialObserver` per trial holds the recorders,
in whichever process runs it; its observation record is the only thing
an :class:`~repro.obs.session.ObsSession` absorbs.  See
docs/OBSERVABILITY.md for the catalogue and the record's schema.
"""
