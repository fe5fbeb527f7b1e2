"""Discrete-event simulation kernel.

This subpackage is the stand-in for the SSFNet simulation core used by the
paper: a deterministic event heap with a floating-point clock, cancellable
events, restartable timers with RFC-1771-style jitter, named pseudo-random
streams derived from a single master seed, and lightweight tracing/statistics
utilities.

The kernel is deliberately protocol-agnostic; everything BGP-specific lives in
:mod:`repro.bgp`.
"""
