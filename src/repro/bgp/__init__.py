"""BGP-4 path-vector protocol implementation (the SSFNet-BGP substitute).

Implements exactly the protocol machinery the paper's experiments exercise:

* UPDATE messages (announcement / withdrawal) at per-destination granularity;
* Adj-RIB-In / Loc-RIB / Adj-RIB-Out with a shortest-AS-path decision process
  and deterministic tie-breaking ("path length was the only criterion");
* per-peer MRAI timers with RFC-1771 jitter, per-destination timers as an
  ablation option, immediate (non-rate-limited) withdrawals;
* a single-server update-processing model with uniform(1 ms, 30 ms) service
  times and a FIFO input queue;
* the paper's batched update processing as an alternative queue discipline,
  plus the "router-style TCP-buffer batch" baseline from Sec 4.4;
* eBGP plus the minimal iBGP (full mesh, no re-advertisement) needed for the
  multi-router-per-AS topologies of Fig 13.
"""
