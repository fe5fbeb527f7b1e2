"""The paper's contributions and the convergence-experiment driver.

* :mod:`repro.core.degree_mrai` — degree-dependent static MRAI (Sec 4.2);
* :mod:`repro.core.dynamic_mrai` — the dynamic MRAI scheme with queue /
  utilization / message-count overload monitors (Sec 4.3);
* :mod:`repro.core.experiment` — warm-up, failure injection, convergence
  measurement (``simulate_trial``, observed by at most one
  :class:`~repro.obs.session.TrialObserver`), multi-trial aggregation;
* :mod:`repro.core.batch` — the one trial-batch pipeline (plan, look up
  the store, execute the misses, bank, fold) that campaigns and the
  service both run, over the one record of a trial to run,
  :class:`~repro.core.batch.PlannedTrial`;
* :mod:`repro.core.parallel` — single-trial execution (``execute_trial``
  returns the result beside the trial's observation record, at every
  ``jobs`` value) and the persistent warm worker pool (chunks of trials
  that share a topology) behind ``jobs > 1``, with deterministic seed
  fan-out;
* :mod:`repro.core.sweep` — the series behind every figure: swept axes,
  what a point means on each, and the fold of a grid into curves;
* :mod:`repro.core.validation` — post-convergence routing correctness
  checks (reachability soundness/completeness, forwarding loop freedom).
"""
