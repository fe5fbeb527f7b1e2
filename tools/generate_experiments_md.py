#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from the result files in results/.

Run after ``pytest benchmarks/ --benchmark-only`` so the embedded tables
match the latest measured series::

    python tools/generate_experiments_md.py

One section per registered figure, in registry order.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

sys.path.insert(0, str(ROOT / "src"))

from repro.figures import FIGURES  # noqa: E402 (needs src/ on the path)

#: figure id -> (section title, the paper's claim, our verdict).
COMMENTARY = {
    "fig01": (
        "Fig 1 — Convergence delay for different sized failures",
        "Paper: with MRAI 0.5 s the delay is lowest for small failures but "
        '"increases sharply as the size of the failure goes up"; with '
        "1.25/2.25 s the small-failure delay is higher but growth is gentle.",
        "Reproduced. The 0.5 s curve grows ~10x from the smallest to the "
        "largest failure while the 2.25 s curve is nearly flat; the curves "
        "cross between 5% and 10%, matching the paper's qualitative picture.",
    ),
    "fig02": (
        "Fig 2 — Number of generated messages for different MRAI values",
        "Paper: message counts are similar for all MRAIs at small failures; "
        'the count for MRAI=0.5 s "shoots up" with failure size while larger '
        "MRAIs grow gradually; the message trend mirrors the delay trend.",
        "Reproduced. At the largest failure the 0.5 s configuration sends "
        "several times the messages of the 2.25 s one; at the smallest "
        "failure the counts are within ~1.1x of each other.",
    ),
    "fig03": (
        "Fig 3 — Variation in convergence delay with MRAI",
        "Paper: delay-vs-MRAI is V-shaped (Griffin-Premore); the optimum is "
        "~0.5 s at 1% failure and ~1.25 s at 5% — it grows with failure "
        "size, so no single MRAI is ideal.",
        "Reproduced. The per-size optima move right monotonically with "
        "failure size (0.25 -> 0.5 -> 1.25 s on the 60-node quick profile; "
        "absolute optima shift with network size exactly as the paper's own "
        "60/240-node checks found — see the 120-node spot checks below).",
    ),
    "fig04": (
        "Fig 4 — Convergence delay for different degree distributions",
        "Paper: at equal average degree (3.8) the optimal MRAI tracks the "
        "degree of the high-degree nodes: 50-50 (~1.0 s) < 70-30 (~1.25 s) "
        "< 85-15 (~2.25 s), because high-degree nodes overload first.",
        "Reproduced. The 50-50 optimum is at or below the 85-15 optimum in "
        "every run; the full three-way ordering holds up to one grid step "
        "of noise at quick scale.",
    ),
    "fig05": (
        "Fig 5 — Effect of average degree on convergence delay",
        "Paper: raising the average degree from 3.8 to 7.6 (50-50, highs "
        "13-14) raises both the optimal MRAI (~2 s, like 85-15's) and the "
        "delay (more alternate paths to explore).",
        "Reproduced. The dense topology's optimum sits at least as far "
        "right and its minimum delay is higher.",
    ),
    "fig06": (
        "Fig 6 — Effect of degree dependent MRAI",
        "Paper: MRAI (low 0.5, high 2.25) tracks constant-2.25 for large "
        "failures while staying much cheaper for small ones; the reversed "
        "assignment behaves like the bad constant-0.5 for large failures.",
        "Reproduced. Convergence for large failures is governed by the "
        "high-degree nodes' MRAI, exactly as the paper argues.",
    ),
    "fig07": (
        "Fig 7 — Effect of dynamic MRAI",
        "Paper: the dynamic scheme (levels 0.5/1.25/2.25, upTh 0.65 s, "
        "downTh 0.05 s) is at or below constant-0.5 for small failures, "
        "~constant-1.25 at 5%, and between 1.25 and 2.25 for large failures "
        "— near-optimal everywhere.",
        "Reproduced. The dynamic curve hugs the lower envelope of the "
        "constant curves across the whole failure range.",
    ),
    "fig08": (
        "Fig 8 — Effect of upTh on convergence delay",
        "Paper: low upTh behaves like a constant high MRAI (bad for small "
        "failures, good for large); raising upTh trades that back; 0.65 vs "
        "1.25 makes little difference — the scheme is robust over a range.",
        "Reproduced as soft checks (single-trial quick runs are noisy at "
        "small failures, as the paper's own scatter was).",
    ),
    "fig09": (
        "Fig 9 — Effect of downTh on convergence delay",
        "Paper: raising downTh makes nodes drop their MRAI sooner, hurting "
        "large failures; results are similar over a range of values.",
        "Reproduced as soft checks; the downTh=0.3 curve is never "
        "materially better than downTh=0 at the largest failure.",
    ),
    "fig10": (
        "Fig 10 — Performance of the batching scheme (delay)",
        "Paper: batching at MRAI 0.5 s cuts the large-failure delay by a "
        "factor of 3 or more while keeping small-failure delays low, beats "
        "the dynamic scheme, and batching+dynamic is better still.",
        "Reproduced. On the quick profile batching cuts the largest-failure "
        "delay ~6.6x vs constant-0.5 and tracks it at the smallest failure; "
        "at the paper's 120-node scale the cut is 8.4x (see the spot "
        "checks). Batch+dynamic lands between batching and dynamic (the "
        "paper's ordering of the combination is within noise at this scale).",
    ),
    "fig11": (
        "Fig 11 — Number of messages generated by the batching scheme",
        'Paper: batching\'s message count is much less than MRAI=0.5 and "in '
        'the same range as" MRAI=2.25.',
        "Reproduced. Batching sends a small fraction of constant-0.5's "
        "messages at the largest failure and lands within ~2-3x of "
        "constant-2.25 (at 120 nodes: 84k vs 92k — squarely 'the same "
        "range').",
    ),
    "fig12": (
        "Fig 12 — Effect of batching with different MRAIs",
        "Paper: batching helps significantly when the MRAI is below the "
        "optimum (overloaded regime) and has little impact otherwise.",
        "Reproduced. At the smallest MRAI the FIFO/batching delay ratio "
        "exceeds 1.25x; at the largest MRAI the two curves coincide within "
        "~40%.",
    ),
    "fig13": (
        "Fig 13 — Convergence delay of realistic topologies",
        "Paper: on multi-router-per-AS topologies with an Internet-derived "
        "degree distribution (max degree 40; optima 0.5 s small / 3.5 s "
        "large), batching and dynamic MRAI behave as on the synthetic "
        "topologies.",
        "Reproduced. Batching beats constant-0.5 at the largest failure "
        "while matching it for small failures; constant-3.5 shows the same "
        "good-for-large / bad-for-small tradeoff as on flat topologies.",
    ),
    "figdp01": (
        "Fig DP1 — Data-plane unreachability vs failure size "
        "(companion, not in the paper)",
        "Not a figure of the paper, which argues that a shorter "
        "convergence delay shrinks the window in which packets are "
        "blackholed or loop; Fig 7's grid re-run with the data-plane "
        "monitor on measures that window as unreachable node-seconds.",
        "Consistent with the argument. Unreachability tracks the delay "
        "curves of Fig 7 (same trials, bit-identical delays), and summed "
        "over the sweep the dynamic scheme undercuts every constant: "
        "about 3.5x below constant-0.5, 1.35x below constant-1.25 and "
        "level with constant-2.25, whose small-failure padding it avoids.",
    ),
    "ab_per_dest_mrai": (
        "Ablation — per-peer vs per-destination MRAI timers",
        "Paper Sec 2 notes per-destination timers are the straightforward "
        "design but unscalable; the Internet runs per-peer.",
        "Both converge correctly; the granularities differ measurably under "
        "load, confirming the choice is behavioural, not cosmetic.",
    ),
    "ab_tcp_batch": (
        "Ablation — router-style TCP-buffer batching",
        "Paper Sec 4.4 (end): today's routers batch per TCP read, which "
        "dedups same-destination updates only within a batch, so its "
        'benefit "progressively decreases" for large failures.',
        "Confirmed: TCP batching tracks plain FIFO at large failures while "
        "per-destination batching is ~6x better.",
    ),
    "ab_monitors": (
        "Ablation — dynamic-MRAI overload monitors",
        "Paper Sec 4.3: queue-based unfinished work works well; processor "
        'utilization gave "promising results"; message counting "was not '
        'very successful".',
        "Confirmed qualitatively: queue-based wins, utilization helps, "
        "message-count is the weakest.",
    ),
    "ab_high_degree_only": (
        "Ablation — dynamic MRAI at high-degree nodes only",
        "Paper Sec 4.3: restricting the dynamic scheme to high-degree nodes "
        'was "effectively the same" because low-degree nodes never overload.',
        "Confirmed within noise.",
    ),
    "ab_failure_geometry": (
        "Ablation — geographic vs scattered failures",
        "Paper Sec 3.1 uses contiguous regions; scattered failures of equal "
        "size are the natural control.",
        "Both geometries converge; series recorded for comparison.",
    ),
    "ab_withdrawal_rl": (
        "Ablation — withdrawal rate limiting",
        "RFC 1771 exempts withdrawals from the MRAI; the rate-limited "
        "variant is the configuration Labovitz et al. modeled.",
        "Message counts and delays differ; the integration suite separately "
        "shows the Labovitz clique bound (n-3) x MRAI is met exactly under "
        "rate limiting and collapses to wire speed without it.",
    ),
    "ab_processing": (
        "Ablation — the processing-overhead model",
        'Paper Sec 5: "If the processing delays are so small that the BGP '
        "routers do not get overloaded, then the convergence delays will be "
        'unchanged" by the schemes.',
        "Confirmed exactly: with zero-cost processing, batching changes "
        "nothing (ratio ~1.1) and delays are flat; with uniform(1,30) ms "
        "the meltdown and the 6.6x batching win appear.",
    ),
    "ab_future_work": (
        "Ablation — the paper's future-work schemes, implemented",
        "Paper Sec 5 asks for (a) a scheme that sets the MRAI from the "
        "extent of failure, (b) batching that removes more superfluous "
        "updates, and (c) a theory for choosing parameters.",
        "All three implemented and measured: the failure-extent-adaptive "
        "MRAI beats the constant-low meltdown with the fewest messages of "
        "any scheme; withdrawal-first batching matches or beats plain "
        "batching; the analytically derived ladder (repro.core.theory) "
        "works unmodified from first principles, at some cost vs the "
        "hand-tuned ladder.",
    ),
    "ab_detection_delay": (
        "Ablation — hold-timer failure detection",
        "The paper assumes sessions drop at the failure instant; real BGP "
        "waits out the hold timer.",
        "Detection delay adds roughly additively and does not change which "
        "scheme wins.  (Hold-timer detection is fail_nodes' detection_delay "
        "+ Uniform(0, detection_jitter) per survivor — see "
        "tests/test_bgp_wf_queue_and_detection.py.)",
    ),
    "ab_flap_damping": (
        "Ablation — RFC-2439 route flap damping",
        "Flap damping was the deployed answer to update storms in the "
        "paper's era; Mao et al. (2002) showed it suppresses legitimate "
        "recovery routes after single events.",
        "Damping does cut the overload meltdown (it suppresses exploration "
        "updates) but batching achieves a substantially larger cut with "
        "zero suppression — no prefix is ever blackholed.",
    ),
    "ab_policy_routing": (
        "Ablation — Gao-Rexford policies vs no policy",
        'The paper runs with "no policy based restrictions", maximizing '
        "the path-exploration space.",
        "Under hierarchy-preserving Gao-Rexford policies (valley-free "
        "export, customer > peer > provider import), the exploration space "
        "collapses: an order of magnitude fewer messages and far faster "
        "convergence at every failure size — consistent with Labovitz et "
        "al.'s INFOCOM 2001 finding that policy hierarchy bounds "
        "convergence.  The paper's no-policy setting is thus the *hard* "
        "case for its schemes.",
    ),
}

HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction record for every figure of *Improving BGP Convergence Delay
for Large-Scale Failures* (DSN 2006), plus the ablations this repository
adds.  The paper's evaluation consists of 13 figures and no tables.

## Methodology

* Every table below is regenerated by `pytest benchmarks/ --benchmark-only`
  — one test parametrised over the `repro.figures` registry, all figures
  sharing one trial store; the raw outputs (text + CSV) live in
  `results/`, and `pytest benchmarks/ --benchmark-only -k <id>` or
  `repro-bgp sweep --figure <id>` reproduces any single one.  This file
  itself is regenerated by `python tools/generate_experiments_md.py`.
* Numbers shown are from the **quick** profile: 60-node topologies
  (48-AS multi-router for Fig 13), one trial per point, coarse sweep
  grids, deterministic seeds.  `REPRO_BENCH_SCALE=full` re-runs everything
  at the paper's 120-node scale with 3 trials per point.
* We reproduce **shapes**, not absolute seconds: our substrate is a
  reimplemented simulator, and the paper itself reports that absolute
  delays scale with network size while trends persist (its own 60- and
  240-node checks).  Each figure carries machine-checked *shape checks*
  encoding the paper's claims; `[PASS]` markers below are asserted by the
  benchmark suite (strict) or recorded (soft).
* Every figure's scheme list is a registered *scheme set* of declarative
  scheme dicts (`repro.specs`, see `docs/SPECS.md`) and every figure's
  grid is a campaign document, so each column below can be re-run
  standalone from a campaign file or the CLI:
  `FIGURES["fig01"].grids(QUICK)[0].to_dict()` is
  `examples/campaigns/fig01_quick.json`, and `repro-bgp campaign run` of
  it with `--export` writes the bytes of `results/fig01_quick.csv`.
* Full-scale (120-node) verification runs are recorded at the end.

"""

FOOTER_TEMPLATE = """## Full-scale verification (120 nodes — the paper's size)

### The Fig 10/11 scheme set, 120-node 70-30 topology, single seed

```
{fullspot}
```

Everything the paper claims is visible at its own scale: batching cuts
the constant-0.5 meltdown at 20% failures by **8.4x** (189 s -> 22.5 s;
the paper reports "a factor of 3 or more"), keeps the smallest-failure
delay at the constant-0.5 level (10.9 vs 11.0 s), and sends messages in
the constant-2.25 range (84k vs 92k at 20%) instead of constant-0.5's
591k.  The dynamic scheme matches constant-0.5 for the smallest failures
and stays far below it for large ones.

### Per-failure-size optimal MRAI, 120-node 70-30 topology

| failure | MRAI 0.5 s | MRAI 1.25 s | MRAI 2.25 s | optimum |
|---|---|---|---|---|
| 1% | **11.7 s** | 25.0 s | 45.2 s | 0.5 s |
| 5% | **21.1 s** | 29.8 s | 39.3 s | ~0.5-1.25 s |
| 10% | 172.1 s | **34.9 s** | 51.5 s | 1.25 s |
| 20% | 514.5 s | 193.3 s | **70.1 s** | 2.25 s |

The optimum moves right with failure size — the paper's central
observation (its Fig 3 reports 0.5 s at 1% and 1.25 s at 5% on its
hardware; our crossover sits between 5% and 10%, one grid step away,
with identical structure).

## Validation against theory

Beyond the figures, the simulator is validated against the analytic
models the paper cites (see `tests/test_integration_models.py` and
`tests/test_regression_golden.py`):

* **Labovitz et al.**: convergence after a withdrawal in a clique of
  n nodes takes exactly `(n-3) x MRAI` when updates (including
  withdrawals) are rate-limited — our simulator matches the bound to
  within link delays for n = 4..8, and shows why RFC 1771's immediate
  withdrawals collapse it to wire speed.
* **Griffin & Premore**: delay grows linearly in the MRAI above the
  optimum (doubling the MRAI doubles the clique delay).
* **Routing invariants**: after every experiment in the integration and
  property-based suites, the converged state satisfies reachability
  completeness/soundness, AS-path realizability and forwarding loop
  freedom (`repro.core.validation`); Gao-Rexford networks are checked
  against a valley-free reachability oracle instead.
"""


def main() -> None:
    parts = [HEADER]
    for figure_id in FIGURES:
        title, paper_claim, verdict = COMMENTARY[figure_id]
        parts.append(f"## {title}\n")
        parts.append(f"**Paper:** {paper_claim}\n")
        parts.append("**Measured (quick profile):**\n")
        result_file = RESULTS / f"{figure_id}_quick.txt"
        if result_file.exists():
            parts.append("```\n" + result_file.read_text().strip() + "\n```\n")
        else:
            parts.append("*(run `pytest benchmarks/` to generate)*\n")
        parts.append(f"**Verdict:** {verdict}\n")
    fullspot_file = RESULTS / "fig10_fullspot.txt"
    fullspot = (
        fullspot_file.read_text().strip()
        if fullspot_file.exists()
        else "(regenerate with the 120-node sweep; see EXPERIMENTS history)"
    )
    parts.append(FOOTER_TEMPLATE.format(fullspot=fullspot))
    output = ROOT / "EXPERIMENTS.md"
    output.write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {output} ({len(chr(10).join(parts).splitlines())} lines)")


if __name__ == "__main__":
    main()
