#!/usr/bin/env python3
"""Compare two benchmark records written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

A is the reference (the parent commit), B the candidate.  For every
(workload, metric) both records carry, prints both medians with their
quartiles, the relative change, and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  it is worse by more than the bound, but the spread of
                either side is wider than the bound and the two sides'
                samples interleave, so the runs cannot tell;
``same`` / ``MISMATCH``  for counts (unit ``count``), which must repeat
                exactly;
``-``           a per-layer metric: shown, never judged.

Bounds and directions come from ``BENCHMARK.json``; only its end-to-end
metrics have bounds.  Exits 1 on any ``regressed`` or ``MISMATCH``, or
when a record failed its own checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def verdict(
    a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float
) -> Tuple[float, str]:
    """(how much worse B is than A as a share of A, verdict)."""
    sign = -1.0 if better == "higher" else 1.0
    worse = sign * (b["value"] - a["value"]) / a["value"]
    if worse <= bound:
        return worse, "ok"
    spread = max(
        (side["q3"] - side["q1"]) / side["value"] for side in (a, b)
    )
    samples_a = a.get("samples", [a["value"]])
    samples_b = b.get("samples", [b["value"]])
    all_worse = all(
        sign * (y - x) > 0 for x in samples_a for y in samples_b
    )
    if spread > bound and not all_worse:
        return worse, "unresolved"
    return worse, "regressed"


def compare(
    doc_a: Dict[str, Any], doc_b: Dict[str, Any], manifest: Dict[str, Any]
) -> Tuple[List[str], List[str]]:
    """(table lines, problems)."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in manifest["end_to_end"]}
    lines = [
        f"{'workload':<14} {'metric':<30} {'unit':<6} "
        f"{'A median [q1, q3]':>32} {'B median [q1, q3]':>32} "
        f"{'change':>8} {'bound':>6}  verdict"
    ]
    problems: List[str] = []
    for name in doc_a["workloads"]:
        rec_a = doc_a["workloads"][name]
        rec_b = doc_b["workloads"].get(name)
        if rec_b is None:
            problems.append(f"{name}: missing from B")
            continue
        for side, rec in (("A", rec_a), ("B", rec_b)):
            if not rec["correct"]:
                problems.append(f"{name}: record {side} failed its checks")
        for metric, a in rec_a["metrics"].items():
            b = rec_b["metrics"].get(metric)
            if b is None:
                problems.append(f"{name} {metric}: missing from B")
                continue
            change = (
                (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
            )
            bound_text = ""
            if a["unit"] == "count":
                word = "same" if a["value"] == b["value"] else "MISMATCH"
            elif metric in bounds and a["value"]:
                better, bound = bounds[metric]
                _worse, word = verdict(a, b, better, bound)
                bound_text = f"{bound:.0%}"
            else:
                word = "-"
            if word in ("regressed", "MISMATCH"):
                problems.append(
                    f"{name} {metric}: {word} "
                    f"({a['value']:.6g} -> {b['value']:.6g} {a['unit']})"
                )
            lines.append(
                f"{name:<14} {metric:<30} {a['unit']:<6} "
                f"{_cell(a):>32} {_cell(b):>32} "
                f"{change:>+8.1%} {bound_text:>6}  {word}"
            )
    return lines, problems


def _cell(m: Dict[str, Any]) -> str:
    return f"{m['value']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, doc_b = (
        json.loads(Path(p).read_text(encoding="utf-8")) for p in argv
    )
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, problems = compare(doc_a, doc_b, manifest)
    print("\n".join(lines))
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
