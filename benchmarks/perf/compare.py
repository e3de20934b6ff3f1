#!/usr/bin/env python3
"""Compare two suite results of ``run.py``: the local regression gate.

    python3 benchmarks/perf/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both medians and
quartiles and a verdict, judged against the metric's bound in
``BENCHMARK.json`` (``bound`` is the share of the base median by which
the metric may worsen):

* ``unresolved``: a quartile spread, (q3 - q1) / median, exceeds the
  bound, so the runs cannot tell a change of that size from noise.  The
  exception is when every NEW run reads better than every BASE run,
  which is ``better``;
* otherwise ``worse`` / ``better``: the median moved by more than the
  bound;
* ``unchanged``: otherwise.

``setup_s`` may also worsen by ``SETUP_FLOOR_S`` when that is more than
its bound: a set-up of a few tens of milliseconds moves by more than a
share of itself between runs.  ``error_rate`` (failed reps over
attempted reps) has bound 0: any rise is ``worse``.  The exit status is
1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
#: seconds by which ``setup_s`` may always worsen, whatever its bound
SETUP_FLOOR_S = 0.05


def verdict(base: dict, new: dict, base_runs, new_runs, bound: float,
            lower_is_better: bool) -> tuple[float, str]:
    """(signed change as a share of the base median, verdict)."""
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (new["median"] - base["median"]) / base["median"]
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["median"]) for s in (base, new)
    )
    if spread > bound:
        if lower_is_better:
            all_better = max(new_runs) < min(base_runs)
        else:
            all_better = min(new_runs) > max(base_runs)
        return change, "better" if all_better else "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "unchanged"


def run_values(workload: dict, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"]
        for r in workload["runs"]
        if metric in r["metrics"]
    ]


def compare(base: dict, new: dict, spec: dict) -> list[tuple]:
    """Rows of (workload, metric, base, new, change, verdict)."""
    rows = []
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        b, n = base["workloads"][workload], new["workloads"][workload]
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in b["summary"] or name not in n["summary"]:
                continue
            bound = m["bound"]
            if name == "setup_s":
                bound = max(bound, SETUP_FLOOR_S / b["summary"][name]["median"])
            change, v = verdict(
                b["summary"][name], n["summary"][name],
                run_values(b, name), run_values(n, name),
                bound, m["better"] == "lower",
            )
            rows.append((workload, name, b["summary"][name],
                         n["summary"][name], change, v))
        rows.append((
            workload, "error_rate",
            {"median": b["error_rate"]}, {"median": n["error_rate"]},
            n["error_rate"] - b["error_rate"],
            "worse" if n["error_rate"] > b["error_rate"] else "unchanged",
        ))
    return rows


def _fmt(s: dict) -> str:
    if "q1" not in s:
        return f"{s['median']:.4g}"
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as f:
            docs.append(json.load(f))
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    rows = compare(docs[0], docs[1], spec)
    print(f"{'workload':16s} {'metric':16s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'change':>8s}  verdict")
    for workload, name, b, n, change, v in rows:
        print(f"{workload:16s} {name:16s} {_fmt(b):34s} {_fmt(n):34s} "
              f"{change * 100:+7.2f}%  {v}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
