"""Compare two sets of benchmark runs, or summarize one set.

    python3 benchmarks/e2e/compare.py A/ B/
    python3 benchmarks/e2e/compare.py --summary A/ [--traced T/] [--write FILE]

Each directory holds the results JSON files ``run.py --out-dir DIR`` wrote.
``A`` is the parent, ``B`` the change; run them as pairs that alternate which
side goes first, one seed per pair (at least ten pairs).  For every
workload x end-to-end metric the comparison prints both sides' median and
quartiles, the share of pairs the change won (ties count for neither) and a
verdict, using the bounds and directions of BENCHMARK.json:

* ``unresolved`` — either side's quartile spread exceeds the bound, and not
  every run of B beats every run of A;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B won at least 90 % of the pairs and the medians differ by
  more than A's quartile spread (or, with wide spreads, every B run beats
  every A run);
* ``unchanged`` — otherwise.

A rise in failed requests is flagged on its own line.  Runs the generator
marked invalid are left out and counted.  ``--summary`` prints one set's
medians and quartiles (per-layer ones from ``--traced`` runs, with the
tracing overhead) and ``--write`` stores them as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path) -> dict:
    """``{"host": ..., "runs": [record, ...]}`` from every results file."""
    runs, host = [], {}
    for path in sorted(Path(directory).glob("*.json")):
        payload = json.loads(path.read_text())
        host = payload.get("host", host)
        runs.extend(payload["results"])
    return {"host": host, "runs": runs}


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _better(a: float, b: float, better: str) -> bool:
    return b > a if better == "higher" else b < a


def _by_workload(runs: List[dict], trace: bool) -> Dict[str, List[dict]]:
    grouped = defaultdict(list)
    for record in runs:
        if record["trace"] == trace and record["valid"]:
            grouped[record["workload"]].append(record)
    for records in grouped.values():
        records.sort(key=lambda record: record["seed"])
    return grouped


def verdict(a: List[float], b: List[float], pairs: List[tuple], metric: dict) -> tuple:
    """``(verdict, share of pairs B won)`` for one metric (see module doc)."""
    better, bound = metric["better"], metric["bound"]
    qa, qb = quartiles(a), quartiles(b)
    wins = sum(_better(x, y, better) for x, y in pairs) / len(pairs) if pairs else 0.0
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    worse = -change if better == "higher" else change
    dominates = all(_better(x, y, better) for x in a for y in b)
    if spread > bound:
        return ("improved" if dominates else "unresolved"), wins
    if worse > bound:
        return "regressed", wins
    if wins >= 0.9 and worse < 0 and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "improved", wins
    return "unchanged", wins


def compare(spec: dict, parent: dict, change: dict) -> int:
    a_runs, b_runs = _by_workload(parent["runs"], False), _by_workload(change["runs"], False)
    print(f"{'workload':14s} {'metric':22s} {'A q1/med/q3':>30s} {'B q1/med/q3':>30s} "
          f"{'won':>5s}  verdict")
    counts = defaultdict(int)
    for workload in [entry["name"] for entry in spec["workloads"]]:
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            print(f"{workload:14s} no valid runs on {'A' if not a else 'B'}")
            continue
        b_by_seed = {record["seed"]: record for record in b}
        paired = [(x, b_by_seed[x["seed"]]) for x in a if x["seed"] in b_by_seed]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [record["end_to_end"][name] for record in a]
            values_b = [record["end_to_end"][name] for record in b]
            pairs = [(x["end_to_end"][name], y["end_to_end"][name]) for x, y in paired]
            result, wins = verdict(values_a, values_b, pairs, metric)
            counts[result] += 1
            qa = "/".join(f"{v:.4g}" for v in quartiles(values_a))
            qb = "/".join(f"{v:.4g}" for v in quartiles(values_b))
            print(f"{workload:14s} {name:22s} {qa:>30s} {qb:>30s} {wins:5.0%}  {result}")
        failed_a = sum(record["failed"] for record in a) / sum(record["attempted"] for record in a)
        failed_b = sum(record["failed"] for record in b) / sum(record["attempted"] for record in b)
        if failed_b > failed_a:
            print(f"{workload:14s} FAILED REQUESTS ROSE: {failed_a:.3%} -> {failed_b:.3%}")
            counts["failed_ops_rose"] += 1
    for label, side in (("A", parent), ("B", change)):
        invalid = sum(not record["valid"] for record in side["runs"])
        if invalid:
            print(f"{invalid} invalid run(s) on {label} left out")
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts["regressed"] or counts["failed_ops_rose"] else 0


def summarize(spec: dict, runs: dict, traced: dict = None) -> dict:
    """Per-workload medians and quartiles, printed and returned."""
    untraced = _by_workload(runs["runs"], False)
    traced_runs = _by_workload(traced["runs"], True) if traced else {}
    summary = {"host": runs["host"], "workloads": {}}
    for workload in [entry["name"] for entry in spec["workloads"]]:
        records = untraced.get(workload, [])
        entry = {"runs": len(records), "seeds": [record["seed"] for record in records],
                 "end_to_end": {}}
        print(f"== {workload}: {len(records)} runs")
        for metric in spec["end_to_end"]:
            values = [record["end_to_end"][metric["name"]] for record in records]
            q1, median, q3 = quartiles(values)
            share = (q3 - q1) / abs(median) if median else 0.0
            entry["end_to_end"][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "unit": metric["unit"],
                "spread": share, "bound": metric["bound"],
            }
            print(f"  {metric['name']:36s} {median:12.5g} {metric['unit']:17s} "
                  f"q1 {q1:.5g} q3 {q3:.5g}  spread {share:6.2%} of bound {metric['bound']:.0%}")
        tracing = traced_runs.get(workload, [])
        if tracing:
            entry["traced_runs"] = len(tracing)
            entry["per_layer"] = {}
            for metric in spec["per_layer"]:
                values = [record["per_layer"][metric["name"]] for record in tracing]
                q1, median, q3 = quartiles(values)
                entry["per_layer"][metric["name"]] = {
                    "median": median, "q1": q1, "q3": q3, "unit": metric["unit"]}
                print(f"  {metric['name']:36s} {median:12.5g} {metric['unit']}")
            entry["trace_overhead_pct"] = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                if name not in ("ingest_points_per_s", "query_p50_ms"):
                    continue
                plain = quartiles([record["end_to_end"][name] for record in records])[1]
                with_spans = quartiles([record["end_to_end"][name] for record in tracing])[1]
                worse = (with_spans - plain) / plain * 100.0
                if metric["better"] == "higher":
                    worse = -worse
                entry["trace_overhead_pct"][name] = worse
                print(f"  trace.overhead_pct on {name}: {worse:+.2f} %")
        summary["workloads"][workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", type=Path, help="A/ B/, or one set with --summary")
    parser.add_argument("--summary", action="store_true", help="summarize one set of runs")
    parser.add_argument("--traced", type=Path, help="traced runs of the same code (--summary)")
    parser.add_argument("--write", type=Path, help="store the summary as JSON (--summary)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.summary:
        summary = summarize(spec, load(args.runs[0]), load(args.traced) if args.traced else None)
        if args.write:
            args.write.write_text(json.dumps(summary, indent=1) + "\n")
        return 0
    if len(args.runs) != 2:
        parser.error("give two run directories to compare, or --summary DIR")
    return compare(spec, load(args.runs[0]), load(args.runs[1]))


if __name__ == "__main__":
    sys.exit(main())
