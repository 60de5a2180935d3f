"""End-to-end benchmark of the served StreamDB stack.

Each workload runs against its own ``repro serve`` subprocess, driven by
this process over two loopback connections from one thread.  The run checks
the answers, prints every metric by name with its unit, and writes a results
JSON under ``results/runs/``::

    python3 benchmarks/e2e/run.py --seed 1                   # every workload
    python3 benchmarks/e2e/run.py --workload query_static --seed 3 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --quick --trace            # short runs, per-layer spans

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics BENCHMARK.json lists, or with ``--trace 1`` its per-layer metrics
(prefixed with the workload name when several workloads ran).  A failed
correctness gate exits 1 after that line.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured seconds per workload (default: BENCHMARK.json run_seconds; 5 with --quick)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: serve through traced_serve.py and report per-layer metrics",
    )
    parser.add_argument("--quick", action="store_true",
                        help="5 s per workload unless --seconds says otherwise (self-test)")
    parser.add_argument(
        "--out-dir", type=Path, default=HERE / "results" / "runs",
        help="directory for the results JSON (default results/runs/)",
    )
    return parser.parse_args(argv)


def _report(record: dict, units: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']} (seed {record['seed']}, {record['seconds']:g} s, {mode}) ==")
    for section in ("end_to_end", "per_layer"):
        for name, value in record[section].items():
            measured = record["measured"].get(name) if section == "end_to_end" else None
            note = f"  (measured {measured:.6g})" if measured not in (None, value) else ""
            print(f"  {name:40s} {value:14.6g} {units[name]}{note}")
    laps = record["probe_lap_us"]
    print(f"  core-speed probe lap: set-up {', '.join(f'{lap:.1f}' for lap in laps['setup'])}; "
          f"ingest {laps['ingest']:.1f}; queries {laps['queries']:.1f} us "
          f"(timings above are scaled to {laps['reference']:g} us)")
    print(f"  samples: {record['samples']}; {record['failed']} of {record['attempted']} requests failed")
    for name, gate in record["gates"].items():
        print(f"  gate {name}: {'ok' if gate['ok'] else 'FAILED'} ({gate['detail']})")
    if not record["valid"]:
        print("  WARNING: the load generator was too busy or too late; this run is invalid")
    for error in record["errors"]:
        print(f"  error: {error}")
    if "spans" in record:
        print(f"  spans per layer: {record['spans']}")
    sys.stdout.flush()


def main(argv=None) -> int:
    args = _arguments(argv)
    benchmark = ROOT / "BENCHMARK.json"
    missing = [path for path in (benchmark, ROOT / "src" / "repro" / "__init__.py")
               if not path.is_file()]
    if missing:
        print(f"run.py: not a checkout of the repository, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import loadgen

    spec = json.loads(benchmark.read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        print(f"run.py: unknown workload {args.workload!r}; one of {workloads}", file=sys.stderr)
        return 2
    seconds = args.seconds or (5.0 if args.quick else float(spec["run_seconds"]))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(loadgen.EXTRA_UNITS)

    results = []
    work = HERE / ".work"
    try:
        for name in [args.workload] if args.workload else workloads:
            record = loadgen.run_workload(name, args.seed, seconds, bool(args.trace), work / name)
            _report(record, units)
            results.append(record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    label = args.workload or "all"
    path = args.out_dir / f"{stamp}-{os.getpid()}-{label}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "units": units,
        "results": results,
    }, indent=1))
    print(f"results written to {path}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for record in results:
        prefix = f"{record['workload']}." if len(results) > 1 else ""
        for metric in spec[section]:
            name = metric["name"]
            metrics[prefix + name] = {"value": record[section][name], "unit": units[name]}
    summary = {
        "correct": all(record["correct"] for record in results),
        "attempted": sum(record["attempted"] for record in results),
        "failed": sum(record["failed"] for record in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
