"""Micro-benchmark: warm-started vs cold tangent binary searches.

The slide filter's bound updates run an O(log m_H) tangent binary search
over a convex hull chain (``repro.geometry.tangents``).  Between
consecutive updates the extremal support vertex rarely moves, so the
``*_tangent_search`` variants accept the previous hit index as a ``hint``
and resolve an unchanged (or adjacent) support in O(1) candidate-slope
evaluations.  This benchmark measures that win on the adversarial workload
where the search depth actually matters: a strictly convex chain in which
*every* point is a hull vertex, probed by a slowly drifting new point so
the tangent index creeps along the chain exactly like a dense stretch of
slide-filter update events.

Every warm answer is asserted identical (line and support index) to the
cold answer, so the hint path is exercised for correctness as well as
speed.

Usage::

    python benchmarks/bench_tangent_hints.py                # full workload
    python benchmarks/bench_tangent_hints.py --chain 4000 --queries 20000
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.geometry.hull import IncrementalConvexHull
from repro.geometry.tangents import (
    max_slope_lower_tangent_search,
    min_slope_upper_tangent_search,
)

from bench_utils import write_bench_json

EPSILON = 0.05


def build_chains(chain_points: int):
    """Strictly convex data: every point lands on the hull chains."""
    times = np.arange(float(chain_points))
    span = float(chain_points)
    concave = -((times - 0.35 * span) ** 2) / span  # upper chain keeps all points
    convex = ((times - 0.65 * span) ** 2) / span  # lower chain keeps all points
    upper_hull = IncrementalConvexHull()
    upper_hull.add_many(times, concave)
    lower_hull = IncrementalConvexHull()
    lower_hull.add_many(times, convex)
    return upper_hull.upper_chain(), lower_hull.lower_chain()


def build_queries(chain_points: int, queries: int, seed: int):
    """New points whose tangent support drifts slowly along the chain."""
    rng = np.random.default_rng(seed)
    span = float(chain_points)
    t_new = span + 1.0 + np.cumsum(rng.uniform(0.01, 0.05, queries))
    # A slow slope sweep moves the extremal support vertex gradually from
    # one end of the chain toward the other — consecutive queries mostly
    # share their support index, the regime the hints are built for.
    sweep = np.linspace(-0.9, 0.9, queries) + rng.normal(0.0, 0.01, queries)
    x_new = sweep * t_new
    return t_new, x_new


def run_pass(search, chain, t_new, x_new, warm: bool):
    """Time one full query sweep; returns (elapsed_seconds, results)."""
    chain_t, chain_x = chain
    results = []
    hint = None
    started = time.perf_counter()
    for t, x in zip(t_new, x_new):
        line, index = search(chain_t, chain_x, t, x, EPSILON, hint=hint)
        if warm:
            hint = index
        results.append((line, index))
    return time.perf_counter() - started, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chain", type=int, default=30_000, help="hull chain vertices")
    parser.add_argument("--queries", type=int, default=60_000, help="tangent searches per pass")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--floor", type=float, default=1.1, help="asserted warm/cold speedup floor"
    )
    parser.add_argument(
        "--no-assert", action="store_true", help="report only; do not enforce the floor"
    )
    args = parser.parse_args(argv)

    upper_chain, lower_chain = build_chains(args.chain)
    t_new, x_new = build_queries(args.chain, args.queries, args.seed)
    print(
        f"chains: {len(upper_chain[0]):,} upper / {len(lower_chain[0]):,} lower "
        f"vertices; {args.queries:,} drifting tangent queries per pass"
    )

    metrics = {"chain": args.chain, "queries": args.queries}
    speedups = []
    for label, search, chain in (
        ("upper", min_slope_upper_tangent_search, upper_chain),
        ("lower", max_slope_lower_tangent_search, lower_chain),
    ):
        cold_elapsed, cold = run_pass(search, chain, t_new, x_new, warm=False)
        warm_elapsed, warm = run_pass(search, chain, t_new, x_new, warm=True)
        for position, ((cold_line, cold_index), (warm_line, warm_index)) in enumerate(
            zip(cold, warm)
        ):
            assert cold_index == warm_index, (label, position, cold_index, warm_index)
            assert cold_line.slope == warm_line.slope, (label, position)
            assert cold_line.intercept == warm_line.intercept, (label, position)
        indexes = {index for _, index in cold}
        assert len(indexes) > 10, f"degenerate workload: support never moves ({indexes})"
        speedup = cold_elapsed / warm_elapsed if warm_elapsed else float("inf")
        speedups.append(speedup)
        print(
            f"  {label} tangent: cold {cold_elapsed * 1e3:8.1f} ms  "
            f"warm {warm_elapsed * 1e3:8.1f} ms  speedup {speedup:5.2f}x  "
            f"({len(indexes)} distinct support vertices)"
        )
        metrics[f"{label}_cold_seconds"] = cold_elapsed
        metrics[f"{label}_warm_seconds"] = warm_elapsed
        metrics[f"{label}_speedup"] = speedup

    metrics["asserted_floor"] = None if args.no_assert else args.floor
    path = write_bench_json("tangent_hints", metrics)
    print(f"results written to {path}")

    if not args.no_assert and min(speedups) < args.floor:
        print(f"FAIL: warm-started tangent search below the {args.floor:g}x floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
