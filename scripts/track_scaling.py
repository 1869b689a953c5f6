#!/usr/bin/env python3
"""Check the exact track DPs against the enumeration oracle at desk scale, time
the conflict and support sweeps where the oracle cannot go, then time the
top-k ranking DP on large graphs."""

import argparse
import random
import time

from evintel.oracle import OracleSizeError, all_paths, combine_oracle, random_track_graph
from evintel.tracks import best_path_dp, normalize, path_plausibility_unnorm


def sweep(g, top_k=3):
    """The top-k tracks, then ``normalize``: conflict once and each track's support,
    as the pipeline does per block."""
    t0 = time.perf_counter()
    paths = [path for path, _ in best_path_dp(g, top_k)]
    conflict, values = normalize(g, paths)
    supports = {path: support for path, (_, support) in zip(paths, values)}
    return conflict, supports, time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    for n in (3, 5, 6):
        g = random_track_graph(n, rng)
        t0 = time.perf_counter()
        analysis = combine_oracle(g)
        oracle_s = time.perf_counter() - t0
        conflict, supports, dp_s = sweep(g)
        worst_pls = max(
            abs(path_plausibility_unnorm(g, p) - analysis.plausibility_unnorm[p])
            for p in all_paths(g)
        )
        worst_dp = max(
            [abs(conflict - analysis.conflict)]
            + [abs(s - analysis.support[p]) for p, s in supports.items()]
        )
        print(
            f"n={n}: oracle {oracle_s * 1000:7.1f} ms over {2 ** (n + n * (n - 1) // 2):>8} "
            f"selections, DPs {dp_s * 1000:5.1f} ms; max |closed form - oracle| = {worst_pls:.2e}, "
            f"max |DP - oracle| = {worst_dp:.2e}"
        )

    for n in (10, 12):
        g = random_track_graph(n, rng)
        conflict, _, dp_s = sweep(g)
        print(f"n={n}: DPs {dp_s * 1000:5.1f} ms (conflict {conflict:.6f} and 3 supports)")

    for n in (50, 100, 200):
        g = random_track_graph(n, rng)
        t0 = time.perf_counter()
        ranked = best_path_dp(g, top_k=3)
        dp_s = time.perf_counter() - t0
        print(f"n={n}: ranking DP {dp_s * 1000:7.1f} ms, best visits {len(ranked[0][0])} vertices")

    g = random_track_graph(7, rng)
    try:
        combine_oracle(g)
    except OracleSizeError as exc:
        print(f"oracle at n=7: {exc}")


if __name__ == "__main__":
    main()
