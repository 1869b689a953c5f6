#!/usr/bin/env python3
"""Count the kernel calls of ``partition_search`` (20 restarts of steepest
descent) per search: descents (calls of ``_descend``; a restart whose start
repeats an earlier one runs none), full fold steps, conflict-only fold steps,
calls of ``BlockState.moved`` (one-step conflicts of a block +/- a report,
each answered from the store or by at most one fold step) and k-term products
(calls of ``math.prod`` in ``cluster``, each over the survival factors of a
partition's k blocks), and the corpora where some restart returns
``exhaustive_search``'s (mcf, canonical key), with the mean position of the
first distinct start that does: where restarts could stop early without
changing the result. A descent's sweep first forms one product per block,
with that block's factor at 1.0, which scores the test of every report in it;
a report kept past that test whose block keeps members takes a second
product, with the factor its removal leaves. Then count the fold steps and
the branch-and-bound nodes of ``exhaustive_search`` on the same corpora, and
the fold steps of ``specify_corpus`` on the partitions ``partition_search``
returns: its full steps fold block chains, and its conflict-only steps are
one-step values of blocks with a report added.

Every node ``exhaustive_search`` pops from its stack of open nodes, inner or
leaf, calls ``math.prod`` exactly once, for the survival of its open blocks,
which its bound reads (a leaf's bound is its mcf). ``_report`` calls it once
more for the winner. So the nodes of one ``exhaustive_search`` are its
``math.prod`` calls minus one.

Corpora (seed 3 by default): the ``evintel gen`` ladder one rung at a time,
then the inputs of two benchmark workloads, built by ``perfbench/workloads.py``
as its ops build them: exhaustive-check's sets 0-4 (ten 10-report corpora,
five separable and five random-mass, uniform prior on 1..4) and track-desk's
sets 0-3 (20 scenarios of fast targets in a wide box). The counts are
deterministic. They are taken by wrapping the kernels in the ``cluster``
module's namespace, and ``BlockState.moved`` on its class, from outside, so
the package itself counts nothing.
"""

import argparse
import collections
import contextlib
import math
import sys
import tempfile
import types
from pathlib import Path

from evintel import cluster
from evintel.cluster import exhaustive_search, partition_search
from evintel.pipeline import parse_document
from evintel.scenario import ScenarioConfig, generate_scenario_doc
from evintel.specify import specify_corpus

sys.dont_write_bytecode = True  # no perfbench/__pycache__: the benchmark's cold set-up compiles workloads.py
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  the benchmark's own inputs, read only

LADDER = [(3, 4), (4, 6), (5, 6), (6, 8), (8, 8), (10, 10)]


@contextlib.contextmanager
def counting():
    """Count kernel calls in ``cluster`` while the block runs, and list each
    descent's (mcf, canonical key) in call order."""
    counts = collections.Counter()
    results = []
    fold_step, descend, moved = cluster._fold_step, cluster._descend, cluster.BlockState.moved

    def counted_fold_step(state, items, last=False):
        counts["conflict-only" if last else "full"] += 1
        return fold_step(state, items, last)

    def counted_prod(factors):
        counts["products"] += 1
        return math.prod(factors)

    def counted_descend(corpus, *args):
        counts["descents"] += 1
        blocks, mcf = descend(corpus, *args)
        results.append((mcf, cluster._canonical_key(corpus, blocks)))
        return blocks, mcf

    def counted_moved(state, j):
        counts["moved"] += 1
        return moved(state, j)

    counted_math = types.SimpleNamespace(**vars(math))
    counted_math.prod = counted_prod
    saved = cluster._fold_step, cluster._descend, cluster.math
    cluster._fold_step, cluster._descend, cluster.math = counted_fold_step, counted_descend, counted_math
    cluster.BlockState.moved = counted_moved
    try:
        yield counts, results
    finally:
        cluster._fold_step, cluster._descend, cluster.math = saved
        cluster.BlockState.moved = moved


def count(search, corpora) -> tuple[list[float], list[list[tuple]]]:
    """Mean descents, full fold steps, conflict-only fold steps, ``moved`` calls
    and ``math.prod`` calls per call of ``search`` on each (corpus or partition,
    prior) pair, and per call the (mcf, canonical key) of each descent it ran."""
    per_call = []
    with counting() as (counts, results):
        for corpus, prior in corpora:
            search(corpus, prior)
            per_call.append(results[:])
            results.clear()
    return [counts[key] / len(corpora) for key in ("descents", "full", "conflict-only", "moved", "products")], per_call


def exact_start(corpora, runs) -> str:
    """The "exact start" cell, "k/n at p": k of the n corpora have a descent
    that returns ``exhaustive_search``'s (mcf, canonical key), the first such
    one at mean position p among the distinct starts."""
    firsts = []
    for (corpus, prior), results in zip(corpora, runs):
        partition, report = exhaustive_search(corpus, prior)
        exact = (report.mcf, cluster._canonical_key(corpus, partition.blocks))
        if exact in results:
            firsts.append(results.index(exact) + 1)
    found = f"{len(firsts)}/{len(corpora)}"
    return f"{found} at {sum(firsts) / len(firsts):.1f}" if firsts else found


def scenario(seed: int, targets: int, per_target: int):
    cfg = ScenarioConfig(seed=seed, targets=targets, reports_per_target=per_target, frame_size=max(6, targets))
    return parse_document(generate_scenario_doc(cfg))


def benchmark_corpora(name: str, seed: int, sets: int):
    """(corpus, prior) of every op in sets 0..sets-1 of a benchmark workload."""
    with tempfile.TemporaryDirectory() as workdir:  # track-desk's prepare writes its corpus files
        workload = workloads.make_workload(name, seed, Path(workdir))
        ops = [op for k in range(sets) for op in workload.prepare(k)]
    if name == "exhaustive-check":
        return [(workload.build(op)[0], workload.prior) for op in ops]
    return [parse_document(op.doc) for op in ops]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    rows = [(f"gen --seed {args.seed} {t}x{p}", [scenario(args.seed, t, p)]) for t, p in LADDER]
    rows.append(("exhaustive-check, 10 corpora", benchmark_corpora("exhaustive-check", args.seed, 5)))
    rows.append(("track-desk, 20 corpora", benchmark_corpora("track-desk", args.seed, 4)))
    print(f"{'':<30} {'partition_search':^81}   {'exhaustive_search':^36}   {'specify_corpus':^26}".rstrip())
    print(
        f"{'corpora':<30} {'descents':>9} {'full folds':>11} {'conflict-only':>14} {'moved calls':>12}"
        f" {'k-term products':>16} {'exact start':>14}"
        f"   {'full folds':>11} {'conflict-only':>14} {'nodes':>9}"
        f"   {'full folds':>11} {'conflict-only':>14}   (per call)"
    )
    for label, corpora in rows:
        (descents, full, last, moved, products), runs = count(partition_search, corpora)
        (_, exact_full, exact_last, _, calls), _ = count(exhaustive_search, corpora)
        partitions = [(partition_search(corpus, prior)[0], prior) for corpus, prior in corpora]
        (_, specify_full, specify_last, _, _), _ = count(specify_corpus, partitions)
        print(
            f"{label:<30} {descents:>9.1f} {full:>11.1f} {last:>14.1f} {moved:>12.1f} {products:>16.1f}"
            f" {exact_start(corpora, runs):>14}"
            f"   {exact_full:>11.1f} {exact_last:>14.1f} {calls - 1:>9.1f}"
            f"   {specify_full:>11.1f} {specify_last:>14.1f}"
        )


if __name__ == "__main__":
    main()
