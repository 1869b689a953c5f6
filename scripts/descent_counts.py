#!/usr/bin/env python3
"""Count the kernel calls of ``partition_search`` (20 restarts of steepest
descent) per search: descents (calls of ``_descend``; a restart whose start
repeats an earlier one runs none), full fold steps, conflict-only fold steps,
calls of ``BlockState.moved`` (one-step conflicts of a block +/- a report,
each answered from the store or by at most one fold step) and k-term products
(calls of ``math.prod`` in ``cluster``, each over the survival factors of a
partition's k blocks). A descent's sweep first forms one product per block,
with that block's factor at 1.0, which scores the test of every report in it;
a report kept past that test whose block keeps members takes a second
product, with the factor its removal leaves. Then count the fold steps and
the branch-and-bound nodes of ``exhaustive_search`` on the same corpora, and
the fold steps of ``specify_corpus`` on the partitions ``partition_search``
returns: its full steps fold block chains, and its conflict-only steps are
one-step values of blocks with a report added.

Every visit of ``_branch_and_bound`` calls ``math.prod`` exactly once, for
the survival of its open blocks, which an inner node's bound and a leaf's
score both read. ``_report`` calls it once more for the winner. So the nodes
of one ``exhaustive_search`` are its ``math.prod`` calls minus one.

Corpora (seed 3 by default): the ``evintel gen`` ladder one rung at a time, ten
10-report corpora like the exhaustive-check benchmark's (five separable, five
random-mass, uniform prior on 1..4), and twelve track-desk-style scenarios
(fast targets in a wide box). The counts are deterministic. They are taken by
wrapping the kernels in the ``cluster`` module's namespace, and
``BlockState.moved`` on its class, from outside, so the package itself counts
nothing.
"""

import argparse
import collections
import contextlib
import math
import random
import types

from evintel import cluster
from evintel.cluster import DomainPrior, EvidenceCorpus, Report, exhaustive_search, partition_search
from evintel.ds import Frame
from evintel.oracle import random_mass, separable_corpus
from evintel.pipeline import parse_document
from evintel.scenario import ScenarioConfig, generate_scenario_doc
from evintel.specify import specify_corpus

LADDER = [(3, 4), (4, 6), (5, 6), (6, 8), (8, 8), (10, 10)]
TRACK_DESK_RUNGS = [(2, 6), (3, 6), (2, 10)]
SET_STRIDE = 100_003  # seed step between sets, as in the benchmark


@contextlib.contextmanager
def counting():
    """Count kernel calls in ``cluster`` while the block runs."""
    counts = collections.Counter()
    fold_step, descend, moved = cluster._fold_step, cluster._descend, cluster.BlockState.moved

    def counted_fold_step(state, items, last=False):
        counts["conflict-only" if last else "full"] += 1
        return fold_step(state, items, last)

    def counted_prod(factors):
        counts["products"] += 1
        return math.prod(factors)

    def counted_descend(*args):
        counts["descents"] += 1
        return descend(*args)

    def counted_moved(state, j):
        counts["moved"] += 1
        return moved(state, j)

    counted_math = types.SimpleNamespace(**vars(math))
    counted_math.prod = counted_prod
    saved = cluster._fold_step, cluster._descend, cluster.math
    cluster._fold_step, cluster._descend, cluster.math = counted_fold_step, counted_descend, counted_math
    cluster.BlockState.moved = counted_moved
    try:
        yield counts
    finally:
        cluster._fold_step, cluster._descend, cluster.math = saved
        cluster.BlockState.moved = moved


def count(search, corpora) -> list[float]:
    """Mean descents, full fold steps, conflict-only fold steps, ``moved`` calls
    and ``math.prod`` calls per call of ``search`` on each (corpus or partition,
    prior) pair."""
    with counting() as counts:
        for corpus, prior in corpora:
            search(corpus, prior)
    return [counts[key] / len(corpora) for key in ("descents", "full", "conflict-only", "moved", "products")]


def scenario(seed: int, targets: int, per_target: int, **kw):
    cfg = ScenarioConfig(seed=seed, targets=targets, reports_per_target=per_target, frame_size=max(6, targets), **kw)
    return parse_document(generate_scenario_doc(cfg))


def exhaustive_check_corpora(seed: int, sets: int = 5):
    frame = Frame(("t1", "t2", "t3", "t4"))
    prior = DomainPrior.uniform(4)
    corpora = []
    for k in range(sets):
        set_seed = seed + k * SET_STRIDE
        corpus, _ = separable_corpus(random.Random(f"separable:{set_seed}"), n_reports=10, n_groups=3)
        corpora.append((corpus, prior))
        rng = random.Random(f"mixed:{set_seed}")
        reports = tuple(Report(f"e{i + 1:02d}", random_mass(frame, rng)) for i in range(10))
        corpora.append((EvidenceCorpus(frame, reports), prior))
    return corpora


def track_desk_corpora(seed: int, sets: int = 4):
    return [
        scenario(seed + k * SET_STRIDE, t, p, v_max_kmh=10_000.0, area_km=20_000.0)
        for k in range(sets)
        for t, p in TRACK_DESK_RUNGS
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    rows = [(f"gen --seed {args.seed} {t}x{p}", [scenario(args.seed, t, p)]) for t, p in LADDER]
    rows.append(("exhaustive-check, 10 corpora", exhaustive_check_corpora(args.seed)))
    rows.append(("track-desk, 12 corpora", track_desk_corpora(args.seed)))
    print(f"{'':<30} {'partition_search':^66}   {'exhaustive_search':^36}   {'specify_corpus':^26}".rstrip())
    print(
        f"{'corpora':<30} {'descents':>9} {'full folds':>11} {'conflict-only':>14} {'moved calls':>12}"
        f" {'k-term products':>16}"
        f"   {'full folds':>11} {'conflict-only':>14} {'nodes':>9}"
        f"   {'full folds':>11} {'conflict-only':>14}   (per call)"
    )
    for label, corpora in rows:
        descents, full, last, moved, products = count(partition_search, corpora)
        _, exact_full, exact_last, _, calls = count(exhaustive_search, corpora)
        partitions = [(partition_search(corpus, prior)[0], prior) for corpus, prior in corpora]
        _, specify_full, specify_last, _, _ = count(specify_corpus, partitions)
        print(
            f"{label:<30} {descents:>9.1f} {full:>11.1f} {last:>14.1f} {moved:>12.1f} {products:>16.1f}"
            f"   {exact_full:>11.1f} {exact_last:>14.1f} {calls - 1:>9.1f}"
            f"   {specify_full:>11.1f} {specify_last:>14.1f}"
        )


if __name__ == "__main__":
    main()
