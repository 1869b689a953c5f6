#!/usr/bin/env python3
"""Thirteen mixed-up reports from four mutually contradictory groups:
cluster them, show the metaconflict bookkeeping and the per-report
membership weights for the recovered grouping."""

import argparse
import random

from evintel.cluster import DomainPrior, SearchConfig, make_partition, metaconflict, partition_search
from evintel.oracle import separable_corpus
from evintel.specify import specify_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1313)
    parser.add_argument("--restarts", type=int, default=20)
    args = parser.parse_args()

    corpus, groups = separable_corpus(random.Random(args.seed), n_reports=13, n_groups=4)
    prior = DomainPrior.uniform(6)
    partition, report = partition_search(
        corpus, prior, SearchConfig(restarts=args.restarts, seed=args.seed)
    )

    print(f"{len(corpus.reports)} reports, ground truth has {len(groups)} groups")
    print(f"search found {partition.n_blocks} blocks, mcf = {report.mcf:.6f} (c0 = {report.c0:.6f})")
    for i, (block, c) in enumerate(zip(partition.blocks, report.cluster_conflicts)):
        print(f"  block {i}: conflict {c:.6f}  {' '.join(block)}")

    single = metaconflict(make_partition(corpus, [corpus.ids]), prior)
    print(f"for contrast, one big block scores mcf = {single.mcf:.6f}")

    _, weights = specify_corpus(partition, prior)
    print("\nmembership weights (rows sum to 1):")
    for rid in corpus.ids:
        row = " ".join(f"{weights[rid][k]:.3f}" for k in range(partition.n_blocks))
        print(f"  {rid}: {row}")


if __name__ == "__main__":
    main()
