"""Cross-module invariants on random (not necessarily separable) corpora."""

import random

import pytest

from evintel.cluster import (
    DomainPrior,
    cluster_conflict,
    make_partition,
    metaconflict,
)
from evintel.cluster import _random_start  # noqa: PLC2701 - the search's own random partitions
from evintel.oracle import mixed_corpus, random_prior
from evintel.specify import NEW_BLOCK, specify_corpus


def random_partition(rng, corpus, max_blocks):
    return make_partition(corpus, _random_start(corpus, DomainPrior.uniform(max_blocks), rng))


def test_metaconflict_stays_in_unit_interval():
    rng = random.Random(71)
    for _ in range(50):
        corpus = mixed_corpus(rng, rng.randint(1, 8))
        prior = random_prior(rng, 5)
        part = random_partition(rng, corpus, 5)
        rep = metaconflict(part, prior)
        assert 0.0 <= rep.c0 <= 1.0
        assert all(0.0 <= c <= 1.0 for c in rep.cluster_conflicts)
        assert 0.0 <= rep.mcf <= 1.0
        prod = 1.0
        for c in rep.cluster_conflicts:
            prod *= 1.0 - c
        assert rep.mcf == pytest.approx(1.0 - (1.0 - rep.c0) * prod, abs=1e-12)


def test_membership_values_stay_in_unit_interval():
    rng = random.Random(73)
    for _ in range(30):
        corpus = mixed_corpus(rng, rng.randint(2, 7))
        prior = random_prior(rng, 4)
        part = random_partition(rng, corpus, 4)
        plausibility, weights = specify_corpus(part, prior)
        for rid in corpus.ids:
            for key in list(range(part.n_blocks)) + [NEW_BLOCK]:
                assert 0.0 <= plausibility[rid][key] <= 1.0
            assert sum(weights[rid].values()) == pytest.approx(1.0, abs=1e-9)


def test_move_monotonicity_on_random_corpora():
    rng = random.Random(79)
    for _ in range(20):
        corpus = mixed_corpus(rng, rng.randint(2, 7))
        part = random_partition(rng, corpus, 4)
        for rid in corpus.ids:
            own = part.block_of(rid)
            for k, block in enumerate(part.blocks):
                if k == own:
                    rest = [r for r in block if r != rid]
                    if rest:
                        assert cluster_conflict(corpus, rest) <= cluster_conflict(
                            corpus, block
                        ) + 1e-9
                else:
                    assert cluster_conflict(corpus, list(block) + [rid]) >= cluster_conflict(
                        corpus, block
                    ) - 1e-9


def test_own_block_against_never_exceeds_rejoin_insertion():
    # removing then re-inserting a report reproduces the same conflict step, so
    # the removal ratio equals the insertion ratio into the remainder
    rng = random.Random(83)
    for _ in range(20):
        corpus = mixed_corpus(rng, rng.randint(3, 6))
        part = random_partition(rng, corpus, 3)
        pl, _ = specify_corpus(part, DomainPrior.uniform(6))
        for rid in corpus.ids:
            own = part.block_of(rid)
            block = part.blocks[own]
            rest = [r for r in block if r != rid]
            if not rest:
                continue
            c_rest = cluster_conflict(corpus, rest)
            c_full = cluster_conflict(corpus, block)
            if c_rest < 1.0:
                expect = (c_full - c_rest) / (1.0 - c_rest)
                assert 1.0 - pl[rid][own] == pytest.approx(max(0.0, min(1.0, expect)), abs=1e-12)
