import random

import pytest

from conftest import corpus_of, simple
from evintel.cluster import DomainPrior, cluster_conflict, make_partition
from evintel.ds import Frame, make_mass, vacuous
from evintel.oracle import separable_corpus
from evintel.specify import NEW_BLOCK, specify_corpus

AB = Frame(("A", "B"))
ABC = Frame(("A", "B", "C"))


class TestMembershipEvidence:
    def test_removal_worked_example(self):
        corpus = corpus_of(AB, ("e1", simple(AB, "A", 0.6)), ("e2", simple(AB, "B", 0.5)))
        part = make_partition(corpus, [["e1", "e2"]])
        pl, _ = specify_corpus(part, DomainPrior.uniform(2))
        assert pl["e2"][0] == pytest.approx(0.7, abs=1e-12)

    def test_compatible_insertion_is_free(self):
        corpus = corpus_of(
            AB,
            ("e1", make_mass(AB, [(("A",), 1.0)])),
            ("e2", simple(AB, "A", 0.5)),
        )
        part = make_partition(corpus, [["e1"], ["e2"]])
        pl, _ = specify_corpus(part, DomainPrior.uniform(2))
        assert pl["e2"][0] == 1.0

    def test_insertion_worked_example(self):
        corpus = corpus_of(AB, ("e1", simple(AB, "A", 0.6)), ("e3", simple(AB, "B", 0.5)))
        part = make_partition(corpus, [["e1"], ["e3"]])
        pl, _ = specify_corpus(part, DomainPrior.uniform(2))
        assert pl["e3"][0] == pytest.approx(0.7, abs=1e-12)

    def test_total_preexisting_conflict_gives_full_against(self):
        corpus = corpus_of(
            AB,
            ("e1", make_mass(AB, [(("A",), 1.0)])),
            ("e2", make_mass(AB, [(("B",), 1.0)])),
            ("e3", simple(AB, "A", 0.5)),
        )
        part = make_partition(corpus, [["e1", "e2"], ["e3"]])
        pl, _ = specify_corpus(part, DomainPrior.uniform(2))
        assert pl["e3"][0] == 0.0  # the target block is already in total conflict
        for member in ("e1", "e2"):  # and so is its members' own block
            assert pl[member][0] == 0.0

    def test_domain_component_on_spawn(self):
        corpus = corpus_of(AB, ("e1", simple(AB, "A", 0.6)), ("e2", simple(AB, "A", 0.5)))
        part = make_partition(corpus, [["e1", "e2"]])
        prior = DomainPrior({1: 0.8, 2: 0.2})
        pl, _ = specify_corpus(part, prior)
        # spawning moves the count 1 -> 2: c0 goes 0.2 -> 0.8, a domain
        # against of (0.8 - 0.2) / 0.8; a singleton adds no cluster conflict
        assert pl["e1"][NEW_BLOCK] == pytest.approx(1.0 - (0.8 - 0.2) / 0.8)

    def test_domain_component_on_emptying(self):
        corpus = corpus_of(AB, ("e1", simple(AB, "A", 0.6)), ("e2", simple(AB, "B", 0.5)))
        part = make_partition(corpus, [["e1"], ["e2"]])
        prior = DomainPrior({1: 0.2, 2: 0.8})
        pl, _ = specify_corpus(part, prior)
        # moving e1 into e2's block empties its own: count 2 -> 1, c0 0.2 -> 0.8,
        # on top of the cluster against of 0.3
        assert pl["e1"][1] == pytest.approx(0.7 * (1.0 - (0.8 - 0.2) / 0.8))
        # while the fresh move keeps the count (singleton origin): no domain change
        assert pl["e1"][NEW_BLOCK] == 1.0


class TestSpecifyCorpus:
    def test_worked_example_weights(self):
        corpus = corpus_of(
            AB,
            ("e1", simple(AB, "A", 0.6)),
            ("e2", simple(AB, "A", 0.6)),
            ("e3", simple(AB, "B", 0.5)),
        )
        part = make_partition(corpus, [["e1", "e2"], ["e3"]])
        plausibility, weights = specify_corpus(part, DomainPrior.uniform(3))
        assert plausibility["e1"][0] == pytest.approx(1.0)
        assert plausibility["e1"][1] == pytest.approx(0.7)
        assert weights["e1"][0] == pytest.approx(1.0 / 1.7, abs=1e-9)
        assert weights["e1"][1] == pytest.approx(0.7 / 1.7, abs=1e-9)

    def test_symmetric_report_gets_equal_weights(self):
        corpus = corpus_of(
            ABC,
            ("a", simple(ABC, "A", 0.7)),
            ("b", simple(ABC, "B", 0.7)),
            ("x", vacuous(ABC)),
        )
        part = make_partition(corpus, [["a", "x"], ["b"]])
        _, weights = specify_corpus(part, DomainPrior.uniform(3))
        assert weights["x"][0] == pytest.approx(weights["x"][1])

    def test_categorical_singletons_keep_own_block(self):
        corpus = corpus_of(
            ABC,
            ("a", make_mass(ABC, [(("A",), 1.0)])),
            ("b", make_mass(ABC, [(("B",), 1.0)])),
            ("c", make_mass(ABC, [(("C",), 1.0)])),
        )
        part = make_partition(corpus, [["a"], ["b"], ["c"]])
        _, weights = specify_corpus(part, DomainPrior.uniform(3))
        for rid, own in (("a", 0), ("b", 1), ("c", 2)):
            assert weights[rid][own] == pytest.approx(1.0)
            for k in range(3):
                if k != own:
                    assert weights[rid][k] == 0.0

    def test_weights_sum_to_one(self):
        rng = random.Random(8)
        for _ in range(20):
            corpus, groups = separable_corpus(rng, n_reports=8, n_groups=3)
            part = make_partition(corpus, groups)
            plausibility, weights = specify_corpus(part, DomainPrior.uniform(4))
            for rid in corpus.ids:
                assert sum(weights[rid].values()) == pytest.approx(1.0, abs=1e-9)
                for v in plausibility[rid].values():
                    assert 0.0 <= v <= 1.0

    def test_ground_truth_block_maximizes_plausibility(self):
        rng = random.Random(13)
        for _ in range(20):
            corpus, groups = separable_corpus(rng, n_reports=9, n_groups=3)
            part = make_partition(corpus, groups)
            plausibility, _ = specify_corpus(part, DomainPrior.uniform(4))
            for rid in corpus.ids:
                own = part.block_of(rid)
                best = max(range(part.n_blocks), key=lambda k: plausibility[rid][k])
                assert best == own

    def test_move_monotonicity(self):
        rng = random.Random(21)
        for _ in range(10):
            corpus, groups = separable_corpus(rng, n_reports=8, n_groups=3)
            part = make_partition(corpus, groups)
            for rid in corpus.ids:
                own = part.block_of(rid)
                for k, block in enumerate(part.blocks):
                    if k == own:
                        rest = [r for r in block if r != rid]
                        if rest:
                            assert cluster_conflict(corpus, rest) <= cluster_conflict(
                                corpus, block
                            ) + 1e-12
                    else:
                        assert cluster_conflict(corpus, list(block) + [rid]) >= cluster_conflict(
                            corpus, block
                        ) - 1e-12
