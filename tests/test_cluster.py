import random

import pytest

from evintel.cluster import (
    IMPROVEMENT_TOL,
    BlockState,
    DomainPrior,
    EvidenceCorpus,
    Partition,
    Report,
    SearchConfig,
    cluster_conflict,
    domain_conflict,
    enumerate_partitions,
    exhaustive_search,
    make_partition,
    metaconflict,
    partition_search,
)
from evintel.cluster import _descend, _random_start  # noqa: PLC2701 - descent properties
from evintel.ds import Frame, TotalConflictError, ValidationError, make_mass, vacuous
from evintel.oracle import (
    descents_agree,
    descents_part_only_at_near_ties,
    enumerate_search,
    mixed_corpus,
    random_prior,
    random_spread_mass,
    reference_combine,
    reference_conflict,
    separable_corpus,
)
from evintel.pipeline import parse_document
from evintel.scenario import ScenarioConfig, generate_scenario_doc
from evintel.specify import specify_corpus

AB = Frame(("A", "B"))


def simple(frame, element, w):
    return make_mass(frame, [((element,), w), (frame.elements, 1.0 - w)])


def spread_corpus(rng, n, orders=8.0):
    """Reports on a frame of 4 with focal weights spread over ``orders`` orders
    of magnitude, given to ``make_mass`` up to 5e-10 off a sum of 1."""
    frame = Frame(("A", "B", "C", "D"))
    reports = (Report(f"e{i:02d}", random_spread_mass(frame, rng, orders=orders)) for i in range(n))
    return EvidenceCorpus(frame, tuple(reports))


def corpus_of(frame, *pairs):
    return EvidenceCorpus(frame, tuple(Report(rid, m) for rid, m in pairs))


@pytest.fixture
def pair_corpus():
    return corpus_of(AB, ("e1", simple(AB, "A", 0.6)), ("e2", simple(AB, "B", 0.5)))


class TestClusterConflict:
    def test_conflicting_pair(self, pair_corpus):
        assert cluster_conflict(pair_corpus, ["e1", "e2"]) == pytest.approx(0.3, abs=1e-12)

    def test_identical_focals(self):
        corpus = corpus_of(AB, ("e1", simple(AB, "A", 0.6)), ("e2", simple(AB, "A", 0.9)))
        assert cluster_conflict(corpus, ["e1", "e2"]) == 0.0

    def test_singleton(self, pair_corpus):
        assert cluster_conflict(pair_corpus, ["e1"]) == 0.0

    def test_total_contradiction_returns_one(self):
        corpus = corpus_of(
            AB,
            ("e1", make_mass(AB, [(("A",), 1.0)])),
            ("e2", make_mass(AB, [(("B",), 1.0)])),
        )
        assert cluster_conflict(corpus, ["e1", "e2"]) == 1.0

    def test_unknown_member(self, pair_corpus):
        with pytest.raises(ValidationError):
            cluster_conflict(pair_corpus, ["nope"])


class TestDomainConflict:
    def test_uniform(self):
        assert domain_conflict(3, DomainPrior.uniform(5)) == pytest.approx(0.8)

    def test_certain(self):
        assert domain_conflict(2, DomainPrior({2: 1.0})) == 0.0

    def test_excluded_count(self):
        assert domain_conflict(2, DomainPrior({1: 1.0})) == 1.0

    def test_beyond_rmax(self):
        assert domain_conflict(9, DomainPrior.uniform(4)) == 1.0

    def test_invalid_count(self):
        with pytest.raises(ValidationError):
            domain_conflict(0, DomainPrior.uniform(4))


class TestPrior:
    def test_sum_violation(self):
        with pytest.raises(ValidationError, match="sum"):
            DomainPrior({1: 0.5, 2: 0.4})

    def test_bad_count(self):
        with pytest.raises(ValidationError):
            DomainPrior({0: 1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probability(self, bad):
        with pytest.raises(ValidationError, match="not a finite number"):
            DomainPrior({1: bad, 2: 1.0})


class TestPartitionValidation:
    def test_empty_block(self, pair_corpus):
        with pytest.raises(ValidationError, match="empty block"):
            Partition(pair_corpus, (("e1", "e2"), ()))

    def test_double_membership(self, pair_corpus):
        with pytest.raises(ValidationError, match="two blocks"):
            Partition(pair_corpus, (("e1", "e2"), ("e1",)))

    def test_cover(self, pair_corpus):
        with pytest.raises(ValidationError, match="cover"):
            Partition(pair_corpus, (("e1",),))

    def test_make_partition_normalizes(self, pair_corpus):
        p = make_partition(pair_corpus, [["e2"], ["e1"]])
        assert p.blocks == (("e1",), ("e2",))
        assert p.block_of("e2") == 1


class TestMetaconflict:
    def test_all_zero(self):
        corpus = corpus_of(AB, ("e1", simple(AB, "A", 0.6)), ("e2", simple(AB, "A", 0.9)))
        part = make_partition(corpus, [["e1", "e2"]])
        report = metaconflict(part, DomainPrior({1: 1.0}))
        assert report.mcf == 0.0

    def test_worked_example(self, pair_corpus):
        # c0 = 0.8 (uniform on 5 counts, n = 2), cluster conflicts (0.3, 0.0)
        corpus = corpus_of(
            AB,
            ("e1", simple(AB, "A", 0.6)),
            ("e2", simple(AB, "B", 0.5)),
            ("e3", simple(AB, "A", 0.4)),
        )
        part = make_partition(corpus, [["e1", "e2"], ["e3"]])
        report = metaconflict(part, DomainPrior.uniform(5))
        assert report.c0 == pytest.approx(0.8)
        assert report.cluster_conflicts == (pytest.approx(0.3), 0.0)
        assert report.mcf == pytest.approx(0.86, abs=1e-12)

    def test_absorbing_conflict(self):
        corpus = corpus_of(
            AB,
            ("e1", make_mass(AB, [(("A",), 1.0)])),
            ("e2", make_mass(AB, [(("B",), 1.0)])),
        )
        part = make_partition(corpus, [["e1", "e2"]])
        assert metaconflict(part, DomainPrior.uniform(2)).mcf == 1.0

    def test_mcf_field_consistency(self):
        rng = random.Random(5)
        for _ in range(20):
            corpus, _ = separable_corpus(rng, n_reports=6, n_groups=2)
            part = make_partition(corpus, [[r.id for r in corpus.reports]])
            rep = metaconflict(part, DomainPrior.uniform(3))
            expect = 1.0 - (1.0 - rep.c0) * (1.0 - rep.cluster_conflicts[0])
            assert abs(rep.mcf - expect) <= 1e-12

    def test_monotone_in_conflicts(self):
        from evintel.cluster import _mcf_value

        base = _mcf_value(0.3, [0.2, 0.4])
        assert _mcf_value(0.35, [0.2, 0.4]) > base
        assert _mcf_value(0.3, [0.25, 0.4]) > base
        assert _mcf_value(0.3, [0.2, 0.45]) > base


class TestPartitionSearch:
    def test_two_conflicting_reports_split(self):
        corpus = corpus_of(AB, ("e1", simple(AB, "A", 0.9)), ("e2", simple(AB, "B", 0.9)))
        prior = DomainPrior.uniform(2)
        part, rep = partition_search(corpus, prior, SearchConfig(restarts=8, seed=0))
        assert part.blocks == (("e1",), ("e2",))
        assert rep.mcf == pytest.approx(0.5, abs=1e-12)
        together = metaconflict(make_partition(corpus, [["e1", "e2"]]), prior)
        assert together.mcf == pytest.approx(0.905, abs=1e-12)

    def test_compatible_corpus_single_block(self):
        corpus = corpus_of(
            AB,
            ("e1", simple(AB, "A", 0.6)),
            ("e2", simple(AB, "A", 0.8)),
            ("e3", simple(AB, "A", 0.2)),
        )
        part, rep = partition_search(corpus, DomainPrior({1: 1.0}), SearchConfig(restarts=5, seed=2))
        assert part.n_blocks == 1
        assert rep.mcf == 0.0

    def test_four_groups_of_thirteen(self):
        rng = random.Random(99)
        corpus, groups = separable_corpus(rng, n_reports=13, n_groups=4)
        part, _ = partition_search(corpus, DomainPrior.uniform(6), SearchConfig(restarts=20, seed=4))
        assert sorted(sorted(b) for b in part.blocks) == sorted(sorted(g) for g in groups)

    def test_deterministic_given_seed(self):
        rng = random.Random(17)
        corpus, _ = separable_corpus(rng, n_reports=8, n_groups=3)
        prior = DomainPrior.uniform(4)
        runs = [partition_search(corpus, prior, SearchConfig(restarts=10, seed=5)) for _ in range(2)]
        assert runs[0][0].blocks == runs[1][0].blocks
        assert runs[0][1] == runs[1][1]

    def test_descent_never_increases_mcf(self):
        rng = random.Random(31)
        for trial in range(20):
            corpus, _ = separable_corpus(rng, n_reports=7, n_groups=rng.randint(2, 3))
            prior = DomainPrior.uniform(4)
            start_rng = random.Random(trial)
            start = _random_start(corpus, prior, start_rng)
            start_mcf = metaconflict(make_partition(corpus, start), prior).mcf
            _, end_mcf = _descend(corpus, prior, [list(b) for b in start], max_sweeps=200, store={})
            assert end_mcf <= start_mcf + 1e-12

    def test_blocks_never_exceed_prior_support(self):
        rng = random.Random(37)
        for trial in range(10):
            corpus, _ = separable_corpus(rng, n_reports=9, n_groups=3)
            part, _ = partition_search(
                corpus, DomainPrior.uniform(2), SearchConfig(restarts=6, seed=trial)
            )
            assert part.n_blocks <= 2

    def test_searches_leave_the_corpus_unchanged(self):
        # no value outlives a search on the corpus object; dicts by contents
        def attributes(corpus):
            return {name: dict(v) if isinstance(v, dict) else v for name, v in vars(corpus).items()}

        corpus, _ = separable_corpus(random.Random(67), n_reports=10, n_groups=3)
        prior = DomainPrior.uniform(4)
        before = attributes(corpus)
        part, _ = partition_search(corpus, prior)
        exhaustive_search(corpus, prior)
        metaconflict(part, prior)
        specify_corpus(part, prior)
        assert attributes(corpus) == before

    def test_repeated_search_equals_one_on_a_fresh_copy(self):
        # and the report is the metaconflict of the result, bit for bit, on
        # corpora whose blocks have unequal conflicts
        rng = random.Random(5)
        prior = DomainPrior.uniform(5)
        for _ in range(5):
            corpus = mixed_corpus(rng, 12, 3)
            partition_search(corpus, prior)
            part, report = partition_search(corpus, prior)
            fresh_part, fresh_report = partition_search(EvidenceCorpus(corpus.frame, corpus.reports), prior)
            assert part.blocks == fresh_part.blocks
            assert report == fresh_report == metaconflict(part, prior)

    def test_invalid_config(self, pair_corpus):
        prior = DomainPrior.uniform(2)
        with pytest.raises(ValidationError, match="restarts"):
            partition_search(pair_corpus, prior, SearchConfig(restarts=0))
        with pytest.raises(ValidationError, match="max_sweeps"):
            partition_search(pair_corpus, prior, SearchConfig(max_sweeps=-1))
        part, report = partition_search(pair_corpus, prior, SearchConfig(max_sweeps=0))  # the best start
        assert report == metaconflict(part, prior)

    def test_hopeless_prior_returns_full_conflict(self):
        # every reachable block count has prior 0, so the best any partition
        # can score is mcf 1; the search must still terminate and return one
        rng = random.Random(41)
        corpus, _ = separable_corpus(rng, n_reports=4, n_groups=2)
        prior = DomainPrior({9: 1.0})
        part, rep = partition_search(corpus, prior, SearchConfig(restarts=4, seed=0))
        assert rep.mcf == 1.0
        assert part.n_blocks <= 4


class TestEnumeration:
    def test_partition_counts(self):
        assert sum(1 for _ in enumerate_partitions(4, 4)) == 15  # Bell(4)
        assert sum(1 for _ in enumerate_partitions(5, 2)) == 16  # S(5,1) + S(5,2)
        # the acceptance-scale oracle: partitions of 10 into at most 4 blocks
        assert sum(1 for _ in enumerate_partitions(10, 4)) == 43947

    def test_enumeration_is_exhaustive_and_disjoint(self):
        seen = set()
        for blocks in enumerate_partitions(4, 3):
            key = tuple(tuple(b) for b in blocks)
            assert key not in seen
            seen.add(key)
            flat = sorted(x for b in blocks for x in b)
            assert flat == [0, 1, 2, 3]

    def test_search_matches_exhaustive_on_small_instances(self):
        rng = random.Random(51)
        for trial in range(10):
            corpus, _ = separable_corpus(rng, n_reports=7, n_groups=rng.randint(2, 3))
            prior = DomainPrior.uniform(3)
            _, found = partition_search(corpus, prior, SearchConfig(restarts=20, seed=trial))
            _, best = exhaustive_search(corpus, prior)
            assert found.mcf == pytest.approx(best.mcf, abs=1e-9)


class TestBranchAndBound:
    def test_matches_enumeration(self):
        # same blocks and a bit-identical report, not only the same value: a
        # quarter of the reports are categorical (saturated blocks), a tenth
        # vacuous (exact value ties), priors have zero entries, and every other
        # corpus caps the block count explicitly
        rng = random.Random(61)
        corpora = 0
        for n in range(1, 9):
            for t in range(40):
                corpus = mixed_corpus(
                    rng, n, rng.randint(2, 4), categorical_share=0.25, vacuous_share=0.1
                )
                prior = random_prior(rng, rng.randint(1, n + 1), zero_share=0.4)
                max_blocks = rng.randint(1, n) if t % 2 else None
                part, report = exhaustive_search(corpus, prior, max_blocks)
                fresh = EvidenceCorpus(corpus.frame, corpus.reports)
                oracle_part, oracle_report = enumerate_search(fresh, prior, max_blocks)
                assert part.blocks == oracle_part.blocks
                assert report.mcf == oracle_report.mcf
                assert report == oracle_report
                corpora += 1
        assert corpora >= 300

    @pytest.mark.parametrize("n", [5, 16])
    def test_tie_goes_to_smallest_canonical_key(self, n):
        # every 3-block partition of vacuous reports scores 0.5 and every
        # 4-block one too; depth-first order meets ((0, .., n-3), (n-2,), (n-1,))
        # first, the canonical key prefers ((0,), (1,), (2, .., n-1)). At 16
        # reports the ties number in the millions, so the key must prune.
        frame = Frame(("A", "B"))
        corpus = corpus_of(frame, *((f"r{i}", vacuous(frame)) for i in range(n)))
        prior = DomainPrior({3: 0.5, 4: 0.5})
        part, report = exhaustive_search(corpus, prior)
        assert part.blocks == (("r0",), ("r1",), tuple(f"r{i}" for i in range(2, n)))
        assert report.mcf == 0.5
        if n <= 8:
            assert part.blocks == enumerate_search(corpus, prior)[0].blocks

    def test_saturated_blocks_split(self):
        a, b = make_mass(AB, [(("A",), 1.0)]), make_mass(AB, [(("B",), 1.0)])
        corpus = corpus_of(AB, ("e1", a), ("e2", b), ("e3", a), ("e4", b))
        part, report = exhaustive_search(corpus, DomainPrior.uniform(2))
        assert part.blocks == (("e1", "e3"), ("e2", "e4"))
        assert report.mcf == 0.5

    def test_invalid_max_blocks(self, pair_corpus):
        with pytest.raises(ValidationError, match="max_blocks"):
            exhaustive_search(pair_corpus, DomainPrior.uniform(2), max_blocks=0)

    def test_search_reaches_minimum_on_larger_corpora(self):
        rng = random.Random(71)
        for n in (14, 15, 16):
            for groups in (3, 4):
                corpus, truth = separable_corpus(rng, n_reports=n, n_groups=groups)
                prior = DomainPrior.uniform(5)
                _, found = partition_search(corpus, prior, SearchConfig(restarts=20, seed=n))
                best_part, best = exhaustive_search(corpus, prior)
                assert found.mcf == pytest.approx(best.mcf, abs=1e-9)
                assert sorted(sorted(b) for b in best_part.blocks) == sorted(sorted(g) for g in truth)


class TestIncrementalDescent:
    def test_matches_reference_on_mixed_corpora(self):
        # categorical reports saturate blocks, vacuous ones tie moves exactly,
        # priors have zero entries; every third run stops after 1 or 2 sweeps
        rng = random.Random(83)
        for t in range(320):
            n = rng.randint(1, 12)
            corpus = mixed_corpus(
                rng, n, rng.randint(2, 4), categorical_share=0.25, vacuous_share=0.1
            )
            prior = random_prior(rng, rng.randint(1, n + 1), zero_share=0.4)
            start = _random_start(corpus, prior, random.Random(t))
            assert descents_agree(corpus, prior, start, (1, 2, 200)[t % 3])

    def test_matches_reference_on_separable_corpora(self):
        rng = random.Random(89)
        for t in range(40):
            corpus, _ = separable_corpus(rng, n_reports=rng.randint(4, 16), n_groups=rng.randint(2, 4))
            prior = DomainPrior.uniform(5)
            start = _random_start(corpus, prior, random.Random(t))
            assert descents_agree(corpus, prior, start, 200 if t % 4 else 1)

    def test_matches_reference_on_saturated_corpora(self):
        # every report categorical: a block is either conflict-free or saturated
        rng = random.Random(97)
        for t in range(60):
            n = rng.randint(2, 12)
            corpus = mixed_corpus(rng, n, rng.randint(2, 4), categorical_share=1.0)
            prior = random_prior(rng, rng.randint(1, n + 1))
            start = _random_start(corpus, prior, random.Random(t))
            assert descents_agree(corpus, prior, start, 200 if t % 4 else 2)

    @pytest.mark.parametrize("rung", [(3, 4), (4, 6), (5, 6), (6, 8), (10, 10)])
    def test_matches_reference_on_gen_ladder(self, rung):
        targets, per_target = rung
        doc = generate_scenario_doc(
            ScenarioConfig(seed=3, targets=targets, reports_per_target=per_target, frame_size=max(6, targets))
        )
        corpus, prior = parse_document(doc)
        for i in range(4):
            start = _random_start(corpus, prior, random.Random(f"0:{i}"))
            assert descents_agree(corpus, prior, start, 200)

    def test_block_state_conflicts_match_cluster_conflict(self):
        # block +/- j, the block itself and the block after each toggle, bit for
        # bit, on blocks where a categorical report makes total conflicts; the
        # reference folds oracle.reference_combine, cluster_conflict the same kernel
        rng = random.Random(101)
        totals = 0
        for _ in range(60):
            corpus = mixed_corpus(rng, rng.randint(2, 9), rng.randint(2, 3), categorical_share=0.3)
            ids = corpus.ids

            def expected(indices):
                block = [ids[i] for i in indices]
                c = reference_conflict(corpus, block)
                assert cluster_conflict(corpus, block) == c
                return c

            members = sorted(rng.sample(range(len(ids)), rng.randint(1, len(ids))))
            state = BlockState(corpus, list(members))
            assert state.conflict() == expected(members)
            for j in range(len(ids)):
                toggled = set(members) ^ {j}
                if toggled:
                    c = expected(toggled)
                    assert state.toggled(j) == c
                    totals += c == 1.0
            for j in rng.sample(range(len(ids)), len(ids)):
                if len(state.members) > 1 or state.members != [j]:
                    state.toggle(j)
                    assert state.conflict() == expected(state.members)
        assert totals > 0

    def test_toggled_is_one_when_the_last_step_saturates(self):
        # rounding: e1 and e2 leave survival about 2e-11 and e3 about 2e-22, so
        # 1 - survival is 1.0 although no step raises; raising: e1 and e2 leave
        # all mass on A, and e3 puts all of it on B. The vacuous report lets the
        # same last step close a removal's refold (block minus "v").
        frame = Frame(("A", "B", "C"))
        x = 1e-11
        rounding = [simple(frame, "A", 1 - x), simple(frame, "B", 1 - x), simple(frame, "C", 1 - x)]
        raising = [make_mass(frame, [(("A",), 1.0)]), simple(frame, "A", 0.5), make_mass(frame, [(("B",), 1.0)])]
        for e1, e2, e3 in (rounding, raising):

            corpus = corpus_of(frame, ("e1", e1), ("e2", e2), ("v", vacuous(frame)), ("e3", e3))

            def state(*members):  # with a store of its own, so no value comes from another state
                return BlockState(corpus, list(members))

            pair, c12 = reference_combine(e1, e2)
            try:
                _, c3 = reference_combine(pair, e3)
            except TotalConflictError:
                assert e3 is raising[2]
            else:
                assert e3 is rounding[2]
                assert c3 < 1 - 1e-12 and 1.0 - (1.0 - c12) * (1.0 - c3) == 1.0
            assert state(0, 1).toggled(3) == 1.0
            assert state(0, 1, 2, 3).toggled(2) == 1.0
            assert state(0, 1).moved(3) == 1.0  # the whole prefix chain's state plus e3
            assert state(0, 1, 2, 3).moved(2) == 1.0  # prefix (e1, e2) plus suffix (e3)
            assert state(0, 1, 3).conflict() == 1.0
            assert reference_conflict(corpus, ["e1", "e2", "e3"]) == 1.0

    def test_moved_is_within_tolerance_of_the_reference(self):
        # block +/- j by one step from the prefix and suffix chains, against the
        # canonical fold of oracle.reference_combine, on blocks with total
        # conflicts and exact ties; removals of first, middle and last members
        rng = random.Random(103)
        worst, totals, middles = 0.0, 0, 0
        for _ in range(150):
            n = rng.randint(2, 9)
            corpus = mixed_corpus(rng, n, rng.randint(2, 4), categorical_share=0.25, vacuous_share=0.1)
            ids = corpus.ids
            members = sorted(rng.sample(range(n), rng.randint(1, n)))
            state = BlockState(corpus, list(members), {})
            for j in range(n):
                toggled = set(members) ^ {j}
                if toggled:
                    c = state.moved(j)
                    worst = max(worst, abs(c - reference_conflict(corpus, [ids[i] for i in toggled])))
                    totals += c == 1.0
                    middles += j in members[1:-1]
        assert worst <= IMPROVEMENT_TOL / 10
        assert totals > 0 and middles > 0

    def test_moved_after_toggles_matches_a_fresh_state(self):
        # both chains are grown in full, then cut by a toggle and regrown on
        # demand; every value must be the one a state built from scratch gives
        rng = random.Random(107)
        for _ in range(40):
            n = rng.randint(2, 9)
            corpus = mixed_corpus(rng, n, rng.randint(2, 4), categorical_share=0.2, vacuous_share=0.1)
            store: dict = {}
            state = BlockState(corpus, sorted(rng.sample(range(n), rng.randint(1, n))), store)
            for _ in range(12):
                fresh = BlockState(corpus, list(state.members), {})
                for j in range(n):
                    if state.members != [j]:
                        assert state.moved(j) == fresh.moved(j)
                assert state.conflict() == fresh.conflict()
                j = rng.randrange(n)
                if state.members != [j]:
                    store.clear()  # so no value is read back from before the toggle
                    state.toggle(j)

    def test_joining_never_lowers_the_moved_conflict(self):
        # rule 3 of _descend on masses spread over 8 orders of magnitude, where
        # the canonical refold drops different dust and can fall: an add is one
        # step from the state whose 1 - survival is the block's conflict
        rng = random.Random(109)
        pairs, falls = 0, 0
        for _ in range(300):
            corpus = spread_corpus(rng, rng.randint(3, 10))
            n = len(corpus.reports)
            members = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            state = BlockState(corpus, members, {})
            c = state.conflict()
            for j in set(range(n)) - set(members):
                assert state.moved(j) >= c
                falls += state.toggled(j) < c
                pairs += 1
        assert pairs > 500 and falls > 0  # the data reaches the dust

    @pytest.mark.parametrize("orders", [8.0, 14.0])
    def test_spread_masses_part_from_the_reference_only_at_near_ties(self, orders):
        # moved values differ from the canonical ones by the dust each fold
        # order drops (up to about 2e-12 here), so where two moves, or a move
        # and a stop, are that close the descent may take the other one
        rng = random.Random(113)
        for t in range(150):
            corpus = spread_corpus(rng, rng.randint(2, 10), orders)
            prior = random_prior(rng, rng.randint(1, len(corpus.reports) + 1), zero_share=0.3)
            start = _random_start(corpus, prior, random.Random(t))
            assert descents_part_only_at_near_ties(corpus, prior, start, 200)

    def test_search_caches_only_canonical_conflicts(self):
        # the store partition_search's restarts share, built as it builds it
        doc = generate_scenario_doc(ScenarioConfig(seed=3, targets=4, reports_per_target=6, frame_size=6))
        corpus, prior = parse_document(doc)
        ids = corpus.ids
        store: dict = {}
        for i in range(20):
            _descend(corpus, prior, _random_start(corpus, prior, random.Random(f"0:{i}")), 200, store)
        assert store
        for members, (c, _) in store.items():
            assert c == reference_conflict(corpus, [ids[i] for i in members])
