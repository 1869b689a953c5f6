"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Budgets, seeds and trial counts are pinned here, not
configurable. Criteria 1, 5, 6 and 8 run the ``oracle.check_*`` entries that
``oracle-check`` runs, with their own seeds, and take the entries' tolerances.
"""

import math
import random
import time

import pytest

from conftest import spe_by_profile_enumeration
from evintel.cluster import (
    DomainPrior,
    SearchConfig,
    exhaustive_search,
    make_partition,
    cluster_conflict,
    partition_search,
)
from evintel.decide import (
    UtilityIntervalChoice,
    rho_segmentation,
    sequential_play,
)
from evintel.ds import Frame, combine_dempster
from evintel.oracle import (
    OracleSizeError,
    check_best_path,
    check_counting_bpa,
    check_posterior_combination,
    check_rho_preferences,
    check_sequential_conflict,
    check_track_plausibility,
    combine_oracle,
    random_game,
    random_mass,
    random_track_graph,
    reference_play,
    separable_corpus,
)
from evintel.posterior import posterior_distribution
from evintel.specify import specify_corpus
from evintel.tracks import best_path_dp

FRAME = Frame(("a", "b", "c", "d"))


def _passed(criterion: str, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail}; {elapsed:.1f}s)")


def separable_instances(n_instances: int = 100):
    """The shared corpus family for criteria 2 and 4 (seeded, reproducible)."""
    rng = random.Random(42)
    return [separable_corpus(rng, n_reports=10, n_groups=3) for _ in range(n_instances)]


def test_c1_dempster_core_algebra():
    start = time.perf_counter()
    rng = random.Random(101)

    for _ in range(200):
        m1, m2 = random_mass(FRAME, rng), random_mass(FRAME, rng)
        a, ca = combine_dempster(m1, m2)
        assert 0.0 <= ca < 1.0
        assert abs(math.fsum(a.masses.values()) - 1.0) <= 1e-9
        assert all(v > 0 for v in a.masses.values())
        assert 0 not in a.masses
        b, cb = combine_dempster(m2, m1)
        assert abs(ca - cb) <= 1e-9
        assert set(a.masses) == set(b.masses)
        assert all(abs(v - b.masses[k]) <= 1e-9 for k, v in a.masses.items())

    for _ in range(100):
        m1, m2, m3 = (random_mass(FRAME, rng) for _ in range(3))
        left, _ = combine_dempster(combine_dempster(m1, m2)[0], m3)
        right, _ = combine_dempster(m1, combine_dempster(m2, m3)[0])
        assert set(left.masses) == set(right.masses)
        assert all(abs(v - right.masses[k]) <= 1e-9 for k, v in left.masses.items())

    conflict = check_sequential_conflict(101, 100)
    assert conflict.ok, conflict

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed("1", "commutativity and mass invariants 200, associativity 100, conflict identity 100", elapsed)


def test_c2_clustering_optimality():
    start = time.perf_counter()
    prior = DomainPrior.uniform(4)
    value_matches = 0
    truth_matches = 0
    instances = separable_instances()
    for t, (corpus, groups) in enumerate(instances):
        _, best = exhaustive_search(corpus, prior)
        part, found = partition_search(corpus, prior, SearchConfig(restarts=20, seed=1000 + t))
        if abs(found.mcf - best.mcf) <= 1e-9:
            value_matches += 1
        if sorted(sorted(b) for b in part.blocks) == sorted(sorted(g) for g in groups):
            truth_matches += 1
    elapsed = time.perf_counter() - start
    assert value_matches >= 95, f"global minimum matched in only {value_matches}/100"
    assert truth_matches >= 95, f"ground truth recovered in only {truth_matches}/100"
    assert elapsed < 120.0
    _passed("2", f"minimum {value_matches}/100, ground truth {truth_matches}/100", elapsed)


def test_c3_four_subset_shape():
    start = time.perf_counter()
    rng = random.Random(1313)
    corpus, groups = separable_corpus(rng, n_reports=13, n_groups=4)
    part, _ = partition_search(corpus, DomainPrior.uniform(6), SearchConfig(restarts=20, seed=13))
    elapsed = time.perf_counter() - start
    assert part.n_blocks == 4
    assert sorted(sorted(b) for b in part.blocks) == sorted(sorted(g) for g in groups)
    assert elapsed < 5.0
    _passed("3", "13 reports in 4 contradictory groups -> 4 blocks", elapsed)


def test_c4_specifier_coherence():
    start = time.perf_counter()
    prior = DomainPrior.uniform(4)
    for corpus, groups in separable_instances():
        part = make_partition(corpus, groups)
        plausibility, _ = specify_corpus(part, prior)
        for rid in corpus.ids:
            own = part.block_of(rid)
            plaus = plausibility[rid]
            assert all(plaus[own] >= plaus[k] for k in range(part.n_blocks))
            assert max(range(part.n_blocks), key=lambda k: plaus[k]) == own
        for rid in corpus.ids:
            own = part.block_of(rid)
            for k, block in enumerate(part.blocks):
                if k == own:
                    rest = [r for r in block if r != rid]
                    if rest:
                        assert (
                            cluster_conflict(corpus, rest)
                            <= cluster_conflict(corpus, block) + 1e-12
                        )
                else:
                    assert (
                        cluster_conflict(corpus, list(block) + [rid])
                        >= cluster_conflict(corpus, block) - 1e-12
                    )
    elapsed = time.perf_counter() - start
    _passed("4", "membership argmax + move monotonicity on 100 corpora", elapsed)


def test_c5_posterior_correctness():
    start = time.perf_counter()
    counting = check_counting_bpa(55, 100)
    assert counting.ok, counting
    combination = check_posterior_combination(56, 100)
    assert combination.ok, combination

    prior = DomainPrior({1: 0.2, 2: 0.5, 3: 0.3})
    assert posterior_distribution((1.0,), prior) == prior.probabilities

    elapsed = time.perf_counter() - start
    _passed("5", "counting vs 2^n, posterior vs combination, vacuous identity", elapsed)


def test_c6_track_oracle_equivalence():
    start = time.perf_counter()
    # one seed, so both entries draw the same 400 graphs
    plausibility = check_track_plausibility(66, 400)
    assert plausibility.ok, plausibility
    best_path = check_best_path(66, 400)
    assert best_path.ok, best_path

    from evintel.tracks import TrackGraph

    worked = combine_oracle(TrackGraph((0.6, 0.5), {(1, 2): 0.3}))
    assert abs(worked.conflict - 0.09) <= 1e-6
    assert abs(worked.support[(1, 2)] - 0.2308) <= 1e-4
    assert abs(worked.support[(1, 2)] - 0.21 / 0.91) <= 1e-6
    assert abs(worked.plausibility[(1, 2)] - 0.70 / 0.91) <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed("6", "closed form = oracle on 400 graphs, DP argmax 400/400", elapsed)


def test_c7_track_scaling():
    rng = random.Random(77)
    g = random_track_graph(200, rng)
    start = time.perf_counter()
    ranked = best_path_dp(g, top_k=3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(ranked) == 3
    assert all(v > 0.0 for _, v in ranked)
    with pytest.raises(OracleSizeError, match="at most 6"):
        combine_oracle(g)
    _passed("7", f"n=200 DP in {elapsed * 1000:.0f} ms, oracle refuses n>6", elapsed)


def test_c8_decision_module():
    start = time.perf_counter()
    rng = random.Random(88)

    preferences = check_rho_preferences(88, 20)
    assert preferences.ok, preferences

    segments, shares = rho_segmentation([UtilityIntervalChoice("A", 0.2, 0.9), UtilityIntervalChoice("B", 0.4, 0.6)])
    assert segments[0][1] == pytest.approx(0.4, abs=1e-12)
    assert shares["A"] == pytest.approx(0.6, abs=1e-12)
    assert shares["B"] == pytest.approx(0.4, abs=1e-12)

    for _ in range(40):
        makers = random_game(rng, max_makers=2, max_choices=3, tie_share=0.0)
        rho = rng.random()
        want = spe_by_profile_enumeration(makers, rho)
        assert sequential_play(makers, rho) == {m.id: c.id for m, c in zip(makers, want)}
    for _ in range(15):
        makers = random_game(rng, max_makers=3, max_choices=2, tie_share=0.0)
        rho = rng.random()
        want = spe_by_profile_enumeration(makers, rho)
        assert sequential_play(makers, rho) == {m.id: c.id for m, c in zip(makers, want)}
    for _ in range(60):
        makers = random_game(rng, max_makers=3, max_choices=3, tie_share=0.0)
        rho = rng.random()
        want = reference_play(makers, 0, [], rho)
        assert sequential_play(makers, rho) == {m.id: c.id for m, c in zip(makers, want)}

    elapsed = time.perf_counter() - start
    _passed("8", "grid scan, worked example, 115 game-oracle matches", elapsed)


def test_c9_pipeline_determinism(tmp_path):
    from evintel.cli import main

    start = time.perf_counter()
    scenario = tmp_path / "scenario.json"
    assert main(["gen", "--seed", "19", "--targets", "3", "--reports-per-target", "4", "--out", str(scenario)]) == 0

    outputs = []
    for run, threads in enumerate(("1", "1", "4", "4")):
        out = tmp_path / f"out{run}.json"
        code = main(
            [
                "pipeline",
                str(scenario),
                "--seed",
                "7",
                "--restarts",
                "12",
                "--threads",
                threads,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    elapsed = time.perf_counter() - start
    _passed("9", "byte-identical across 2 runs x threads {1,4}", elapsed)
