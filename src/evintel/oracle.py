"""Cross-checks between fast routes and independent brute-force oracles.

Every check pits a production computation against a structurally different
one (enumeration, grid scan, exhaustive search) on seeded random instances,
and reports the largest deviation seen. The CLI exposes them as
``oracle-check``; the test suite drives the same generators harder.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from . import posterior as post
from .cluster import (
    IMPROVEMENT_TOL,
    BlockValues,
    DomainPrior,
    EvidenceCorpus,
    MetaConflictReport,
    Partition,
    Report,
    SearchConfig,
    _canonical_key,
    _descend,
    _mcf_value,
    _random_start,
    domain_conflict,
    enumerate_partitions,
    exhaustive_search,
    make_partition,
    partition_search,
)
from .decide import (
    DecisionMaker,
    RhoSegmentation,
    UtilityIntervalChoice,
    _breakpoints,
    _segmentation,
    game_preferences,
    rho_segmentation,
    sequential_play,
)
from .ds import (
    PRUNE_EPS,
    FocalSet,
    Frame,
    MassFunction,
    TotalConflictError,
    ValidationError,
    _dempster_conflict,
    _dempster_step,
    combine_all,
    combine_dempster,
    enumerate_conflict,
    make_mass,
    vacuous,
)
from .tracks import (
    TrackGraph,
    best_path_dp,
    combine_oracle,
    path_plausibility_unnorm,
    path_support,
    track_conflict,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    max_dev: float
    detail: str = ""


def _normalized(frame: Frame, products: dict[int, float], conflict: float) -> MassFunction:
    scale = 1.0 / (1.0 - conflict)
    scaled = {bits: v * scale for bits, v in products.items()}
    # prune numerical dust, then rescale so the invariant holds tightly
    kept = {bits: v for bits, v in scaled.items() if v >= PRUNE_EPS}
    if not kept:
        raise TotalConflictError(conflict)
    total = math.fsum(kept.values())
    return MassFunction(frame, {bits: v / total for bits, v in kept.items()})


def reference_combine(m1: MassFunction, m2: MassFunction) -> tuple[MassFunction, float]:
    """``ds.combine_dempster`` as a dict of products, a list of conflict terms,
    a scaled copy, a pruned copy and a divided copy: the kernel's check."""
    if m1.frame != m2.frame:
        raise ValidationError("mass functions live on different frames")
    products: dict[int, float] = {}
    conflict_terms: list[float] = []
    for a, ma in m1.masses.items():
        for b, mb in m2.masses.items():
            inter = a & b
            w = ma * mb
            if inter:
                products[inter] = products.get(inter, 0.0) + w
            else:
                conflict_terms.append(w)
    conflict = min(1.0, math.fsum(conflict_terms))
    if conflict >= 1.0 - PRUNE_EPS:
        raise TotalConflictError(conflict)
    return _normalized(m1.frame, products, conflict), conflict


def reference_conflict(corpus: EvidenceCorpus, block) -> float:
    """``cluster_conflict`` as a left fold of ``reference_combine`` over the
    block in corpus order, 1.0 on a total conflict."""
    indices = sorted(map(corpus.index_of, block))
    if len(indices) <= 1:
        return 0.0
    acc = corpus.reports[indices[0]].evidence
    survival = 1.0
    try:
        for i in indices[1:]:
            acc, c = reference_combine(acc, corpus.reports[i].evidence)
            survival *= 1.0 - c
    except TotalConflictError:
        return 1.0
    return 1.0 - survival


def reference_conflicts(corpus: EvidenceCorpus):
    """``reference_conflict`` on the corpus, memoised per set of report ids."""
    memo: dict[frozenset, float] = {}

    def conflict_of(block) -> float:
        key = frozenset(block)
        c = memo.get(key)
        if c is None:
            c = memo[key] = reference_conflict(corpus, key)
        return c

    return conflict_of


def _outcome(combine, *args) -> tuple:
    """(focal items in dict order, conflict) of a combination, floats as hex,
    or ("raises", conflict) when it raises ``TotalConflictError``."""
    try:
        masses, conflict = combine(*args)
    except TotalConflictError as exc:
        return "raises", exc.conflict.hex()
    if isinstance(masses, MassFunction):
        masses = masses.masses
    return [(bits, v.hex()) for bits, v in masses.items()], conflict.hex()


def kernel_agrees(m1: MassFunction, m2: MassFunction) -> bool:
    """``combine_dempster`` and ``ds._dempster_step`` give ``reference_combine``'s
    focal items in its dict order and its conflict, bit for bit, or raise where
    it raises with the same conflict; ``ds._dempster_conflict`` gives the same
    conflict, or raises where it raises."""
    ref = _outcome(reference_combine, m1, m2)
    items = tuple(m2.masses.items())
    conflict_only = _outcome(lambda m, i: ({}, _dempster_conflict(m, i)), m1.masses, items)
    return (
        _outcome(combine_dempster, m1, m2) == ref
        and _outcome(_dempster_step, m1.masses, items) == ref
        and conflict_only == ("raises" if ref[0] == "raises" else [], ref[1])
    )


def random_mass(frame: Frame, rng: random.Random, max_focals: int = 3) -> MassFunction:
    """Random mass function with a guaranteed frame remainder (so conflict < 1)."""
    n_focals = rng.randint(1, max_focals)
    subsets = []
    for _ in range(n_focals):
        members = [e for e in frame.elements if rng.random() < 0.5]
        if members:
            subsets.append(tuple(members))
    weights = [rng.random() for _ in subsets] + [0.25 + rng.random()]
    total = sum(weights)
    entries = [(s, w / total) for s, w in zip(subsets, weights)]
    entries.append((frame.elements, weights[-1] / total))
    return make_mass(frame, entries)


def random_spread_mass(
    frame: Frame, rng: random.Random, max_focals: int = 4, orders: float = 14.0
) -> MassFunction:
    """Random focal sets with weights spread over ``orders`` orders of
    magnitude, so that steps near total conflict and dust below ``PRUNE_EPS``
    occur. The weights given to ``make_mass`` sum to 1 only within 5e-10, as
    hand-typed input may, and it rescales them."""
    masses: dict[int, float] = {}
    for _ in range(rng.randint(1, max_focals)):
        bits = rng.randint(1, frame.full_bits)
        masses[bits] = masses.get(bits, 0.0) + 10.0 ** -rng.uniform(0.0, orders)
    total = math.fsum(masses.values()) / (1.0 + rng.uniform(-5e-10, 5e-10))
    return make_mass(frame, [(FocalSet(frame, bits), v / total) for bits, v in masses.items()])


def random_simple_support(frame: Frame, rng: random.Random) -> MassFunction:
    members = [e for e in frame.elements if rng.random() < 0.5] or [frame.elements[0]]
    w = rng.uniform(0.05, 0.95)
    return make_mass(frame, [(tuple(members), w), (frame.elements, 1.0 - w)])


def random_track_graph(n: int, rng: random.Random, zero_share: float = 0.0) -> TrackGraph:
    """Masses uniform on [0, 0.95]; each is exactly 0 with probability ``zero_share``
    (no extra draw when it is 0, so seeded streams stay as they were)."""

    def draw() -> float:
        if zero_share and rng.random() < zero_share:
            return 0.0
        return rng.uniform(0.0, 0.95)

    p = tuple(draw() for _ in range(n))
    q = {(i, j): draw() for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return TrackGraph(p, q)


def separable_corpus(
    rng: random.Random, n_reports: int = 10, n_groups: int = 3, frame_size: int | None = None
) -> tuple[EvidenceCorpus, list[set[str]]]:
    """Corpus whose ground-truth groups carry pairwise-disjoint focal sets."""
    frame_size = frame_size or n_groups
    frame = Frame(tuple(f"t{g + 1}" for g in range(frame_size)))
    assignment = [g % n_groups for g in range(n_groups)]  # every group occupied
    assignment += [rng.randrange(n_groups) for _ in range(n_reports - n_groups)]
    rng.shuffle(assignment)
    reports = []
    groups: list[set[str]] = [set() for _ in range(n_groups)]
    for i, g in enumerate(assignment):
        rid = f"e{i + 1:02d}"
        w = rng.uniform(0.3, 0.9)
        evidence = make_mass(frame, [((frame.elements[g],), w), (frame.elements, 1.0 - w)])
        reports.append(Report(rid, evidence))
        groups[g].add(rid)
    return EvidenceCorpus(frame, tuple(reports)), [g for g in groups if g]


def mixed_corpus(
    rng: random.Random,
    n_reports: int,
    frame_size: int = 4,
    categorical_share: float = 0.0,
    vacuous_share: float = 0.0,
) -> EvidenceCorpus:
    """Reports drawn by ``random_mass``, except a share that is categorical on one
    element (saturating any block it contradicts) or vacuous (tying everywhere)."""
    frame = Frame(tuple(f"t{i + 1}" for i in range(frame_size)))
    reports = []
    for i in range(n_reports):
        u = rng.random()
        if u < categorical_share:
            evidence = make_mass(frame, [((rng.choice(frame.elements),), 1.0)])
        elif u < categorical_share + vacuous_share:
            evidence = vacuous(frame)
        else:
            evidence = random_mass(frame, rng)
        reports.append(Report(f"e{i + 1:02d}", evidence))
    return EvidenceCorpus(frame, tuple(reports))


def random_prior(rng: random.Random, r_max: int, zero_share: float = 0.0) -> DomainPrior:
    """Prior on 1..r_max where each count is 0 with probability ``zero_share``
    (one count keeps mass if all would be 0)."""
    weights = [0.0 if rng.random() < zero_share else rng.random() + 1e-3 for _ in range(r_max)]
    if not any(weights):
        weights[rng.randrange(r_max)] = 1.0
    total = sum(weights)
    return DomainPrior({r + 1: w / total for r, w in enumerate(weights)})


def enumerate_search(
    corpus: EvidenceCorpus, prior: DomainPrior, max_blocks: int | None = None
) -> tuple[Partition, MetaConflictReport]:
    """``exhaustive_search`` by scoring every partition of at most
    min(r_max, n) (or ``max_blocks``) blocks with ``reference_conflict``; ties
    go to the smallest canonical key."""
    n = len(corpus.reports)
    cap = min(prior.r_max, n) if max_blocks is None else min(max_blocks, n)
    ids = corpus.ids
    conflict_of = reference_conflicts(corpus)
    best: tuple[float, tuple, list[list[str]]] | None = None
    for index_blocks in enumerate_partitions(n, cap):
        blocks = [[ids[i] for i in block] for block in index_blocks]
        conflicts = [conflict_of(b) for b in blocks]
        mcf = _mcf_value(domain_conflict(len(blocks), prior), conflicts)
        key = (mcf, _canonical_key(corpus, blocks))
        if best is None or key < (best[0], best[1]):
            best = (mcf, key[1], blocks)
    assert best is not None
    partition = make_partition(corpus, best[2])
    c0 = domain_conflict(partition.n_blocks, prior)
    conflicts = tuple(conflict_of(b) for b in partition.blocks)
    return partition, MetaConflictReport(c0, conflicts, _mcf_value(c0, conflicts))


def reference_descent(
    corpus: EvidenceCorpus,
    prior: DomainPrior,
    blocks: list[list[str]],
    max_sweeps: int,
) -> tuple[list[list[str]], float]:
    """``cluster._descend`` by scoring every move with ``reference_conflict``:
    each sweep tries every report in every other block and in a fresh one, and
    takes the first strictly best move; it stops when no move improves mcf."""
    conflict_of = reference_conflicts(corpus)
    conflicts = [conflict_of(b) for b in blocks]
    mcf = _mcf_value(domain_conflict(len(blocks), prior), conflicts)

    for _ in range(max_sweeps):
        best_cand = math.inf
        best_move: tuple[int, int] | None = None  # (report index, target block or -1 for fresh)
        for j, report in enumerate(corpus.reports):
            origin = next(i for i, b in enumerate(blocks) if report.id in b)
            origin_rest = [r for r in blocks[origin] if r != report.id]
            c_origin_rest = conflict_of(origin_rest) if origin_rest else None
            targets: list[int] = [t for t in range(len(blocks)) if t != origin]
            if origin_rest:
                targets.append(-1)  # fresh block last; a singleton's fresh move is a no-op
            for target in targets:
                new_conflicts = []
                for i in range(len(blocks)):
                    if i == origin:
                        if origin_rest:
                            new_conflicts.append(c_origin_rest)
                    elif i == target:
                        new_conflicts.append(conflict_of(blocks[i] + [report.id]))
                    else:
                        new_conflicts.append(conflicts[i])
                if target == -1:
                    new_conflicts.append(0.0)
                cand = _mcf_value(domain_conflict(len(new_conflicts), prior), new_conflicts)
                # applicable only on a strict improvement; ties keep the first-encountered move
                if mcf - cand > IMPROVEMENT_TOL and cand < best_cand:
                    best_cand = cand
                    best_move = (j, target)
        if best_move is None:
            break
        j, target = best_move
        rid = corpus.reports[j].id
        origin = next(i for i, b in enumerate(blocks) if rid in b)
        blocks[origin] = [r for r in blocks[origin] if r != rid]
        if target == -1:
            blocks.append([rid])
        else:
            blocks[target] = blocks[target] + [rid]
        blocks = [b for b in blocks if b]
        conflicts = [conflict_of(b) for b in blocks]
        mcf = best_cand
    return blocks, mcf


def reference_play(makers: Sequence[DecisionMaker], t: int, chosen: list[UtilityIntervalChoice], rho: float) -> tuple[UtilityIntervalChoice, ...]:
    """Backward induction: win the table if possible, then maximize own value,
    then take the earliest-listed alternative."""
    if t == len(makers):
        return tuple(chosen)
    best_key: tuple[bool, float] | None = None
    best_outcome: tuple[UtilityIntervalChoice, ...] | None = None
    for choice in makers[t].choices:
        chosen.append(choice)
        outcome = reference_play(makers, t + 1, chosen, rho)
        chosen.pop()
        own = choice.value_at(rho)
        table_max = max(c.value_at(rho) for c in outcome)
        key = (own >= table_max, own)
        if best_key is None or key > best_key:
            best_key, best_outcome = key, outcome
    assert best_outcome is not None
    return best_outcome


def reference_game_preferences(makers: Sequence[DecisionMaker]) -> RhoSegmentation:
    """``game_preferences`` with every segment midpoint played by ``reference_play``."""
    all_choices = [c for m in makers for c in m.choices]

    def winners_at(rho: float) -> tuple[str, ...]:
        outcome = reference_play(makers, 0, [], rho)
        table_max = max(c.value_at(rho) for c in outcome)
        return tuple(c.id for c in outcome if c.value_at(rho) == table_max)

    return _segmentation(_breakpoints(all_choices), [c.id for c in all_choices], winners_at)


def games_agree(makers: Sequence[DecisionMaker]) -> bool:
    """``sequential_play`` equals ``reference_play`` at rho = 0, 1, every
    breakpoint and every segment midpoint, and ``game_preferences`` equals
    ``reference_game_preferences``: the same segments and preferences, float
    for float."""
    points = _breakpoints([c for m in makers for c in m.choices])
    for rho in points + [(lo + hi) / 2.0 for lo, hi in zip(points, points[1:])]:
        want = {m.id: c.id for m, c in zip(makers, reference_play(makers, 0, [], rho))}
        if sequential_play(makers, rho) != want:
            return False
    return game_preferences(makers) == reference_game_preferences(makers)


def random_game(rng: random.Random, max_makers: int = 4, max_choices: int = 4, tie_share: float = 0.5) -> list[DecisionMaker]:
    """Random sequential game where ties are common. With probability
    ``tie_share / 3`` a maker has a single choice; with ``tie_share / 3`` each,
    a choice's interval repeats an earlier one (an affinely identical choice),
    lies on a grid of quarters or has zero width."""
    makers: list[DecisionMaker] = []
    intervals: list[tuple[float, float]] = []
    for t in range(rng.randint(1, max_makers)):
        choices = []
        for _ in range(1 if rng.random() < tie_share / 3 else rng.randint(1, max_choices)):
            u = rng.random() / tie_share if tie_share else 1.0
            if u < 1 / 3 and intervals:
                lo, hi = rng.choice(intervals)
            elif u < 2 / 3:
                lo, hi = sorted((rng.randint(0, 4) / 4, rng.randint(0, 4) / 4))
            elif u < 1.0:
                lo = hi = rng.choice((rng.randint(0, 4) / 4, rng.random()))
            else:
                lo, hi = sorted((rng.random(), rng.random()))
            intervals.append((lo, hi))
            choices.append(UtilityIntervalChoice(f"c{len(intervals)}", lo, hi))
        makers.append(DecisionMaker(f"dm{t}", tuple(choices)))
    return makers


def check_dempster_step(seed: int, trials: int) -> CheckResult:
    """``kernel_agrees`` along random folds: a running combination against the
    next random mass, with weights spread down to 1e-14, until a total conflict."""
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(trials):
        frame = Frame(tuple("abcde"[: rng.randint(1, 5)]))
        acc = random_spread_mass(frame, rng)
        for _ in range(rng.randint(1, 6)):
            m = random_spread_mass(frame, rng) if rng.random() < 0.5 else random_mass(frame, rng)
            mismatches += not kernel_agrees(acc, m)
            try:
                acc, _ = reference_combine(acc, m)
            except TotalConflictError:
                break
    return CheckResult("Dempster step vs reference combine", mismatches == 0, float(mismatches))


def check_sequential_conflict(seed: int, trials: int) -> CheckResult:
    """combine_all's accumulated conflict vs full product-space enumeration."""
    rng = random.Random(seed)
    frame = Frame(("a", "b", "c", "d"))
    max_dev = 0.0
    for _ in range(trials):
        ms = [random_simple_support(frame, rng) for _ in range(rng.randint(2, 6))]
        _, acc = combine_all(ms)
        max_dev = max(max_dev, abs(acc - enumerate_conflict(ms)))
    return CheckResult("sequential vs simultaneous conflict", max_dev <= 1e-9, max_dev)


def check_counting_bpa(seed: int, trials: int) -> CheckResult:
    rng = random.Random(seed)
    max_dev = 0.0
    for _ in range(trials):
        supports = [rng.random() for _ in range(rng.randint(1, 10))]
        a = post.counting_bpa(supports)
        b = post.counting_bpa_enumeration(supports)
        max_dev = max(max_dev, abs(a.vacuous - b.vacuous))
        for x, y in zip(a.at_least, b.at_least):
            max_dev = max(max_dev, abs(x - y))
    return CheckResult("counting bpa vs 2^n enumeration", max_dev <= 1e-12, max_dev)


def check_posterior_combination(seed: int, trials: int) -> CheckResult:
    """Closed-form posterior vs an actual Dempster combination with the prior."""
    rng = random.Random(seed)
    max_dev = 0.0
    for _ in range(trials):
        r_max = rng.randint(2, 6)
        n = rng.randint(1, r_max)
        supports = [rng.random() for _ in range(n)]
        weights = [rng.random() + 1e-3 for _ in range(r_max)]
        prior = DomainPrior(
            {r + 1: w / sum(weights) for r, w in enumerate(weights)}
        )
        cb = post.counting_bpa(supports)
        direct = post.posterior_distribution(cb, prior)
        combined, _ = combine_dempster(post.counting_to_mass(cb, r_max), post.prior_to_mass(prior))
        for r in range(1, r_max + 1):
            via_ds = combined.mass((str(r),))
            max_dev = max(max_dev, abs(direct.probabilities[r] - via_ds))
    return CheckResult("posterior vs mass-function combination", max_dev <= 1e-9, max_dev)


def check_track_plausibility(seed: int, trials: int) -> CheckResult:
    rng = random.Random(seed)
    max_dev = 0.0
    for _ in range(trials):
        g = random_track_graph(rng.randint(2, 5), rng)
        analysis = combine_oracle(g)
        for path in g.all_paths():
            max_dev = max(
                max_dev, abs(path_plausibility_unnorm(g, path) - analysis.plausibility_unnorm[path])
            )
    return CheckResult("track plausibility closed form vs oracle", max_dev <= 1e-9, max_dev)


def check_track_normalization(seed: int, trials: int) -> CheckResult:
    """Sweep DPs for conflict and per-track support vs full product-space enumeration."""
    rng = random.Random(seed)
    max_dev = 0.0
    for _ in range(trials):
        g = random_track_graph(rng.randint(1, 5), rng, zero_share=rng.choice((0.0, 0.3)))
        analysis = combine_oracle(g)
        conflict, norm = track_conflict(g)
        max_dev = max(max_dev, abs(conflict - analysis.conflict))
        for path in g.all_paths():
            max_dev = max(max_dev, abs(path_support(g, path, norm) - analysis.support[path]))
    return CheckResult("track conflict and support DP vs oracle", max_dev <= 1e-12, max_dev)


def check_best_path(seed: int, trials: int) -> CheckResult:
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        g = random_track_graph(rng.randint(2, 5), rng)
        (best, value), *_ = best_path_dp(g, top_k=1)
        best_val = max(path_plausibility_unnorm(g, p) for p in g.all_paths())
        brute = min(p for p in g.all_paths() if path_plausibility_unnorm(g, p) == best_val)
        if best != brute or abs(value - best_val) > 1e-12:
            failures += 1
    return CheckResult("best path DP vs exhaustive argmax", failures == 0, float(failures))


def check_rho_preferences(seed: int, trials: int, grid: int = 10_000) -> CheckResult:
    rng = random.Random(seed)
    max_dev = 0.0
    for _ in range(trials):
        choices = []
        for i in range(rng.randint(1, 5)):
            a, b = sorted((rng.random(), rng.random()))
            choices.append(UtilityIntervalChoice(f"c{i}", a, b))
        seg = rho_segmentation(choices)
        counts = {c.id: 0.0 for c in choices}
        for k in range(grid):
            rho = (k + 0.5) / grid
            values = [c.value_at(rho) for c in choices]
            best = max(values)
            winners = [c.id for c, v in zip(choices, values) if v == best]
            for w in winners:
                counts[w] += 1.0 / (grid * len(winners))
        for cid, pref in seg.preferences.items():
            max_dev = max(max_dev, abs(pref - counts[cid]))
    return CheckResult("rho preferences vs grid scan", max_dev <= 2e-4, max_dev)


def check_partition_search(seed: int, trials: int) -> CheckResult:
    """Local search attains the exhaustive metaconflict minimum on small corpora."""
    rng = random.Random(seed)
    misses = 0
    for t in range(trials):
        corpus, _ = separable_corpus(rng, n_reports=6, n_groups=rng.randint(2, 3))
        prior = DomainPrior.uniform(4)
        _, found = partition_search(corpus, prior, SearchConfig(restarts=20, seed=seed + t))
        _, best = exhaustive_search(corpus, prior)
        if abs(found.mcf - best.mcf) > 1e-9:
            misses += 1
    return CheckResult("partition search vs exhaustive minimum", misses == 0, float(misses))


def check_partition_branch_and_bound(seed: int, trials: int) -> CheckResult:
    """exhaustive_search's branch and bound vs scoring every partition: the same
    blocks and the same report, including saturated blocks, zero prior entries
    and value ties."""
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(trials):
        n = rng.randint(1, 7)
        corpus = mixed_corpus(rng, n, rng.randint(2, 4), categorical_share=0.25, vacuous_share=0.1)
        prior = random_prior(rng, rng.randint(1, n + 1), zero_share=0.4)
        max_blocks = rng.choice((None, rng.randint(1, n)))
        part, report = exhaustive_search(corpus, prior, max_blocks)
        oracle_part, oracle_report = enumerate_search(corpus, prior, max_blocks)
        if part.blocks != oracle_part.blocks or report != oracle_report:
            mismatches += 1
    return CheckResult("partition branch-and-bound vs enumeration", mismatches == 0, float(mismatches))


def descents_agree(
    corpus: EvidenceCorpus, prior: DomainPrior, start: list[list[str]], max_sweeps: int
) -> bool:
    """``cluster._descend`` and ``reference_descent`` from the same start: the
    same blocks in the same order, a bit-equal mcf, every canonical conflict
    in the descent's store bit-equal to ``reference_conflict``, which folds
    ``reference_combine`` and so shares no step with the descent, and every
    one-step value in the store within ``IMPROVEMENT_TOL / 10`` of it."""
    store: dict[frozenset[int], BlockValues] = {}
    blocks, mcf = _descend(corpus, prior, [list(b) for b in start], max_sweeps, store)
    ref_blocks, ref_mcf = reference_descent(corpus, prior, [list(b) for b in start], max_sweeps)
    return (
        blocks == [sorted(b, key=corpus.index_of) for b in ref_blocks]
        and mcf == ref_mcf
        and store_matches_reference(corpus, store, IMPROVEMENT_TOL / 10)
    )


def store_matches_reference(
    corpus: EvidenceCorpus, store: dict[frozenset[int], BlockValues], tol: float
) -> bool:
    """Every canonical conflict in a search's store bit-equal to
    ``reference_conflict`` and every one-step value within ``tol`` of it."""
    conflict_of = reference_conflicts(corpus)
    ids = corpus.ids
    return all(
        conflict_of(ids[i] for i in members) == conflict
        and all(abs(conflict_of(ids[i] for i in members ^ {j}) - c) <= tol for j, c in moved.items())
        for members, (conflict, moved) in store.items()
    )


def descents_part_only_at_near_ties(
    corpus: EvidenceCorpus, prior: DomainPrior, start: list[list[str]], max_sweeps: int
) -> bool:
    """``descents_agree`` where moved values carry dust, as on masses spread
    over many orders of magnitude: every canonical conflict in the
    descent's store is bit-equal to ``reference_conflict``; every one-step
    value in it is within ``8 * PRUNE_EPS`` of it (the dust each fold order
    drops: at most 1.7e-12 over 3,000 spread-mass descents); and the two
    descents return the same blocks and a bit-equal mcf or, at the first
    sweep where their blocks part, partitions whose canonical mcf are within
    ``4 * IMPROVEMENT_TOL`` (two moves, or a move and a stop, that close)."""
    store: dict[frozenset[int], BlockValues] = {}

    def both(sweeps: int) -> tuple[bool, float, float]:
        blocks, mcf = _descend(corpus, prior, [list(b) for b in start], sweeps, store)
        ref_blocks, ref_mcf = reference_descent(corpus, prior, [list(b) for b in start], sweeps)
        return blocks == [sorted(b, key=corpus.index_of) for b in ref_blocks], mcf, ref_mcf

    same, mcf, ref_mcf = both(max_sweeps)
    if same:
        near = mcf == ref_mcf
    else:
        for sweeps in range(1, max_sweeps + 1):
            same, mcf, ref_mcf = both(sweeps)
            if not same:
                break
            if mcf != ref_mcf:
                return False
        near = abs(mcf - ref_mcf) <= 4 * IMPROVEMENT_TOL
    return near and store_matches_reference(corpus, store, 8 * PRUNE_EPS)


def check_partition_descent(seed: int, trials: int) -> CheckResult:
    """``descents_agree`` on mixed, separable and all-categorical corpora with
    random priors, some runs cut after one or two sweeps."""
    rng = random.Random(seed)
    mismatches = 0
    for t in range(trials):
        n = rng.randint(1, 12)
        if t % 3 == 1:
            corpus, _ = separable_corpus(rng, n_reports=max(n, 3), n_groups=3)
        else:
            share = 0.25 if t % 3 == 0 else 1.0
            corpus = mixed_corpus(rng, n, rng.randint(2, 4), categorical_share=share, vacuous_share=0.1)
        n = len(corpus.reports)
        prior = random_prior(rng, rng.randint(1, n + 1), zero_share=0.4)
        start = _random_start(corpus, prior, rng)
        mismatches += not descents_agree(corpus, prior, start, rng.choice((1, 2, 200)))
    return CheckResult("partition descent vs reference descent", mismatches == 0, float(mismatches))


def check_partition_descent_spread(seed: int, trials: int) -> CheckResult:
    """``descents_part_only_at_near_ties`` on corpora of ``random_spread_mass``
    reports, spread over 8 or 14 orders of magnitude, with random priors."""
    rng = random.Random(seed)
    frame = Frame(("A", "B", "C", "D"))
    mismatches = 0
    for t in range(trials):
        orders = 8.0 if t % 2 else 14.0
        n = rng.randint(2, 10)
        reports = tuple(Report(f"e{i:02d}", random_spread_mass(frame, rng, orders=orders)) for i in range(n))
        corpus = EvidenceCorpus(frame, reports)
        prior = random_prior(rng, rng.randint(1, n + 1), zero_share=0.3)
        start = _random_start(corpus, prior, rng)
        mismatches += not descents_part_only_at_near_ties(corpus, prior, start, rng.choice((1, 2, 200)))
    return CheckResult("partition descent vs reference, spread masses", mismatches == 0, float(mismatches))


def check_game_solver(seed: int, trials: int) -> CheckResult:
    """``games_agree`` on tie-heavy random games of up to 4 makers x 4 choices."""
    rng = random.Random(seed)
    mismatches = sum(not games_agree(random_game(rng)) for _ in range(trials))
    return CheckResult("game solver vs backward induction", mismatches == 0, float(mismatches))


def run_all_checks(seed: int = 0, trials: int = 25) -> list[CheckResult]:
    return [
        check_sequential_conflict(seed, trials),
        check_counting_bpa(seed + 1, trials),
        check_posterior_combination(seed + 2, trials),
        check_track_plausibility(seed + 3, trials),
        check_best_path(seed + 4, trials),
        check_rho_preferences(seed + 5, max(5, trials // 5)),
        check_partition_search(seed + 6, max(5, trials // 5)),
        check_track_normalization(seed + 7, trials),
        check_partition_branch_and_bound(seed + 8, trials),
        check_partition_descent(seed + 9, trials),
        check_dempster_step(seed + 10, trials),
        check_game_solver(seed + 11, trials),
        check_partition_descent_spread(seed + 12, trials),
    ]
