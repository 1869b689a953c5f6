"""Cross-checks between fast routes and independent brute-force oracles.

Every check pits a production computation against a structurally different
one (enumeration, grid scan, exhaustive search) on seeded random instances,
and reports how many trials failed; a measured check also reports the largest
deviation seen, and a trial fails when its own largest deviation exceeds the
check's tolerance. The CLI exposes them as
``oracle-check``; the test suite drives the same generators harder.

Every reference route lives here and no production module imports this one,
so the pipeline runs only its fast routes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

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
    cluster_conflict,
    domain_conflict,
    exhaustive_search,
    make_partition,
    partition_search,
)
from .decide import (
    DecisionMaker,
    Segmentation,
    UtilityIntervalChoice,
    _breakpoints,
    _segmentation,
    game_preferences,
    rho_segmentation,
    sequential_play,
)
from .ds import (
    PRUNE_EPS,
    Frame,
    MassFunction,
    TotalConflictError,
    ValidationError,
    _dempster_conflict,
    _dempster_step,
    combine_dempster,
    left_sum,
    make_mass,
    vacuous,
)
from .posterior import counting_bpa, posterior_distribution
from .specify import NEW_BLOCK, specify_corpus
from .tracks import (
    Path,
    TrackGraph,
    best_path_dp,
    path_plausibility_unnorm,
    path_support,
    track_conflict,
)

ORACLE_VERTEX_LIMIT = 6


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials: int
    failed: int
    max_dev: float | None = None  # None for a pass/fail check

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _worst(devs) -> float:
    """The largest of ``devs``, or NaN if any is NaN: ``max`` keeps a NaN only when it comes first."""
    devs = list(devs)
    return math.nan if any(math.isnan(d) for d in devs) else max(devs, default=0.0)


def _result(name: str, outcomes: list, tol: float | None = None) -> CheckResult:
    """A check's result from one outcome per trial: whether the trial passed,
    or, given ``tol``, its largest deviation, which fails unless at most ``tol``
    (so a NaN fails)."""
    if tol is None:
        return CheckResult(name, len(outcomes), sum(not passed for passed in outcomes))
    return CheckResult(name, len(outcomes), sum(not dev <= tol for dev in outcomes), _worst(outcomes))


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


def reference_memberships(partition: Partition, prior: DomainPrior) -> dict[str, dict]:
    """``specify_corpus``'s plausibilities by the formulas in the ``specify``
    module docstring, with every block conflict, j added or removed, from
    ``reference_conflict``. Per report and block key: (plausibility, d),
    where d is the denominator 1 - c of the entry's conflict ratio, 1.0 for
    the fresh block, which has none."""
    conflict_of = reference_conflicts(partition.corpus)
    n = partition.n_blocks
    c0 = domain_conflict(n, prior)

    def ratio(delta: float, d: float) -> float:
        return 1.0 if d <= 0.0 else min(1.0, max(0.0, delta / d))

    def domain(new_n: int) -> float:
        return 0.0 if c0 >= 1.0 else ratio(domain_conflict(new_n, prior) - c0, 1.0 - c0)

    memberships = {}
    for rid in partition.corpus.ids:
        own = partition.block_of(rid)
        alone = len(partition.blocks[own]) == 1
        values: dict = {}
        for k, block in enumerate(partition.blocks):
            c = conflict_of(block)
            if k == own:
                without = conflict_of(r for r in block if r != rid)
                values[k] = (1.0 - ratio(c - without, 1.0 - without), 1.0 - without)
            else:
                against = ratio(conflict_of((*block, rid)) - c, 1.0 - c)
                values[k] = ((1.0 - against) * (1.0 - (domain(n - 1) if alone else 0.0)), 1.0 - c)
        values[NEW_BLOCK] = (1.0 - (0.0 if alone else domain(n + 1)), 1.0)
        memberships[rid] = values
    return memberships


def enumerate_conflict(ms: Sequence[MassFunction]) -> float:
    """Simultaneous conflict by full product-space enumeration (oracle route).

    Sums the product mass of every focal selection whose intersection is empty.
    Exponential in the number of focal sets; keep inputs small.
    """
    if not ms:
        raise ValidationError("no mass functions to combine")
    frame = ms[0].frame
    for m in ms[1:]:
        if m.frame != frame:
            raise ValidationError("mass functions live on different frames")
    terms: list[float] = []

    def walk(i: int, bits: int, weight: float) -> None:
        if bits == 0:
            terms.append(weight)
            return
        if i == len(ms):
            return
        for b, v in ms[i].masses.items():
            walk(i + 1, bits & b, weight * v)

    walk(0, frame.full_bits, 1.0)
    return min(1.0, math.fsum(terms))


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


def random_mass(frame: Frame, rng: random.Random) -> MassFunction:
    """Up to 3 random focal sets with a guaranteed frame remainder (so conflict < 1)."""
    subsets = []
    for _ in range(rng.randint(1, 3)):
        members = [e for e in frame.elements if rng.random() < 0.5]
        if members:
            subsets.append(tuple(members))
    weights = [rng.random() for _ in subsets] + [0.25 + rng.random()]
    total = left_sum(weights)
    entries = [(s, w / total) for s, w in zip(subsets, weights)]
    entries.append((frame.elements, weights[-1] / total))
    return make_mass(frame, entries)


def random_spread_mass(frame: Frame, rng: random.Random, orders: float = 14.0) -> MassFunction:
    """Up to 4 random focal sets with weights spread over ``orders`` orders of
    magnitude, so that steps near total conflict and dust below ``PRUNE_EPS``
    occur. The weights given to ``make_mass`` sum to 1 only within 5e-10, as
    hand-typed input may, and it rescales them."""
    masses: dict[int, float] = {}
    for _ in range(rng.randint(1, 4)):
        bits = rng.randint(1, frame.full_bits)
        masses[bits] = masses.get(bits, 0.0) + 10.0 ** -rng.uniform(0.0, orders)
    total = math.fsum(masses.values()) / (1.0 + rng.uniform(-5e-10, 5e-10))
    return make_mass(frame, [(frame.members_of(bits), v / total) for bits, v in masses.items()])


def spread_corpus(rng: random.Random, n: int, orders: float) -> EvidenceCorpus:
    """``n`` reports ``e00``.. of ``random_spread_mass`` evidence on the frame A..D."""
    frame = Frame(("A", "B", "C", "D"))
    reports = (Report(f"e{i:02d}", random_spread_mass(frame, rng, orders)) for i in range(n))
    return EvidenceCorpus(frame, tuple(reports))


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
    rng: random.Random, n_reports: int = 10, n_groups: int = 3
) -> tuple[EvidenceCorpus, list[set[str]]]:
    """Corpus whose ground-truth groups carry pairwise-disjoint focal sets, on a
    frame of one element per group."""
    frame = Frame(tuple(f"t{g + 1}" for g in range(n_groups)))
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
    total = left_sum(weights)
    return DomainPrior({r + 1: w / total for r, w in enumerate(weights)})


def enumerate_partitions(n_items: int, max_blocks: int) -> Iterator[list[list[int]]]:
    """All set partitions of range(n_items) with at most ``max_blocks`` blocks.

    Generated via restricted growth strings: item 0 is always in block 0 and
    item i may open at most one new block.
    """
    labels = [0] * n_items

    def grow(i: int, used: int) -> Iterator[list[list[int]]]:
        if i == n_items:
            blocks: list[list[int]] = [[] for _ in range(used)]
            for item, label in enumerate(labels):
                blocks[label].append(item)
            yield blocks
            return
        for label in range(min(used + 1, max_blocks)):
            labels[i] = label
            yield from grow(i + 1, max(used, label + 1))

    yield from grow(0, 0)


def enumerate_search(corpus: EvidenceCorpus, prior: DomainPrior) -> tuple[Partition, MetaConflictReport]:
    """``exhaustive_search`` by scoring every partition of at most
    min(r_max, n) blocks with ``reference_conflict``; ties go to the smallest
    canonical key."""
    n = len(corpus.reports)
    cap = min(prior.r_max, n)
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


def reference_game_preferences(makers: Sequence[DecisionMaker]) -> Segmentation:
    """``game_preferences`` with every segment midpoint played by ``reference_play``."""
    all_choices = [c for m in makers for c in m.choices]

    def winners_at(rho: float) -> tuple[str, ...]:
        outcome = reference_play(makers, 0, [], rho)
        table_max = max(c.value_at(rho) for c in outcome)
        return tuple(c.id for c in outcome if c.value_at(rho) == table_max)

    return _segmentation(all_choices, winners_at)


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
    lies on a grid of quarters or has zero width. A ``tie_share`` of 0 draws no
    extra number, so its games have plain random intervals."""
    makers: list[DecisionMaker] = []
    intervals: list[tuple[float, float]] = []
    for t in range(rng.randint(1, max_makers)):
        choices = []
        for _ in range(1 if tie_share and rng.random() < tie_share / 3 else rng.randint(1, max_choices)):
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


def counting_bpa_enumeration(supports: Sequence[float]) -> tuple[float, ...]:
    """Oracle route: sum over all 2^n existence patterns. Exponential; keep n small."""
    n = len(supports)
    acc = [0.0] * (n + 1)
    for pattern in product((0, 1), repeat=n):
        weight = math.prod(s if on else 1.0 - s for s, on in zip(supports, pattern))
        acc[sum(pattern)] += weight
    return tuple(acc)


def counting_frame(r_max: int) -> Frame:
    return Frame(tuple(str(r) for r in range(1, r_max + 1)))


def counting_to_mass(cb: Sequence[float], r_max: int) -> MassFunction:
    """The counting bpa as a plain mass function on the count frame {1..r_max},
    listed as "at least k" for k = 1..n, then the whole frame (entry 0)."""
    frame = counting_frame(r_max)
    entries = [(tuple(str(r) for r in range(k, r_max + 1)), cb[k]) for k in range(1, len(cb))]
    return make_mass(frame, entries + [(frame.elements, cb[0])])


def prior_to_mass(prior: DomainPrior) -> MassFunction:
    """The Bayesian prior as a singleton-focal mass function on the count frame."""
    frame = counting_frame(prior.r_max)
    entries = [((str(r),), p) for r, p in sorted(prior.probabilities.items()) if p > 0]
    return make_mass(frame, entries)


class OracleSizeError(ValueError):
    """The enumeration oracle refuses graphs beyond its vertex limit."""

    def __init__(self, n: int):
        super().__init__(
            f"combine_oracle enumerates 2^(n + n(n-1)/2) selections and supports "
            f"at most {ORACLE_VERTEX_LIMIT} vertices; got {n}"
        )


@dataclass(frozen=True)
class TrackAnalysis:
    """Oracle output: per-path support and plausibility plus the total conflict."""

    conflict: float
    support: dict[Path, float]
    plausibility: dict[Path, float]
    plausibility_unnorm: dict[Path, float]


def _bits_to_path(bits: int) -> Path:
    return tuple(i + 1 for i in range(bits.bit_length()) if bits >> i & 1)


def all_paths(g: TrackGraph) -> list[Path]:
    """Every strictly increasing vertex sequence, by subset encoding order."""
    n = g.n
    return [_bits_to_path(bits) for bits in range(1, 1 << n)]


def _evidence_focals(g: TrackGraph) -> list[tuple[int, float]]:
    """Each piece of evidence as (set-of-paths bitmask, mass) over the path frame."""
    n = g.n
    n_paths = (1 << n) - 1
    focals: list[tuple[int, float]] = []
    for i in range(1, n + 1):
        mask = 0
        for bits in range(1, n_paths + 1):
            if bits >> (i - 1) & 1:
                mask |= 1 << (bits - 1)
        focals.append((mask, g.p[i - 1]))
    for (i, j), qij in sorted(g.q.items()):
        between = ((1 << (j - 1)) - 1) & ~((1 << i) - 1)
        mask = 0
        for bits in range(1, n_paths + 1):
            direct = bits >> (i - 1) & 1 and bits >> (j - 1) & 1 and not bits & between
            if not direct:
                mask |= 1 << (bits - 1)
        focals.append((mask, qij))
    return focals


def combine_oracle(g: TrackGraph) -> TrackAnalysis:
    """Support and plausibility of every track by full product-space enumeration.

    The frame is the set of all nonempty tracks. Vertex evidence i puts mass
    p_i on "the track visits i"; edge evidence (i, j) puts mass q_ij on "the
    track does not make the direct transition i -> j". All 2^(#evidence)
    focal selections are enumerated (sharing selection prefixes) and their
    intersections accumulated.
    """
    if g.n > ORACLE_VERTEX_LIMIT:
        raise OracleSizeError(g.n)
    n_paths = (1 << g.n) - 1
    full = (1 << n_paths) - 1
    acc: dict[int, float] = {}
    focals = _evidence_focals(g)
    stack: list[tuple[int, int, float]] = [(0, full, 1.0)]
    while stack:
        idx, mask, weight = stack.pop()
        if weight == 0.0:
            continue
        if idx == len(focals):
            acc[mask] = acc.get(mask, 0.0) + weight
            continue
        fmask, w = focals[idx]
        stack.append((idx + 1, mask, weight * (1.0 - w)))
        stack.append((idx + 1, mask & fmask, weight * w))

    conflict = acc.pop(0, 0.0)
    norm = math.fsum(acc.values())  # surviving mass; 1 - conflict loses it near total conflict
    bel_unnorm = [0.0] * n_paths
    pls_unnorm = [0.0] * n_paths
    for mask, weight in acc.items():
        if mask.bit_count() == 1:
            bel_unnorm[mask.bit_length() - 1] += weight
        m = mask
        while m:
            low = m & -m
            pls_unnorm[low.bit_length() - 1] += weight
            m ^= low
    support: dict[Path, float] = {}
    plausibility: dict[Path, float] = {}
    plausibility_unnorm: dict[Path, float] = {}
    for bits in range(1, n_paths + 1):
        path = _bits_to_path(bits)
        support[path] = bel_unnorm[bits - 1] / norm
        plausibility[path] = pls_unnorm[bits - 1] / norm
        plausibility_unnorm[path] = pls_unnorm[bits - 1]
    return TrackAnalysis(conflict, support, plausibility, plausibility_unnorm)


def check_dempster_step(seed: int, trials: int) -> CheckResult:
    """``kernel_agrees`` along random folds: a running combination against the
    next random mass, with weights spread down to 1e-14, until a total conflict."""
    rng = random.Random(seed)
    passes = []
    for _ in range(trials):
        frame = Frame(tuple("abcde"[: rng.randint(1, 5)]))
        acc = random_spread_mass(frame, rng)
        passed = True
        for _ in range(rng.randint(1, 6)):
            m = random_spread_mass(frame, rng) if rng.random() < 0.5 else random_mass(frame, rng)
            passed = kernel_agrees(acc, m) and passed
            try:
                acc, _ = reference_combine(acc, m)
            except TotalConflictError:
                break
        passes.append(passed)
    return _result("Dempster step vs reference combine", passes)


def fold_conflict(ms: Sequence[MassFunction]) -> float:
    """``cluster_conflict`` of a block holding ``ms`` in this order: the
    production left fold of Dempster's rule."""
    corpus = EvidenceCorpus(ms[0].frame, tuple(Report(str(i), m) for i, m in enumerate(ms)))
    return cluster_conflict(corpus, corpus.ids)


def check_sequential_conflict(seed: int, trials: int) -> CheckResult:
    """The production fold's accumulated conflict vs full product-space enumeration."""
    rng = random.Random(seed)
    frame = Frame(("a", "b", "c", "d"))
    devs = []
    for _ in range(trials):
        ms = [random_simple_support(frame, rng) for _ in range(rng.randint(2, 6))]
        devs.append(abs(fold_conflict(ms) - enumerate_conflict(ms)))
    return _result("sequential vs simultaneous conflict", devs, 1e-9)


def check_counting_bpa(seed: int, trials: int) -> CheckResult:
    rng = random.Random(seed)
    devs = []
    for _ in range(trials):
        supports = [rng.random() for _ in range(rng.randint(1, 12))]
        devs.append(_worst(abs(x - y) for x, y in zip(counting_bpa(supports), counting_bpa_enumeration(supports))))
    return _result("counting bpa vs 2^n enumeration", devs, 1e-12)


def check_posterior_combination(seed: int, trials: int) -> CheckResult:
    """Closed-form posterior vs ``reference_combine`` of the counting mass with
    the prior, a combination that shares no step with production code."""
    rng = random.Random(seed)
    devs = []
    for _ in range(trials):
        r_max = rng.randint(2, 6)
        n = rng.randint(1, r_max)
        supports = [rng.random() for _ in range(n)]
        weights = [rng.random() + 1e-3 for _ in range(r_max)]
        total = left_sum(weights)
        prior = DomainPrior({r + 1: w / total for r, w in enumerate(weights)})
        cb = counting_bpa(supports)
        direct = posterior_distribution(cb, prior)
        combined, _ = reference_combine(counting_to_mass(cb, r_max), prior_to_mass(prior))
        devs.append(_worst(abs(direct[r] - combined.mass((str(r),))) for r in range(1, r_max + 1)))
    return _result("posterior vs mass-function combination", devs, 1e-9)


def check_track_plausibility(seed: int, trials: int) -> CheckResult:
    rng = random.Random(seed)
    devs = []
    for _ in range(trials):
        g = random_track_graph(rng.randint(2, 5), rng)
        analysis = combine_oracle(g)
        devs.append(
            _worst(abs(path_plausibility_unnorm(g, p) - analysis.plausibility_unnorm[p]) for p in all_paths(g))
        )
    return _result("track plausibility closed form vs oracle", devs, 1e-9)


def check_track_normalization(seed: int, trials: int) -> CheckResult:
    """Sweep DPs for conflict and per-track support vs full product-space enumeration."""
    rng = random.Random(seed)
    devs = []
    for _ in range(trials):
        g = random_track_graph(rng.randint(1, 5), rng, zero_share=rng.choice((0.0, 0.3)))
        analysis = combine_oracle(g)
        conflict, norm = track_conflict(g)
        support_devs = (abs(path_support(g, p, norm) - analysis.support[p]) for p in all_paths(g))
        devs.append(_worst((abs(conflict - analysis.conflict), *support_devs)))
    return _result("track conflict and support DP vs oracle", devs, 1e-12)


def check_best_path(seed: int, trials: int) -> CheckResult:
    rng = random.Random(seed)
    passes = []
    for _ in range(trials):
        g = random_track_graph(rng.randint(2, 5), rng)
        (best, value), *_ = best_path_dp(g, top_k=1)
        best_val = max(path_plausibility_unnorm(g, p) for p in all_paths(g))
        brute = min(p for p in all_paths(g) if path_plausibility_unnorm(g, p) == best_val)
        passes.append(best == brute and abs(value - best_val) <= 1e-12)
    return _result("best path DP vs exhaustive argmax", passes)


def check_rho_preferences(seed: int, trials: int) -> CheckResult:
    """``rho_segmentation``'s preferences vs a midpoint grid scan. A quarter of
    the choices after the first repeat an earlier choice's interval: affinely
    identical choices tie everywhere and must split their segments."""
    rng = random.Random(seed)
    grid = 10_000
    devs = []
    for _ in range(trials):
        choices = []
        for i in range(rng.randint(1, 5)):
            if choices and rng.random() < 0.25:
                earlier = rng.choice(choices)
                a, b = earlier.e_low, earlier.e_high
            else:
                a, b = sorted((rng.random(), rng.random()))
            choices.append(UtilityIntervalChoice(f"c{i}", a, b))
        _, preferences = rho_segmentation(choices)
        counts = {c.id: 0.0 for c in choices}
        for k in range(grid):
            rho = (k + 0.5) / grid
            values = [c.value_at(rho) for c in choices]
            best = max(values)
            winners = [c.id for c, v in zip(choices, values) if v == best]
            for w in winners:
                counts[w] += 1.0 / (grid * len(winners))
        devs.append(_worst(abs(pref - counts[cid]) for cid, pref in preferences.items()))
    return _result("rho preferences vs grid scan", devs, 2e-4)


def check_partition_search(seed: int, trials: int) -> CheckResult:
    """Local search attains the exhaustive metaconflict minimum on small corpora."""
    rng = random.Random(seed)
    passes = []
    for t in range(trials):
        corpus, _ = separable_corpus(rng, n_reports=6, n_groups=rng.randint(2, 3))
        prior = DomainPrior.uniform(4)
        _, found = partition_search(corpus, prior, SearchConfig(restarts=20, seed=seed + t))
        _, best = exhaustive_search(corpus, prior)
        passes.append(abs(found.mcf - best.mcf) <= 1e-9)
    return _result("partition search vs exhaustive minimum", passes)


def check_partition_branch_and_bound(seed: int, trials: int) -> CheckResult:
    """exhaustive_search's branch and bound vs scoring every partition: the same
    blocks and the same report, including saturated blocks, zero prior entries
    and value ties."""
    rng = random.Random(seed)
    passes = []
    for _ in range(trials):
        n = rng.randint(1, 7)
        corpus = mixed_corpus(rng, n, rng.randint(2, 4), categorical_share=0.25, vacuous_share=0.1)
        prior = random_prior(rng, rng.randint(1, n + 1), zero_share=0.4)
        part, report = exhaustive_search(corpus, prior)
        oracle_part, oracle_report = enumerate_search(corpus, prior)
        passes.append(part.blocks == oracle_part.blocks and report == oracle_report)
    return _result("partition branch-and-bound vs enumeration", passes)


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


def descents_agree(
    corpus: EvidenceCorpus, prior: DomainPrior, start: Sequence[Sequence[str]], max_sweeps: int, tol: float
) -> bool:
    """``cluster._descend`` and ``reference_descent`` from the same start.

    Every canonical conflict in the descent's store must be bit-equal to
    ``reference_conflict``, which folds ``reference_combine`` and so shares no
    step with the descent, and every one-step value in it within ``tol`` of
    it. The two descents must return the same blocks and a bit-equal mcf or,
    at the first sweep where their blocks part, partitions whose canonical mcf
    are within ``4 * IMPROVEMENT_TOL``: two moves, or a move and a stop, that
    close, which the descent may order the other way since it scores moves by
    moved values (see ``_descend``). Such partings are rare: 6 of 24,000
    ``check_partition_descent`` trials on ordinary corpora, by 1.1e-16, and
    14 of 8,000 spread-mass descents, by at most 2.9e-13."""
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
    return near and store_matches_reference(corpus, store, tol)


def check_partition_descent(seed: int, trials: int) -> CheckResult:
    """``descents_agree`` on mixed, separable and all-categorical corpora with
    random priors, some runs cut after one or two sweeps. Moved values here
    differ from canonical ones by rounding only, so each one-step value must
    lie within ``IMPROVEMENT_TOL / 10``; yet the descent still parts from the
    reference at one-ulp ties: in 6 of 24,000 trials (seeds 100-139, 600
    trials each), all on mixed corpora of 4 to 12 reports, at sweep 1 or 2,
    between partitions whose canonical mcf differed by 1.1e-16."""
    rng = random.Random(seed)
    passes = []
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
        passes.append(descents_agree(corpus, prior, start, rng.choice((1, 2, 200)), IMPROVEMENT_TOL / 10))
    return _result("partition descent vs reference descent", passes)


def check_partition_descent_spread(seed: int, trials: int) -> CheckResult:
    """``descents_agree`` on ``spread_corpus`` corpora, spread over 8 or 14
    orders of magnitude, with random priors. Each one-step value must lie
    within ``8 * PRUNE_EPS`` of the canonical one: the dust each fold order
    drops, at most 1.7e-12 over 3,000 spread-mass descents."""
    rng = random.Random(seed)
    passes = []
    for t in range(trials):
        n = rng.randint(2, 10)
        corpus = spread_corpus(rng, n, 8.0 if t % 2 else 14.0)
        prior = random_prior(rng, rng.randint(1, n + 1), zero_share=0.3)
        start = _random_start(corpus, prior, rng)
        passes.append(descents_agree(corpus, prior, start, rng.choice((1, 2, 200)), 8 * PRUNE_EPS))
    return _result("partition descent vs reference, spread masses", passes)


def check_specify(seed: int, trials: int) -> CheckResult:
    """``specify_corpus`` vs ``reference_memberships`` on random partitions of
    mixed, separable and ``spread_corpus`` corpora with random priors.
    Each plausibility may differ by ``16 * PRUNE_EPS / d``: the dust of the
    two conflicts in its ratio over the ratio's denominator d. Where d is at
    most ``16 * PRUNE_EPS`` that allows anything, so such a value is only
    checked to lie in [0, 1], and the name counts them."""
    rng = random.Random(seed)
    max_dev, failed, skipped = 0.0, 0, 0
    for t in range(trials):
        n = rng.randint(1, 10)
        if t % 3 == 0:
            corpus = mixed_corpus(rng, n, rng.randint(2, 4), categorical_share=0.25, vacuous_share=0.1)
        elif t % 3 == 1:
            corpus, _ = separable_corpus(rng, n_reports=max(n, 3), n_groups=3)
        else:
            corpus = spread_corpus(rng, n, rng.choice((8.0, 14.0)))
        n = len(corpus.reports)
        prior = random_prior(rng, rng.randint(1, n + 1), zero_share=0.3)
        partition = make_partition(corpus, _random_start(corpus, prior, rng))
        plausibility, _ = specify_corpus(partition, prior)
        failures = 0
        for rid, values in reference_memberships(partition, prior).items():
            for key, (expected, d) in values.items():
                value = plausibility[rid][key]
                if d <= 16 * PRUNE_EPS:
                    skipped += 1
                    failures += not 0.0 <= value <= 1.0
                else:
                    dev = abs(value - expected)
                    max_dev = _worst((max_dev, dev))
                    failures += not dev <= 16 * PRUNE_EPS / d
        failed += failures > 0
    return CheckResult(f"specify vs reference conflicts ({skipped} range-only)", trials, failed, max_dev)


def check_game_solver(seed: int, trials: int) -> CheckResult:
    """``games_agree`` on tie-heavy random games of up to 4 makers x 4 choices."""
    rng = random.Random(seed)
    return _result("game solver vs backward induction", [games_agree(random_game(rng)) for _ in range(trials)])


def run_all_checks(seed: int = 0, trials: int = 25) -> list[CheckResult]:
    if trials < 1:  # most checks would run no trial and pass
        raise ValidationError("trials must be >= 1")
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
        check_specify(seed + 13, trials),
    ]
