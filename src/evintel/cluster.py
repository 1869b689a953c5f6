"""Partitioning of uncertain reports into per-event clusters.

Each candidate partition is scored by the metaconflict criterion

    mcf = 1 - (1 - c0) * prod_i (1 - c_i)

where ``c_i`` is the Dempster conflict of combining all evidence inside block
``i`` and ``c0 = 1 - prior(n)`` is the conflict between the hypothesis "there
are n blocks" and a prior over block counts. Low metaconflict means the
grouping explains the corpus without forcing incompatible reports together.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .ds import (
    Frame,
    MassFunction,
    TotalConflictError,
    ValidationError,
    _dempster_conflict,
    _dempster_step,
)

IMPROVEMENT_TOL = 1e-12

FoldState = tuple[dict[int, float] | None, float]  # see _fold_step


@dataclass(frozen=True)
class Report:
    """One intelligence report: evidence over the corpus frame plus optional kinematics."""

    id: str
    evidence: MassFunction
    time_s: float | None = None
    pos_km: tuple[float, float] | None = None


@dataclass(frozen=True, eq=False)
class EvidenceCorpus:
    frame: Frame
    reports: tuple[Report, ...]
    _conflict_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.reports:
            raise ValidationError("corpus must contain at least one report")
        seen: set[str] = set()
        for r in self.reports:
            if r.id in seen:
                raise ValidationError(f"duplicate report id {r.id!r}")
            seen.add(r.id)
            if r.evidence.frame != self.frame:
                raise ValidationError(f"report {r.id!r} uses a different frame")
        object.__setattr__(self, "_by_id", {r.id: i for i, r in enumerate(self.reports)})
        # each report's focal (bits, mass) pairs, the form a fold step combines
        object.__setattr__(self, "_items", tuple(tuple(r.evidence.masses.items()) for r in self.reports))

    def index_of(self, report_id: str) -> int:
        try:
            return self._by_id[report_id]  # type: ignore[attr-defined]
        except KeyError:
            raise ValidationError(f"unknown report id {report_id!r}") from None

    def report(self, report_id: str) -> Report:
        return self.reports[self.index_of(report_id)]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.reports)


@dataclass(frozen=True)
class DomainPrior:
    """Bayesian prior over the number of events, on counts 1..r_max."""

    probabilities: dict[int, float]

    def __post_init__(self):
        if not self.probabilities:
            raise ValidationError("prior must not be empty")
        for r, p in self.probabilities.items():
            if not (isinstance(r, int) and r >= 1):
                raise ValidationError(f"prior count {r!r} must be an integer >= 1")
            if not math.isfinite(p):
                raise ValidationError(f"prior probability for {r} is not a finite number")
            if p < 0:
                raise ValidationError(f"prior probability for {r} is negative")
        total = math.fsum(self.probabilities.values())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"prior probabilities sum to {total:.10g}, expected 1")

    @classmethod
    def uniform(cls, r_max: int) -> "DomainPrior":
        if r_max < 1:
            raise ValidationError("r_max must be >= 1")
        return cls({r: 1.0 / r_max for r in range(1, r_max + 1)})

    @property
    def r_max(self) -> int:
        return max(self.probabilities)

    def __call__(self, n: int) -> float:
        return self.probabilities.get(n, 0.0)


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint nonempty blocks of report ids covering the corpus."""

    corpus: EvidenceCorpus
    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for block in self.blocks:
            if not block:
                raise ValidationError("partition contains an empty block")
            for rid in block:
                self.corpus.index_of(rid)
                if rid in seen:
                    raise ValidationError(f"report {rid!r} appears in two blocks")
                seen.add(rid)
        if len(seen) != len(self.corpus.reports):
            raise ValidationError("partition does not cover the corpus")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, report_id: str) -> int:
        for i, block in enumerate(self.blocks):
            if report_id in block:
                return i
        raise ValidationError(f"unknown report id {report_id!r}")


@dataclass(frozen=True)
class MetaConflictReport:
    c0: float
    cluster_conflicts: tuple[float, ...]
    mcf: float


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 20
    seed: int = 0
    max_sweeps: int = 200


def make_partition(corpus: EvidenceCorpus, blocks: Iterable[Iterable[str]]) -> Partition:
    """Normalize blocks (members in corpus order, blocks by least member) and validate."""
    ordered = [tuple(sorted(b, key=corpus.index_of)) for b in blocks]
    ordered = [b for b in ordered if b]
    ordered.sort(key=lambda b: corpus.index_of(b[0]))
    return Partition(corpus, tuple(ordered))


def cluster_conflict(corpus: EvidenceCorpus, block: Iterable[str]) -> float:
    """Accumulated Dempster conflict of the block's evidence; 0 for <= 1 report."""
    ids = frozenset(block)
    cached = corpus._conflict_cache.get(ids)
    if cached is not None:
        return cached
    indices = sorted(map(corpus.index_of, ids))
    conflict = _tail_conflict(corpus, None, indices) if indices else 0.0
    corpus._conflict_cache[ids] = conflict
    return conflict


def domain_conflict(n: int, prior: DomainPrior) -> float:
    """Conflict between the categorical hypothesis "n events" and the count prior."""
    if n < 1:
        raise ValidationError("block count must be >= 1")
    return 1.0 - prior(n)


def _mcf_value(c0: float, cluster_conflicts: Sequence[float]) -> float:
    return 1.0 - (1.0 - c0) * math.prod(1.0 - c for c in cluster_conflicts)


def metaconflict(partition: Partition, prior: DomainPrior) -> MetaConflictReport:
    c0 = domain_conflict(partition.n_blocks, prior)
    conflicts = tuple(cluster_conflict(partition.corpus, b) for b in partition.blocks)
    return MetaConflictReport(c0, conflicts, _mcf_value(c0, conflicts))


def _canonical_key(corpus: EvidenceCorpus, blocks: Sequence[Iterable[str]]) -> tuple:
    """Ordering key for value-tied partitions: fewer blocks first, then lexicographic.

    Preferring the coarsest tied partition matters: refining a zero-conflict
    block leaves the criterion unchanged, and the coarsest representative is
    the one where every block is a maximal compatible group.
    """
    index_blocks = sorted(tuple(sorted(corpus.index_of(r) for r in b)) for b in blocks)
    return (len(index_blocks), index_blocks)


class BlockState:
    """One block as sorted report indices plus its prefix chain of fold states.

    ``chain[k]`` is the ``_fold_step`` state (focal dict, survival) after
    folding ``members[:k + 1]`` in corpus order, with survival
    ``prod(1 - c_step)``; a dict of None marks a saturated prefix (a step
    raised ``TotalConflictError``, or ``1 - survival`` is already 1.0). The
    chain grows only as far as a query needs and is cut back where a member
    is inserted or removed, so a state never holds more dicts than the block
    has members.

    ``toggled(j)`` is the conflict of the block with report j added (or
    removed, if j is a member): it starts from the prefix before j's position
    and folds j (if added) and then the tail, the last step conflict-only.
    That is the fold ``cluster_conflict`` does, so the value is bit-identical;
    a suffix combined on its own and merged with the prefix would not be.
    Values are memoised per state until the block changes and shared through
    the corpus conflict cache under frozenset keys, which ``cluster_conflict``
    reads too.
    """

    __slots__ = ("corpus", "members", "key", "chain", "known")

    def __init__(self, corpus: EvidenceCorpus, members: list[int]):
        self.corpus = corpus
        self.members = members
        self.key = frozenset(corpus.reports[i].id for i in members)
        self.chain: list[FoldState] = []
        self.known: dict[int, float] = {}

    def _prefix(self, k: int) -> FoldState:
        """State after folding ``members[:k]``, k >= 1."""
        chain = self.chain
        members = self.members
        if not chain:
            chain.append((self.corpus.reports[members[0]].evidence.masses, 1.0))
        items = self.corpus._items
        while len(chain) < k:
            chain.append(_fold_step(chain[-1], items[members[len(chain)]]))
        return chain[k - 1]

    def _fold(self, k: int, tail: list[int]) -> float:
        """Conflict of ``members[:k]`` followed by ``tail``, folded in that order."""
        return _tail_conflict(self.corpus, self._prefix(k) if k else None, tail)

    def conflict(self) -> float:
        """``cluster_conflict`` of the block."""
        cache = self.corpus._conflict_cache
        c = cache.get(self.key)
        if c is None:
            k = len(self.members) - 1
            c = cache[self.key] = self._fold(k, self.members[k:])
        return c

    def toggled(self, j: int) -> float:
        """``cluster_conflict`` of the block with report j added, or removed if
        it is a member; the block must keep at least one member."""
        c = self.known.get(j)
        if c is not None:
            return c
        key = self.key ^ {self.corpus.reports[j].id}
        cache = self.corpus._conflict_cache
        c = cache.get(key)
        if c is None:
            members = self.members
            k = bisect_left(members, j)
            tail = members[k + 1 :] if k < len(members) and members[k] == j else [j, *members[k:]]
            c = cache[key] = self._fold(k, tail)
        self.known[j] = c
        return c

    def toggle(self, j: int) -> None:
        """Add report j to the block, or remove it if it is a member."""
        members = self.members
        k = bisect_left(members, j)
        if k < len(members) and members[k] == j:
            del members[k]
        else:
            members.insert(k, j)
        del self.chain[k:]
        self.known.clear()
        self.key = self.key ^ {self.corpus.reports[j].id}


def _fold_step(state: FoldState, items: tuple, last: bool = False) -> FoldState:
    """One step of a left fold of Dempster's rule over a block in corpus order.

    A state is (focal dict, survival ``prod(1 - c_step)``); ``items`` are the
    next report's (bits, mass) pairs. A saturated state, with a dict of None
    and survival 0, stays saturated: once ``1 - survival`` rounds to 1.0 the
    fold's result is 1.0 whatever follows, since every later factor
    ``1 - c`` is at most 1. With ``last`` only the conflict is computed and
    the dict is None; only the survival of such a state may be read.
    """
    masses, survival = state
    if masses is None:
        return state
    try:
        if last:
            masses, c = None, _dempster_conflict(masses, items)
        else:
            masses, c = _dempster_step(masses, items)
    except TotalConflictError:
        return None, 0.0
    survival *= 1.0 - c
    if 1.0 - survival == 1.0:
        return None, 0.0
    return masses, survival


def _tail_conflict(corpus: EvidenceCorpus, state: FoldState | None, tail: Sequence[int]) -> float:
    """``1 - survival`` after folding reports ``tail`` onto ``state``, or onto
    the first of them when state is None; the last step is conflict-only."""
    if state is None:
        state, tail = (corpus.reports[tail[0]].evidence.masses, 1.0), tail[1:]
    items = corpus._items
    last = len(tail) - 1
    for n, i in enumerate(tail):
        if state[0] is None:
            break
        state = _fold_step(state, items[i], n == last)
    return 1.0 - state[1]


def _descend(
    corpus: EvidenceCorpus,
    prior: DomainPrior,
    blocks: list[list[str]],
    max_sweeps: int,
) -> tuple[list[list[str]], float]:
    """Steepest-descent single-report moves until no move improves mcf.

    Each sweep takes, over reports in corpus order and targets in block order
    with a fresh block last, the first move with the lowest candidate mcf
    among those that improve on the current mcf by more than
    ``IMPROVEMENT_TOL``; it stops when there is none. Blocks come back in
    block order, members in corpus order. Every block is a ``BlockState``, so
    a move refolds only the two blocks it touches, from the changed position,
    and the conflicts of block +/- j are the values ``cluster_conflict``
    gives. ``oracle.reference_descent`` scores every move and is the check.

    Three rules skip candidates that cannot be taken, without changing the
    move sequence or any float:

    1. A candidate whose conflict list holds an exact 1.0 has product 0 and
       mcf exactly 1.0, which improves on nothing. So report j is skipped when
       its origin's remainder is saturated (every candidate keeps it) or when
       two or more other blocks are (every candidate keeps one of them).
    2. With exactly one saturated block besides the origin, only the move
       into that block is scored; every other candidate keeps it.
    3. A conflict does not fall when a report joins a block, so every move
       of j into an existing block scores at least ``bound``: the current
       conflict list with only the origin replaced, at the block count all
       those moves share. The float product is monotone in each factor, so
       only the conflicts' own rounding can break the bound: on ladder and
       random corpora ``c(t + j) >= c(t)`` failed for 32 of 16,657 (block,
       report) pairs, by at most 2.2e-16. All of j's existing-block targets
       are skipped when ``bound`` reaches the acceptance threshold
       ``min(best, mcf - IMPROVEMENT_TOL)`` plus a slack of
       ``IMPROVEMENT_TOL / 10``, 450 times that rounding. Masses spread over
       many orders of magnitude can break the bound by more, through the
       dust ``PRUNE_EPS`` drops (up to 3.9e-13 with focal weights down to
       1e-8); the descent still matched the reference on 3,000 such corpora.
       A wider slack would cost much: plateau candidates sit within 1e-9 of 1.
       The fresh block changes the block count and is always scored.
    """
    n = len(corpus.reports)
    states = [BlockState(corpus, sorted(map(corpus.index_of, b))) for b in blocks]
    where = [0] * n  # report index -> block index
    for b, state in enumerate(states):
        for i in state.members:
            where[i] = b
    conflicts = [state.conflict() for state in states]
    c0 = [1.0] + [domain_conflict(k, prior) for k in range(1, n + 1)]  # by block count
    mcf = _mcf_value(c0[len(states)], conflicts)
    slack = IMPROVEMENT_TOL / 10

    for _ in range(max_sweeps):
        n_blocks = len(states)
        saturated = [b for b, c in enumerate(conflicts) if c == 1.0]
        best_cand = math.inf
        best_move: tuple[int, int] | None = None  # (report index, target block or -1 for fresh)
        for j in range(n):
            origin = where[j]
            others = [b for b in saturated if b != origin]
            if len(others) >= 2:
                continue
            if len(states[origin].members) > 1:
                rest = states[origin].toggled(j)
                if rest == 1.0:
                    continue
                base = conflicts.copy()
                base[origin] = rest
                keep = 0  # candidates' conflict lists keep the origin's position
            elif n_blocks > 1:
                rest = None
                base = conflicts[:origin] + conflicts[origin + 1 :]
                keep = 1  # the emptied origin drops out; later blocks shift down
            else:
                continue  # a lone report in a lone block has no move
            weight = c0[len(base)]
            if others:
                targets: Iterable[int] = others
            elif _mcf_value(weight, base) >= min(best_cand, mcf - IMPROVEMENT_TOL) + slack:
                targets = ()
            else:
                targets = (t for t in range(n_blocks) if t != origin)
            for t in targets:
                pos = t - keep if t > origin else t
                held = base[pos]
                base[pos] = states[t].toggled(j)
                cand = _mcf_value(weight, base)
                base[pos] = held
                if mcf - cand > IMPROVEMENT_TOL and cand < best_cand:
                    best_cand = cand
                    best_move = (j, t)
            if rest is not None and not others:
                # a fresh block's conflict is 0.0, whose factor 1.0 leaves the product as it is
                cand = _mcf_value(c0[len(base) + 1], base)
                if mcf - cand > IMPROVEMENT_TOL and cand < best_cand:
                    best_cand = cand
                    best_move = (j, -1)
        if best_move is None:
            break
        j, target = best_move
        origin = where[j]
        if target == -1:
            where[j] = len(states)
            states.append(BlockState(corpus, [j]))
            conflicts.append(0.0)
        else:
            where[j] = target
            conflicts[target] = states[target].toggled(j)
            states[target].toggle(j)
        if len(states[origin].members) > 1:
            conflicts[origin] = states[origin].toggled(j)
            states[origin].toggle(j)
        else:
            del states[origin], conflicts[origin]
            where = [b - (b > origin) for b in where]
        mcf = best_cand
    ids = corpus.ids
    return [[ids[i] for i in state.members] for state in states], mcf


def _random_start(corpus: EvidenceCorpus, prior: DomainPrior, rng: random.Random) -> list[list[str]]:
    n = rng.randint(1, min(prior.r_max, len(corpus.reports)))
    blocks: list[list[str]] = [[] for _ in range(n)]
    for report in corpus.reports:
        blocks[rng.randrange(n)].append(report.id)
    return [b for b in blocks if b]


def partition_search(
    corpus: EvidenceCorpus,
    prior: DomainPrior,
    config: SearchConfig = SearchConfig(),
) -> tuple[Partition, MetaConflictReport]:
    """Best partition over seeded random restarts of steepest single-move descent.

    Deterministic given (corpus order, seed, restarts): restart i draws its
    start from its own ``random.Random(f"{seed}:{i}")``, and restarts are
    merged by (mcf, canonical key).
    """
    if config.restarts < 1:
        raise ValidationError("restarts must be >= 1")
    runs = []
    for i in range(config.restarts):
        rng = random.Random(f"{config.seed}:{i}")
        blocks, mcf = _descend(corpus, prior, _random_start(corpus, prior, rng), config.max_sweeps)
        runs.append((mcf, _canonical_key(corpus, blocks), blocks))
    _, _, best_blocks = min(runs, key=lambda r: r[:2])
    partition = make_partition(corpus, best_blocks)
    return partition, metaconflict(partition, prior)


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


def _branch_and_bound(corpus: EvidenceCorpus, prior: DomainPrior, cap: int) -> list[list[str]]:
    """Blocks of the (mcf, canonical key) minimum over partitions of at most cap blocks.

    Depth-first over restricted growth strings: reports in corpus order, each
    into an open block by ascending label or into a new one. A block only
    grows by a report beyond its last index, so its ``_fold_step`` state is
    one step from its parent's, in corpus order: ``1 - survival`` is
    bit-for-bit ``cluster_conflict``. A block that ends with the last report
    never grows, so its step is conflict-only. States are memoised per block
    for the call; a saturated state stays saturated in every superset.

    No completion of a node scores below ``1 - w * prod(1 - c_i)`` over its
    open blocks, with w = ``1 - c0`` of the k blocks it ends with: blocks only
    gain reports, which never raises survival, and each step of the bound is
    the leaf's own float operation on arguments at least as large, so it
    bounds in floating point too. Nor does any completion with k blocks have
    a canonical key below (k, open blocks' members so far), since blocks only
    gain later indices. A node is cut when every reachable k bounds above the
    incumbent's mcf, or the smallest k that can tie it gives a key above the
    incumbent's.
    """
    n = len(corpus.reports)
    ids = corpus.ids
    items = corpus._items
    weights = [1.0 - domain_conflict(k, prior) for k in range(1, cap + 1)]
    states: dict[tuple[int, ...], FoldState] = {}
    blocks: list[tuple[int, ...]] = []  # member indices per label
    conflicts: list[float] = []
    best_mcf = math.inf
    best_key: tuple = ()
    best_blocks: list[list[str]] = []

    def conflict_of(block: tuple[int, ...]) -> float:
        state = states.get(block)
        if state is None:
            last = block[-1]
            if len(block) > 1:
                state = _fold_step(states[block[:-1]], items[last], last == n - 1)
            else:
                state = (corpus.reports[last].evidence.masses, 1.0)
            states[block] = state
        return 1.0 - state[1]

    def visit(i: int) -> None:
        nonlocal best_mcf, best_key, best_blocks
        used = len(blocks)
        if i == n:
            mcf = _mcf_value(domain_conflict(used, prior), conflicts)
            if mcf > best_mcf:
                return
            id_blocks = [[ids[j] for j in b] for b in blocks]
            key = _canonical_key(corpus, id_blocks)
            if mcf < best_mcf or key < best_key:
                best_mcf, best_key, best_blocks = mcf, key, id_blocks
            return
        lo = max(used, 1)
        survival = math.prod(1.0 - c for c in conflicts)
        bounds = [1.0 - w * survival for w in weights[lo - 1 : min(cap, used + n - i)]]
        bound = min(bounds)
        if bound > best_mcf:
            return
        if bound == best_mcf and (lo + bounds.index(bound), blocks) > best_key:
            return
        for label in range(used):
            parent, parent_conflict = blocks[label], conflicts[label]
            blocks[label] = parent + (i,)
            conflicts[label] = conflict_of(blocks[label])
            visit(i + 1)
            blocks[label], conflicts[label] = parent, parent_conflict
        if used < cap:
            blocks.append((i,))
            conflicts.append(conflict_of((i,)))
            visit(i + 1)
            blocks.pop()
            conflicts.pop()

    visit(0)
    del visit  # a recursive closure is a reference cycle; unlink it so the memo is freed now
    return best_blocks


def exhaustive_search(
    corpus: EvidenceCorpus, prior: DomainPrior, max_blocks: int | None = None
) -> tuple[Partition, MetaConflictReport]:
    """Global metaconflict minimum over every partition, by exact branch and bound.

    Only partitions with at most min(r_max, n) blocks are considered; any
    block count outside the prior's support has c0 = 1 and cannot beat them.
    Ties in mcf go to the smallest ``_canonical_key``, as in a full scan.
    ``oracle.enumerate_search`` scores every partition and is the check.
    """
    n = len(corpus.reports)
    cap = min(prior.r_max, n) if max_blocks is None else min(max_blocks, n)
    if cap < 1:
        raise ValidationError("max_blocks must be >= 1")
    partition = make_partition(corpus, _branch_and_bound(corpus, prior, cap))
    return partition, metaconflict(partition, prior)
