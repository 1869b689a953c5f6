"""Partitioning of uncertain reports into per-event clusters.

Each candidate partition is scored by the metaconflict criterion

    mcf = 1 - (1 - c0) * prod_i (1 - c_i)

where ``c_i`` is the Dempster conflict of combining all evidence inside block
``i`` and ``c0 = 1 - prior(n)`` is the conflict between the hypothesis "there
are n blocks" and a prior over block counts. Low metaconflict means the
grouping explains the corpus without forcing incompatible reports together.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

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
BlockValues = tuple[float, dict[int, float]]  # a member set's conflict and moved values, see BlockState


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
    """How ``partition_search`` runs: how many random starts it descends from,
    and the seed they are drawn with. Each descent runs to its end (see
    ``_descend``). A bad value is refused at construction."""

    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")


def make_partition(corpus: EvidenceCorpus, blocks: Iterable[Iterable[str]]) -> Partition:
    """Normalize blocks (members in corpus order, blocks by least member) and validate."""
    ordered = [tuple(sorted(b, key=corpus.index_of)) for b in blocks]
    ordered = [b for b in ordered if b]
    ordered.sort(key=lambda b: corpus.index_of(b[0]))
    return Partition(corpus, tuple(ordered))


def cluster_conflict(corpus: EvidenceCorpus, block: Iterable[str]) -> float:
    """Accumulated Dempster conflict of the block's evidence; 0 for <= 1 report."""
    indices = sorted(map(corpus.index_of, set(block)))
    return BlockState(corpus, indices).conflict() if indices else 0.0


def domain_conflict(n: int, prior: DomainPrior) -> float:
    """Conflict between the categorical hypothesis "n events" and the count prior."""
    if n < 1:
        raise ValidationError("block count must be >= 1")
    return 1.0 - prior(n)


def _mcf_value(c0: float, cluster_conflicts: Sequence[float]) -> float:
    return 1.0 - (1.0 - c0) * math.prod([1.0 - c for c in cluster_conflicts])


def _report(prior: DomainPrior, conflicts: tuple[float, ...]) -> MetaConflictReport:
    """The report of a partition whose blocks have these conflicts, in order."""
    c0 = domain_conflict(len(conflicts), prior)
    return MetaConflictReport(c0, conflicts, _mcf_value(c0, conflicts))


def metaconflict(partition: Partition, prior: DomainPrior) -> MetaConflictReport:
    return _report(prior, tuple(cluster_conflict(partition.corpus, b) for b in partition.blocks))


def _canonical_key(corpus: EvidenceCorpus, blocks: Sequence[Iterable[str]]) -> tuple:
    """Ordering key for value-tied partitions: fewer blocks first, then lexicographic.

    Preferring the coarsest tied partition matters: refining a zero-conflict
    block leaves the criterion unchanged, and the coarsest representative is
    the one where every block is a maximal compatible group.
    """
    index_blocks = sorted(tuple(sorted(corpus.index_of(r) for r in b)) for b in blocks)
    return (len(index_blocks), index_blocks)


class BlockState:
    """One block as sorted report indices plus two chains of fold states.

    ``chain[k]`` is the ``_fold_step`` state (focal dict, survival) after
    folding ``members[:k + 1]`` in corpus order, with survival
    ``prod(1 - c_step)``; a dict of None marks a saturated state (a step
    raised ``TotalConflictError``, or ``1 - survival`` is already 1.0).
    ``suffix[k]`` is the state after folding the last ``k + 1`` members from
    the last one backwards. Both chains grow only as far as a query needs and
    are cut back where a member is inserted or removed, so a state never holds
    more dicts than twice the block's members.

    ``store`` maps each set of members a state has had to its ``BlockValues``:
    the canonical conflict and the ``moved`` values found so far. States
    given one store share its values; a state given none keeps a store of
    its own. A block's conflict has two routes:

    - The canonical one is ``1 - survival`` of the whole prefix chain, the
      one fold ``cluster_conflict`` runs. A state looks its members up when
      built and after each toggle, folding the chain on a miss, and
      ``conflict()`` reads the entry.
    - ``moved(j)``, the conflict of the block with report j added, or removed
      if j is a member, takes at most one ``_fold_step``, since Dempster
      normalizers compose: an add is the whole prefix chain's state combined
      with j, conflict-only; a removal is the prefix before j combined with
      the suffix after it, their survivals multiplied, and the removal of the
      first or last member is a chain state as it is. The value equals
      ``cluster_conflict`` of the block +/- j up to rounding and the
      ``PRUNE_EPS`` dust each fold order drops, for masses that sum to 1
      within rounding, as ``make_mass`` makes them. It depends only on the
      block's members and j, and is kept in the store's entry for the
      members. The descent scores its moves this way, and ``specify``
      grades memberships by these values.
    """

    __slots__ = ("corpus", "members", "chain", "suffix", "store", "values")

    def __init__(
        self, corpus: EvidenceCorpus, members: list[int], store: dict[frozenset[int], BlockValues] | None = None
    ):
        self.corpus = corpus
        self.members = members
        self.chain: list[FoldState] = []
        self.suffix: list[FoldState] = []
        self.store = {} if store is None else store
        self._look_up()

    def _look_up(self) -> None:
        """Point ``values`` at the store's entry for the members, folding the
        canonical conflict if the store has none."""
        key = frozenset(self.members)
        values = self.store.get(key)
        if values is None:
            values = self.store[key] = (1.0 - self._prefix(len(self.members))[1], {})
        self.values = values

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

    def _suffix(self, k: int) -> FoldState:
        """State after folding ``members[k:]`` from the last member backwards,
        k < len(members)."""
        suffix = self.suffix
        members = self.members
        if not suffix:
            suffix.append((self.corpus.reports[members[-1]].evidence.masses, 1.0))
        items = self.corpus._items
        n = len(members)
        while len(suffix) < n - k:
            suffix.append(_fold_step(suffix[-1], items[members[n - 1 - len(suffix)]]))
        return suffix[n - 1 - k]

    def conflict(self) -> float:
        """``cluster_conflict`` of the block."""
        return self.values[0]

    def moved(self, j: int) -> float:
        """Conflict of the block with report j added, or removed if it is a
        member, in at most one step; the block must keep at least one member."""
        known = self.values[1]
        c = known.get(j)
        if c is not None:
            return c
        members = self.members
        n = len(members)
        k = bisect_left(members, j)
        if k == n or members[k] != j:
            c = 1.0 - _fold_step(self._prefix(n), self.corpus._items[j], True)[1]
        elif k == 0:
            c = 1.0 - self._suffix(1)[1]
        elif k == n - 1:
            c = 1.0 - self._prefix(k)[1]
        else:
            masses, survival = self._suffix(k + 1)
            if masses is None:
                c = 1.0
            else:
                c = 1.0 - _fold_step(self._prefix(k), masses.items(), True)[1] * survival
        known[j] = c
        return c

    def toggle(self, j: int) -> None:
        """Add report j to the block, or remove it if it is a member."""
        members = self.members
        n = len(members)
        k = bisect_left(members, j)
        if k < n and members[k] == j:
            del members[k]
            del self.suffix[n - k - 1 :]
        else:
            members.insert(k, j)
            del self.suffix[n - k :]
        del self.chain[k:]
        self._look_up()


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


def _descend(
    corpus: EvidenceCorpus,
    prior: DomainPrior,
    blocks: Sequence[Sequence[str]],
    max_sweeps: int | None,
    store: dict[frozenset[int], BlockValues],
) -> tuple[list[list[str]], float]:
    """Steepest-descent single-report moves until no move improves mcf, or a
    move fails to lower the canonical mcf.

    Each sweep takes, among the moves that improve on the current mcf by more
    than ``IMPROVEMENT_TOL``, the one with the lowest candidate mcf, a tie
    going to the earlier report in corpus order, then to the earlier target in
    block order with a fresh block last: the first strictly best move of a
    scan in that order. It stops when there is none. Blocks come back in
    block order, members in corpus order. Every block is a ``BlockState`` on
    ``store`` (``partition_search`` passes one dict to all its restarts), and
    a candidate's conflicts of block +/- j are ``BlockState.moved`` values:
    one step from the block's prefix and suffix chains. The survival factors
    ``1 - c`` and mcf of the current blocks are canonical: after each move the
    two blocks it touched are re-scored by their whole prefix chains, and mcf
    from them, so the mcf returned is bit for bit the one
    ``oracle.reference_descent`` gives for the same blocks. That oracle scores
    every move with canonical conflicts and is the check. Moved values differ
    from those by rounding and dust (see ``BlockState``), so where two
    candidates, or a candidate and the threshold, are that close the descent
    may take the other branch. On ordinary mixed corpora that happens at
    one-ulp ties: 6 of 24,000 descents parted from the reference, each at a
    sweep where the two partitions' canonical mcf differed by 1.1e-16. On
    corpora with focal weights spread over 8 to 14 orders of magnitude, 14
    of 8,000 descents parted, by at most 2.9e-13.

    For the same reason a move taken as an improvement on moved values need
    not lower the canonical mcf. The descent keeps such a move and stops
    there. So the canonical mcf falls strictly at every sweep but the last,
    over a finite set of partitions: this rule, not a sweep cap, is what
    proves that every descent ends. It never fired on 24,000 descents of the
    ``oracle-check`` corpora, 8,000 spread-mass ones or the benchmark
    workloads; with ``BlockState.moved`` patched to return 0.0, descents on
    6-report separable corpora stop after at most 11 ``toggle`` calls,
    where without the rule 19 of 20 cycled until a 200-sweep cap cut them.
    ``max_sweeps`` is such a cap, None for none: ``partition_search`` runs
    each descent to its end, and only ``oracle.descents_agree`` and tests cut
    one, to compare descents sweep by sweep.

    A sweep visits reports best first, which changes neither the move taken
    nor any float. Phase 1 goes through the reports in corpus order and scores
    each one's move into a fresh block and its ``bound``: mcf with only its
    origin changed, at the block count all of its moves into existing blocks
    share; an origin the move empties stays among the survival factors as 1.0,
    which changes no product. None of those moves scores below ``bound``. A
    report joining block t scores ``c(t + j) >= c(t)``: the add is one step
    from the state of t's whole prefix chain, whose ``1 - survival`` is t's
    conflict, and that step multiplies the survival by ``1 - c_step <= 1``,
    which rounding cannot raise; and the float product and subtractions are
    monotone in each factor. So a report whose bound does not improve on mcf
    by more than ``IMPROVEMENT_TOL`` has no acceptable move into an existing
    block, and is dropped. The same argument skips folds: before phase 1
    folds j out of an origin that keeps members, it scores the bound and the
    fresh block with the origin's factor at 1.0, the largest a removal can
    leave (a conflict is never below 0), so neither true score is lower; if
    neither improves on mcf by more than ``IMPROVEMENT_TOL``, j is dropped
    unfolded. That product depends on the origin alone, so a sweep forms it
    once per block; for a move that empties its origin it is the product
    itself. The test catches the rounding plateau, where no block is
    saturated but survival factors near 1e-12 multiply until mcf rounds to
    1.0 whatever j's origin gives: on the gen-seed-3 6x8 rung a search then
    folds 26 conflict-only steps instead of 719. Phase 2 scores the moves into
    existing blocks of the reports left, in order of (bound, report), and
    stops at the first report whose bound is above the best candidate so far:
    none of its moves, nor any later report's, can be taken.
    """
    n = len(corpus.reports)
    states = [BlockState(corpus, sorted(map(corpus.index_of, b)), store) for b in blocks]
    where = [0] * n  # report index -> block index
    for b, state in enumerate(states):
        for i in state.members:
            where[i] = b
    survivals = [1.0 - state.conflict() for state in states]
    weights = [0.0] + [1.0 - domain_conflict(k, prior) for k in range(1, n + 1)]  # by block count
    mcf = 1.0 - weights[len(states)] * math.prod(survivals)

    for _ in itertools.count() if max_sweeps is None else range(max_sweeps):
        n_blocks = len(states)
        best_cand = math.inf
        best_move: tuple[int, int] | None = None  # (report index, target block; n_blocks for a fresh one)
        bounds = []  # (bound, report index, survivals with only its origin changed, weight of their block count)
        lifted = []  # by origin block, the product with its factor at 1.0, the largest a removal can leave
        for b in range(n_blocks):
            held, survivals[b] = survivals[b], 1.0
            lifted.append(math.prod(survivals))
            survivals[b] = held
        for j in range(n):
            origin = where[j]
            keeps = len(states[origin].members) > 1
            if not keeps and n_blocks == 1:
                continue  # a lone report in a lone block has no move
            weight = weights[n_blocks if keeps else n_blocks - 1]
            product = lifted[origin]
            if keeps and mcf - (1.0 - max(weight, weights[n_blocks + 1]) * product) <= IMPROVEMENT_TOL:
                continue  # the larger weight gives the lower of bound and fresh block: no move, so no fold
            base = survivals.copy()
            base[origin] = 1.0 - states[origin].moved(j) if keeps else 1.0
            if keeps:
                product = math.prod(base)
            bound = 1.0 - weight * product
            if mcf - bound > IMPROVEMENT_TOL:
                bounds.append((bound, j, base, weight))
            if keeps:
                # a fresh block's survival factor is 1.0, which leaves the product as it is
                cand = 1.0 - weights[n_blocks + 1] * product
                if mcf - cand > IMPROVEMENT_TOL and cand < best_cand:
                    best_cand = cand
                    best_move = (j, n_blocks)
        bounds.sort()  # report indices are distinct, so no two entries compare their lists
        for bound, j, base, weight in bounds:
            if bound > best_cand:
                break
            origin = where[j]
            for t in range(n_blocks):
                if t == origin:
                    continue
                held = base[t]
                base[t] = 1.0 - states[t].moved(j)
                cand = 1.0 - weight * math.prod(base)
                base[t] = held
                if mcf - cand > IMPROVEMENT_TOL and (cand < best_cand or cand == best_cand and (j, t) < best_move):
                    best_cand = cand
                    best_move = (j, t)
        if best_move is None:
            break
        j, target = best_move
        origin = where[j]
        where[j] = target
        if target == n_blocks:
            states.append(BlockState(corpus, [j], store))
            survivals.append(1.0)
        else:
            states[target].toggle(j)
            survivals[target] = 1.0 - states[target].conflict()
        if len(states[origin].members) > 1:
            states[origin].toggle(j)
            survivals[origin] = 1.0 - states[origin].conflict()
        else:
            del states[origin], survivals[origin]
            where = [b - (b > origin) for b in where]
        last, mcf = mcf, 1.0 - weights[len(states)] * math.prod(survivals)
        if mcf >= last:
            break
    ids = corpus.ids
    return [[ids[i] for i in state.members] for state in states], mcf


def _random_start(corpus: EvidenceCorpus, prior: DomainPrior, rng: random.Random) -> tuple[tuple[str, ...], ...]:
    n = rng.randint(1, min(prior.r_max, len(corpus.reports)))
    blocks: list[list[str]] = [[] for _ in range(n)]
    for report in corpus.reports:
        blocks[rng.randrange(n)].append(report.id)
    return tuple(tuple(b) for b in blocks if b)


def partition_search(
    corpus: EvidenceCorpus,
    prior: DomainPrior,
    config: SearchConfig = SearchConfig(),
) -> tuple[Partition, MetaConflictReport]:
    """Best partition over seeded random restarts of steepest single-move descent.

    Deterministic given (corpus order, seed, restarts): restart i draws its
    start from its own ``random.Random(f"{seed}:{i}")``, and restarts are
    merged by (mcf, canonical key). The restarts share one store of
    ``BlockValues`` (see ``BlockState``), which lives for this call only: the
    canonical conflict and one-step move values of each set of members met.
    A value depends on the block and the report alone, so no restart's result
    depends on the others. Against a store per restart, sharing saves 19-21%
    of the fold steps on the exhaustive-check benchmark corpora, 10% on
    track-desk and 6% on search-ladder. Each restart's mcf is the canonical
    one of its final blocks, so the merge compares ``cluster_conflict``
    values, and the report is built from the winner's stored conflicts in
    partition order, as ``metaconflict`` would give it. A descent depends
    only on its start, so a start that repeats an earlier one is not run
    again: every draw of one block gives the same start. Each descent runs
    to its end, with no sweep cap (see ``_descend``). ``config`` has checked
    its values when it was built.
    """
    store: dict[frozenset[int], BlockValues] = {}
    starts = (_random_start(corpus, prior, random.Random(f"{config.seed}:{i}")) for i in range(config.restarts))
    runs = []
    for start in dict.fromkeys(starts):  # each distinct start once, in draw order
        blocks, mcf = _descend(corpus, prior, start, None, store)
        runs.append((mcf, _canonical_key(corpus, blocks), blocks))
    _, _, best_blocks = min(runs, key=lambda r: r[:2])
    partition = make_partition(corpus, best_blocks)
    conflicts = tuple(store[frozenset(map(corpus.index_of, b))][0] for b in partition.blocks)
    return partition, _report(prior, conflicts)


def exhaustive_search(corpus: EvidenceCorpus, prior: DomainPrior) -> tuple[Partition, MetaConflictReport]:
    """Global metaconflict minimum over every partition, by exact branch and bound.

    Only partitions with at most min(r_max, n) blocks are considered; any
    block count outside the prior's support has c0 = 1 and cannot beat them.
    Ties in mcf go to the smallest ``_canonical_key``, as in a full scan.
    ``oracle.enumerate_search`` scores every partition and is the check.

    Depth-first over restricted growth strings: reports in corpus order, each
    into an open block or into a new one. The open nodes wait on one stack as
    (next report, member indices per label, their conflicts); a child copies
    its parent's lists before it changes them, so a pushed node never
    changes. A budget could stop the search at any pop: the stack then holds
    every unsettled node, and the incumbent's mcf less their least bound is
    the gap. A block only grows by a report beyond its last index, so its
    ``_fold_step`` state is one step from its parent's, in corpus order:
    ``1 - survival`` is bit-for-bit ``cluster_conflict``. A block that ends
    with the last report never grows, so its step is conflict-only. States
    are memoised per block for the call, keyed by the child's own block
    tuple, which is built once; a saturated state stays saturated in every
    superset. The memo keeps every prefix of a block, so it grows with the
    square of one block's length. The report is built from the winner's memoised
    conflicts, in block order.

    Children are popped best first: by descending survival factor
    ``(1 - c_child) / (1 - c_parent)`` of the block report i joins, where a
    new block counts as 1 and a saturated parent as 0; ties keep label order,
    the new block last. So the first leaf puts each report where it conflicts
    least, and on corpora with structure the incumbent is near the optimum
    before most of the tree is open. The order decides only how early nodes
    are cut, not the result: the cuts below discard only nodes none of whose
    leaves can win, so any visit order returns the same minimum, bit for bit.

    No completion of a node scores below ``1 - w * prod(1 - c_i)`` over its
    open blocks, with w = ``1 - c0`` of the k blocks it ends with: blocks only
    gain reports, which never raises survival, and each step of the bound is
    the leaf's own float operation on arguments at least as large, so it
    bounds in floating point too. Nor does any completion with k blocks have
    a canonical key below (k, open blocks' members so far), since blocks only
    gain later indices. A node is cut when every reachable k bounds above the
    incumbent's mcf, or the smallest k that can tie it gives a key above the
    incumbent's.

    A leaf is a node with one reachable count, its own k, so the same rule
    settles it: its bound is its mcf, by the float expression ``_mcf_value``
    runs, and its bound key is its canonical key, since labels open in
    least-member order and so its blocks are already sorted. A leaf that
    passes both cuts scores below the incumbent, or ties it with a smaller
    key, and becomes the incumbent.
    """
    n = len(corpus.reports)
    cap = min(prior.r_max, n)
    items = corpus._items
    weights = [1.0 - domain_conflict(k, prior) for k in range(1, cap + 1)]
    states: dict[tuple[int, ...], FoldState] = {}
    best_mcf = math.inf
    best_key: tuple = ()
    best_conflicts: list[float] = []

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

    stack: list[tuple[int, list[tuple[int, ...]], list[float]]] = [(0, [], [])]
    while stack:
        i, blocks, conflicts = stack.pop()
        used = len(blocks)
        survival = math.prod(1.0 - c for c in conflicts)
        lo = max(used, 1)
        bounds = [1.0 - w * survival for w in weights[lo - 1 : min(cap, used + n - i)]]
        bound = min(bounds)
        if bound > best_mcf:
            continue
        if bound == best_mcf and (lo + bounds.index(bound), blocks) > best_key:
            continue
        if i == n:
            best_mcf, best_key, best_conflicts = bound, (used, blocks), conflicts
            continue
        children = []  # (-survival factor, label, child conflict, child block); label ``used`` is the new block
        for label, c in enumerate(conflicts):
            block = blocks[label] + (i,)
            child = conflict_of(block)
            children.append((-(1.0 - child) / (1.0 - c) if c < 1.0 else 0.0, label, child, block))
        if used < cap:
            children.append((-1.0, used, conflict_of((i,)), (i,)))
        children.sort(reverse=True)  # labels are distinct, so no two entries compare their blocks
        for _, label, child, block in children:
            child_blocks, child_conflicts = blocks.copy(), conflicts.copy()
            if label == used:
                child_blocks.append(block)
                child_conflicts.append(child)
            else:
                child_blocks[label] = block
                child_conflicts[label] = child
            stack.append((i + 1, child_blocks, child_conflicts))
    ids = corpus.ids
    partition = make_partition(corpus, [[ids[j] for j in b] for b in best_key[1]])
    return partition, _report(prior, tuple(best_conflicts))
