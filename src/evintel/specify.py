"""Graded per-block membership from conflict changes under hypothetical moves.

For a report j and a block, the metalevel mass against membership is the
incremental Dempster conflict attributable to placing j there:

    own block i:      (c_i - c_i_without_j) / (1 - c_i_without_j)
    foreign block k:  (c_k_with_j  - c_k)   / (1 - c_k)

Moves that change the number of blocks (spawning a fresh block, or emptying a
singleton origin) additionally contribute a domain component computed the same
way from the domain conflict. The two components fuse with the usual
1 - (1-a)(1-b) rule; membership plausibility is their complement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cluster import BlockState, DomainPrior, EvidenceCorpus, Partition, domain_conflict
from .ds import MassFunction, ValidationError, discount

NEW_BLOCK = "new"

BlockKey = int | str  # block index within the partition, or NEW_BLOCK


@dataclass(frozen=True)
class MembershipEvidence:
    report_id: str
    against: dict[BlockKey, float]
    domain_component: dict[BlockKey, float]

    def total_against(self, key: BlockKey) -> float:
        return 1.0 - (1.0 - self.against[key]) * (1.0 - self.domain_component[key])


@dataclass(frozen=True)
class MembershipSpecification:
    """Per report: membership plausibility per block (plus the fresh-block entry)
    and normalized weights over the partition's actual blocks."""

    plausibility: dict[str, dict[BlockKey, float]]
    weights: dict[str, dict[int, float]]


def _ratio(delta: float, denom: float) -> float:
    if denom <= 0.0:
        return 1.0
    return min(1.0, max(0.0, delta / denom))


def _block_states(partition: Partition) -> list[BlockState]:
    corpus = partition.corpus
    return [BlockState(corpus, sorted(map(corpus.index_of, b))) for b in partition.blocks]


def _membership(
    partition: Partition,
    prior: DomainPrior,
    states: list[BlockState],
    report_id: str,
) -> MembershipEvidence:
    """``membership_evidence`` over the partition's block states.

    A saturated block (conflict 1.0) gets against 1.0 without its +/- j
    conflict: ``_ratio`` would divide by 1 - 1.0 = 0, or a nonzero x by itself.
    """
    j = partition.corpus.index_of(report_id)
    own = partition.block_of(report_id)
    n = partition.n_blocks
    c0 = domain_conflict(n, prior)
    origin_empties = len(partition.blocks[own]) == 1

    def domain_delta(new_n: int) -> float:
        if c0 >= 1.0:
            return 0.0  # count already excluded; no move can add domain conflict
        return max(0.0, (domain_conflict(new_n, prior) - c0) / (1.0 - c0))

    against: dict[BlockKey, float] = {}
    domain: dict[BlockKey, float] = {}
    for k, state in enumerate(states):
        c_k = state.conflict()
        if k == own:
            domain[k] = 0.0
            if c_k == 1.0:
                against[k] = 1.0
            else:
                c_removed = 0.0 if origin_empties else state.toggled(j)
                against[k] = _ratio(c_k - c_removed, 1.0 - c_removed)
        else:
            domain[k] = domain_delta(n - 1) if origin_empties else 0.0
            against[k] = 1.0 if c_k == 1.0 else _ratio(state.toggled(j) - c_k, 1.0 - c_k)
    # fresh block: no cluster conflict is possible in a singleton
    against[NEW_BLOCK] = 0.0
    domain[NEW_BLOCK] = 0.0 if origin_empties else domain_delta(n + 1)
    return MembershipEvidence(report_id, against, domain)


def membership_evidence(partition: Partition, prior: DomainPrior, report_id: str) -> MembershipEvidence:
    """Metalevel against-membership masses for one report, per block and for "new"."""
    return _membership(partition, prior, _block_states(partition), report_id)


def specify_corpus(partition: Partition, prior: DomainPrior) -> MembershipSpecification:
    """Membership plausibilities and per-report weights for every report and block.

    Each block's state is built once, and every +/- j conflict is refolded
    from the block's prefix chain at j's position (``BlockState.toggled``):
    every value is ``cluster_conflict``'s, bit for bit, not the search's
    one-step estimate. Nothing is kept once the call returns.
    """
    plausibility: dict[str, dict[BlockKey, float]] = {}
    weights: dict[str, dict[int, float]] = {}
    block_keys: list[BlockKey] = list(range(partition.n_blocks)) + [NEW_BLOCK]
    states = _block_states(partition)
    for report in partition.corpus.reports:
        ev = _membership(partition, prior, states, report.id)
        pl = {key: 1.0 - ev.total_against(key) for key in block_keys}
        plausibility[report.id] = pl
        block_total = sum(pl[k] for k in range(partition.n_blocks))
        if block_total > 0.0:
            weights[report.id] = {k: pl[k] / block_total for k in range(partition.n_blocks)}
        else:
            weights[report.id] = {k: 1.0 / partition.n_blocks for k in range(partition.n_blocks)}
    return MembershipSpecification(plausibility, weights)


def discounted_view(
    corpus: EvidenceCorpus, spec: MembershipSpecification, block: int
) -> tuple[MassFunction, ...]:
    """Every report's evidence discounted by its membership plausibility for ``block``."""
    views = []
    for report in corpus.reports:
        try:
            alpha = spec.plausibility[report.id][block]
        except KeyError:
            raise ValidationError(f"block {block!r} not covered by the specification") from None
        views.append(discount(report.evidence, alpha))
    return tuple(views)
