"""Graded per-block membership from conflict changes under hypothetical moves.

For a report j and a block, the metalevel mass against membership is the
incremental Dempster conflict attributable to placing j there:

    own block i:      (c_i - c_i_without_j) / (1 - c_i_without_j)
    foreign block k:  (c_k_with_j  - c_k)   / (1 - c_k)

Moves that change the number of blocks (spawning a fresh block, or emptying a
singleton origin) additionally contribute a domain component computed the same
way from the domain conflict. The two components fuse with the usual
1 - (1-a)(1-b) rule; membership plausibility is their complement.

c_i and c_k are canonical block conflicts (``BlockState.conflict()``, the
fold ``cluster_conflict`` runs). The block with j removed or added is
``BlockState.moved(j)``: one fold step from the block's chains, the value
the descent scores moves by. It equals ``cluster_conflict`` of that member
set up to rounding and the ``PRUNE_EPS`` dust each fold order drops. Each
ratio divides by its denominator 1 - c, so a value can move by that dust
over 1 - c; near total conflict that is the conditioning the ratio has
against exact arithmetic anyway. ``oracle-check`` holds every value within
``16 * PRUNE_EPS / (1 - c)`` of the one built from reference conflicts.

``specify_corpus`` returns ``(plausibility, weights)``: per report id, the
membership plausibility per block index plus ``NEW_BLOCK``, and the weights
normalized over the partition's actual blocks. The pipeline reports both; no
later stage reads them (the track stage gives each block member vertex mass
1 - m(frame), whatever its membership).
"""

from __future__ import annotations

from .cluster import BlockState, DomainPrior, Partition, domain_conflict
from .ds import left_sum

NEW_BLOCK = "new"

BlockKey = int | str  # block index within the partition, or NEW_BLOCK


def _ratio(delta: float, denom: float) -> float:
    if denom <= 0.0:
        return 1.0
    return min(1.0, max(0.0, delta / denom))


def specify_corpus(partition: Partition, prior: DomainPrior) -> tuple[dict, dict]:
    """Membership plausibilities and per-report weights for every report and
    block, as ``(plausibility, weights)`` (see the module docstring).

    Each block's state is built once, and every +/- j conflict is its
    ``BlockState.moved(j)``, one fold step from the block's prefix and
    suffix chains (see the module docstring for how far that is from
    ``cluster_conflict``). Each state's store holds these values for this
    call only; nothing is kept once the call returns.

    A saturated block (conflict 1.0) gets against 1.0 either way: ``_ratio``
    maps a zero denominator to 1.0, and a saturated chain makes ``moved``'s
    add step free. Its own members get 1.0 without ``moved``, which changes
    no value (x / x is 1.0) but skips folding the block's suffix chain.
    """
    corpus = partition.corpus
    n = partition.n_blocks
    c0 = domain_conflict(n, prior)

    def domain_delta(new_n: int) -> float:
        if c0 >= 1.0:
            return 0.0  # count already excluded; no move can add domain conflict
        return max(0.0, (domain_conflict(new_n, prior) - c0) / (1.0 - c0))

    def fused(a: float, d: float) -> float:
        # 1 - (fused against); not (1 - a) * (1 - d), which can differ by an ulp
        return 1.0 - (1.0 - (1.0 - a) * (1.0 - d))

    states = [BlockState(corpus, sorted(map(corpus.index_of, b))) for b in partition.blocks]
    own_block = {j: k for k, state in enumerate(states) for j in state.members}
    plausibility: dict[str, dict[BlockKey, float]] = {}
    weights: dict[str, dict[int, float]] = {}
    for j, report in enumerate(corpus.reports):
        own = own_block[j]
        origin_empties = len(states[own].members) == 1
        pl: dict[BlockKey, float] = {}
        for k, state in enumerate(states):
            c_k = state.conflict()
            if k == own:
                c_removed = 0.0 if origin_empties or c_k == 1.0 else state.moved(j)
                pl[k] = fused(_ratio(c_k - c_removed, 1.0 - c_removed), 0.0)
            else:
                d = domain_delta(n - 1) if origin_empties else 0.0
                pl[k] = fused(_ratio(state.moved(j) - c_k, 1.0 - c_k), d)
        # fresh block: no cluster conflict is possible in a singleton
        pl[NEW_BLOCK] = fused(0.0, 0.0 if origin_empties else domain_delta(n + 1))
        plausibility[report.id] = pl
        block_total = left_sum(pl[k] for k in range(n))
        if block_total > 0.0:
            weights[report.id] = {k: pl[k] / block_total for k in range(n)}
        else:
            weights[report.id] = {k: 1.0 / n for k in range(n)}
    return plausibility, weights
