"""Posterior distribution over the number of events from per-block support.

Each block supports its own existence to the degree its evidence says anything
at all beyond the full frame: s = 1 - prod m(frame). Combining the per-block
simple supports (which cannot conflict) and keeping only cardinality yields a
counting bpa: a tuple whose entry k is the mass on "at least k events", where
entry 0, "at least 0 events", is the whole count frame. A Bayesian prior over
counts then turns it into a posterior by one more Dempster combination.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .cluster import DomainPrior, EvidenceCorpus
from .ds import ValidationError


def subset_support(corpus: EvidenceCorpus, block: Iterable[str]) -> float:
    """s = 1 - prod of frame masses over the block's reports."""
    ids = list(block)
    if not ids:
        raise ValidationError("block must be nonempty")
    return 1.0 - math.prod(corpus.report(r).evidence.theta_mass for r in ids)


def counting_bpa(supports: Sequence[float]) -> tuple[float, ...]:
    """Combine per-block existence supports into masses on "at least k".

    Entry k, mass("at least k"), is the probability that exactly k independent
    supports fire, computed by the O(n^2) polynomial-product recurrence; entry
    0, "at least 0 events", is the whole count frame.
    """
    for s in supports:
        if not 0.0 <= s <= 1.0:
            raise ValidationError(f"support {s} outside [0, 1]")
    pmf = [1.0]
    for s in supports:
        nxt = [0.0] * (len(pmf) + 1)
        for k, v in enumerate(pmf):
            nxt[k] += v * (1.0 - s)
            nxt[k + 1] += v * s
        pmf = nxt
    return tuple(pmf)


def posterior_distribution(cb: Sequence[float], prior: DomainPrior) -> dict[int, float]:
    """Dempster combination of the counting bpa with a Bayesian count prior.

    Since the prior is Bayesian the result is Bayesian:
    P(r) is proportional to prior(r) * (sum of mass("at least k") for k <= r).
    The result maps each count the prior lists to its probability, in
    ascending order of count; a count the prior leaves out has probability 0
    and no entry, so the work grows with the prior's entries, not with its
    largest count.
    """
    r_max = prior.r_max
    n = len(cb) - 1
    if n > r_max:
        raise ValidationError(f"counting bpa supports {n} events but the prior allows at most {r_max}")
    unnorm: dict[int, float] = {}
    for r in sorted(prior.probabilities):
        reachable = cb[0] + math.fsum(cb[1 : r + 1])
        unnorm[r] = prior(r) * reachable
    total = math.fsum(unnorm.values())
    if total <= 0.0:
        raise ValidationError("prior is incompatible with every supported count")
    return {r: v / total for r, v in unnorm.items()}
