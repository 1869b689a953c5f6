"""Posterior distribution over the number of events from per-block support.

Each block supports its own existence to the degree its evidence says anything
at all beyond the full frame: s = 1 - prod m(frame). Combining the per-block
simple supports (which cannot conflict) and keeping only cardinality yields a
counting bpa on propositions "at least k events"; a Bayesian prior over counts
then turns it into a posterior by one more Dempster combination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cluster import DomainPrior, EvidenceCorpus
from .ds import ValidationError


@dataclass(frozen=True)
class CountingBpa:
    """Masses on "at least k events" (index k-1) plus the vacuous remainder."""

    at_least: tuple[float, ...]
    vacuous: float

    @property
    def n(self) -> int:
        return len(self.at_least)


def subset_support(corpus: EvidenceCorpus, block: Iterable[str]) -> float:
    """s = 1 - prod of frame masses over the block's reports."""
    ids = list(block)
    if not ids:
        raise ValidationError("block must be nonempty")
    return 1.0 - math.prod(corpus.report(r).evidence.theta_mass for r in ids)


def counting_bpa(supports: Sequence[float]) -> CountingBpa:
    """Combine per-block existence supports into masses on "at least k".

    mass("at least k") is the probability that exactly k independent supports
    fire, computed by the O(n^2) polynomial-product recurrence.
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
    return CountingBpa(tuple(pmf[1:]), pmf[0])


def posterior_distribution(cb: CountingBpa, prior: DomainPrior) -> dict[int, float]:
    """Dempster combination of the counting bpa with a Bayesian count prior.

    Since the prior is Bayesian the result is Bayesian:
    P(r) is proportional to prior(r) * (vacuous + sum of mass("at least k") for k <= r).
    The result maps each count the prior lists to its probability, in
    ascending order of count; a count the prior leaves out has probability 0
    and no entry, so the work grows with the prior's entries, not with its
    largest count.
    """
    r_max = prior.r_max
    if cb.n > r_max:
        raise ValidationError(
            f"counting bpa supports {cb.n} events but the prior allows at most {r_max}"
        )
    unnorm: dict[int, float] = {}
    for r in sorted(prior.probabilities):
        reachable = cb.vacuous + math.fsum(cb.at_least[: min(r, cb.n)])
        unnorm[r] = prior(r) * reachable
    total = math.fsum(unnorm.values())
    if total <= 0.0:
        raise ValidationError("prior is incompatible with every supported count")
    return {r: v / total for r, v in unnorm.items()}
