"""Frames, mass functions and Dempster's rule with explicit conflict accounting.

Subsets of a frame are encoded as bitmasks over element indices, so focal-set
identity is exact and intersection is a single ``&``. Frames are expected to
stay small (tens of elements, not thousands).

Dempster's rule runs on bare focal dicts (bitmask -> mass) in a private
kernel, ``_dempster_step``; ``_dempster_conflict`` gives the same conflict
without building the combination, for the last step of a fold. The public
``combine_dempster`` checks frames and wraps the kernel's dict in a
``MassFunction``. ``oracle.reference_combine`` is the kernel's check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

MASS_TOL = 1e-9
PRUNE_EPS = 1e-12


class ValidationError(ValueError):
    """A value violates a structural invariant (bad mass, bad frame, bad input)."""


class TotalConflictError(ValueError):
    """Dempster combination left no compatible mass to renormalize."""

    def __init__(self, conflict: float):
        super().__init__(f"total contradiction: conflict = {conflict:.17g}")
        self.conflict = conflict


@dataclass(frozen=True)
class Frame:
    """Ordered frame of discernment; element order fixes the subset encoding."""

    elements: tuple[str, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValidationError("frame must be nonempty")
        if len(set(self.elements)) != len(self.elements):
            raise ValidationError("frame elements must be unique")
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(self.elements)})

    @classmethod
    def of(cls, elements: Iterable[str]) -> "Frame":
        return cls(tuple(elements))

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def full_bits(self) -> int:
        return (1 << len(self.elements)) - 1

    def bits_of(self, members: Iterable[str]) -> int:
        index = self._index  # type: ignore[attr-defined]
        bits = 0
        for e in members:
            try:
                bits |= 1 << index[e]
            except KeyError:
                raise ValidationError(f"unknown frame element {e!r}") from None
        return bits

    def members_of(self, bits: int) -> tuple[str, ...]:
        return tuple(e for i, e in enumerate(self.elements) if bits >> i & 1)


@dataclass(frozen=True)
class FocalSet:
    """Subset of a frame; equality is set equality via the canonical bitmask."""

    frame: Frame
    bits: int

    @classmethod
    def of(cls, frame: Frame, members: Iterable[str]) -> "FocalSet":
        return cls(frame, frame.bits_of(members))

    @property
    def members(self) -> tuple[str, ...]:
        return self.frame.members_of(self.bits)

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_full(self) -> bool:
        return self.bits == self.frame.full_bits


@dataclass(frozen=True, eq=False)
class MassFunction:
    """Basic probability assignment: positive masses on nonempty subsets, summing to 1."""

    frame: Frame
    masses: dict[int, float]  # bitmask -> mass; treated as immutable after construction

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.frame == other.frame and self.masses == other.masses

    def items(self):
        """Iterate ``(FocalSet, mass)`` pairs in canonical (bitmask) order."""
        for bits in sorted(self.masses):
            yield FocalSet(self.frame, bits), self.masses[bits]

    def mass(self, members: Iterable[str] | FocalSet) -> float:
        bits = members.bits if isinstance(members, FocalSet) else self.frame.bits_of(members)
        return self.masses.get(bits, 0.0)

    @property
    def theta_mass(self) -> float:
        return self.masses.get(self.frame.full_bits, 0.0)

    @property
    def is_vacuous(self) -> bool:
        return set(self.masses) == {self.frame.full_bits}


def make_mass(frame: Frame, entries: Sequence[tuple[Iterable[str] | FocalSet, float]]) -> MassFunction:
    """Build a validated mass function; zero entries dropped, duplicates merged.

    Masses may sum to 1 within ``MASS_TOL``. Decimal masses that sum to 1
    reach an ``fsum`` within an ulp of 1 per entry and are kept as given; a
    larger miss, as of hand-typed thirds such as 0.3333333333, is divided
    out. Dempster normalizers compose only for masses that sum to 1, and
    ``cluster`` scores a block by more than one fold order.
    """
    masses: dict[int, float] = {}
    for subset, value in entries:
        if not math.isfinite(value):
            raise ValidationError(f"mass {value} is not a finite number")
        if value < 0:
            raise ValidationError(f"negative mass {value}")
        if value == 0:
            continue
        bits = subset.bits if isinstance(subset, FocalSet) else frame.bits_of(subset)
        if bits == 0:
            raise ValidationError("empty focal set with positive mass")
        masses[bits] = masses.get(bits, 0.0) + value
    total = math.fsum(masses.values())
    if abs(total - 1.0) > MASS_TOL:
        raise ValidationError(f"masses sum to {total:.10g}, expected 1")
    if abs(total - 1.0) > len(entries) * 2**-52:
        masses = {bits: v / total for bits, v in masses.items()}
    return MassFunction(frame, masses)


def vacuous(frame: Frame) -> MassFunction:
    return MassFunction(frame, {frame.full_bits: 1.0})


def _dempster_step(masses: dict[int, float], items) -> tuple[dict[int, float], float]:
    """Dempster's rule on a focal dict and an iterable of (bits, mass) pairs.

    Returns the renormalized focal dict, with keys in the order their first
    product appears, and the conflict. One pass sums the products, one scales
    them and drops those below ``PRUNE_EPS``; the kept masses are divided by
    their ``fsum`` unless it is exactly 1.0, where division changes nothing.
    """
    products: dict[int, float] = {}
    conflict_terms: list[float] = []
    for a, ma in masses.items():
        for b, mb in items:
            inter = a & b
            w = ma * mb
            if not inter:
                conflict_terms.append(w)
            elif inter in products:
                products[inter] += w
            else:
                products[inter] = w  # products are >= 0, so 0.0 + w would be w
    conflict = min(1.0, math.fsum(conflict_terms))
    if conflict >= 1.0 - PRUNE_EPS:
        raise TotalConflictError(conflict)
    scale = 1.0 / (1.0 - conflict)
    kept = {bits: v for bits, w in products.items() if (v := w * scale) >= PRUNE_EPS}
    if not kept:
        raise TotalConflictError(conflict)
    total = math.fsum(kept.values())
    if total != 1.0:
        kept = {bits: v / total for bits, v in kept.items()}
    return kept, conflict


def _dempster_conflict(masses: dict[int, float], items) -> float:
    """The conflict ``_dempster_step`` returns, raising where it raises.

    Only the products are formed. The full step also raises when every summed
    product scales below ``PRUNE_EPS``; a sum is at least its largest term, so
    that can only happen when the largest product does, and then the full
    step decides.
    """
    conflict_terms: list[float] = []
    top = 0.0
    for a, ma in masses.items():
        for b, mb in items:
            w = ma * mb
            if not a & b:
                conflict_terms.append(w)
            elif w > top:
                top = w
    conflict = min(1.0, math.fsum(conflict_terms))
    if conflict >= 1.0 - PRUNE_EPS:
        raise TotalConflictError(conflict)
    if top * (1.0 / (1.0 - conflict)) < PRUNE_EPS:
        return _dempster_step(masses, items)[1]
    return conflict


def combine_dempster(m1: MassFunction, m2: MassFunction) -> tuple[MassFunction, float]:
    """Dempster's rule; returns the renormalized combination and the conflict mass."""
    if m1.frame != m2.frame:
        raise ValidationError("mass functions live on different frames")
    masses, conflict = _dempster_step(m1.masses, m2.masses.items())
    return MassFunction(m1.frame, masses), conflict


def combine_all(ms: Sequence[MassFunction]) -> tuple[MassFunction, float]:
    """Left-fold of Dempster's rule.

    The accumulated conflict 1 - prod(1 - c_step) equals the conflict of one
    simultaneous product-space combination (normalizers compose).
    """
    if not ms:
        raise ValidationError("no mass functions to combine")
    acc = ms[0]
    survival = 1.0
    for m in ms[1:]:
        acc, c = combine_dempster(acc, m)
        survival *= 1.0 - c
    return acc, 1.0 - survival


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


def query_bel_pls(m: MassFunction, a: Iterable[str] | FocalSet) -> tuple[float, float]:
    """Belief and plausibility of a subset: mass contained in it, mass touching it."""
    if isinstance(a, FocalSet):
        if a.frame != m.frame:
            raise ValidationError("subset belongs to a different frame")
        bits = a.bits
    else:
        bits = m.frame.bits_of(a)
    bel = math.fsum(v for b, v in m.masses.items() if b & ~bits == 0)
    pls = math.fsum(v for b, v in m.masses.items() if b & bits)
    return min(bel, 1.0), min(pls, 1.0)


def discount(m: MassFunction, alpha: float) -> MassFunction:
    """Scale every non-vacuous focal mass by ``alpha``; the deficit moves to the frame."""
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"discount rate {alpha} outside [0, 1]")
    full = m.frame.full_bits
    masses: dict[int, float] = {}
    for bits, v in m.masses.items():
        if bits != full and alpha > 0.0:
            masses[bits] = v * alpha
    masses[full] = 1.0 - math.fsum(masses.values())
    if masses[full] <= 0.0:
        del masses[full]
    return MassFunction(m.frame, masses)
