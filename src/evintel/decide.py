"""Expected-utility-interval decisions and the rho interpolation parameter.

A mass function over a utility-labelled frame yields an interval
[E_low, E_high] (mass times worst / best utility of each focal set). The
parameter rho in [0, 1] picks the point value E_low + rho (E_high - E_low);
which alternative is best is then piecewise constant in rho, and an
alternative's preference is the total length of rho where it wins. The same
machinery scores sequential games where each player wants to end up holding
the highest point value on the table. That game is solved: whatever the other
makers choose, each maker's subgame-perfect pick is its own earliest-listed
highest value at rho (proof in ``_solve``), so maker order never changes the
outcome, and a play computes every choice's value once.
``oracle.reference_play``, backward induction over the whole game tree with
values recomputed at every node, is the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .ds import MassFunction, ValidationError


@dataclass(frozen=True)
class UtilityBpa:
    """Evidence over outcomes plus a utility for every frame element."""

    mass: MassFunction
    utilities: dict[str, float]

    def __post_init__(self):
        for e in self.mass.frame.elements:
            u = self.utilities.get(e)
            if u is None:
                raise ValidationError(f"no utility for frame element {e!r}")
            if not math.isfinite(u):
                raise ValidationError(f"utility for {e!r} is not finite")


@dataclass(frozen=True)
class UtilityIntervalChoice:
    id: str
    e_low: float
    e_high: float

    def __post_init__(self):
        if self.e_low > self.e_high + 1e-12:
            raise ValidationError(f"choice {self.id!r}: e_low {self.e_low} > e_high {self.e_high}")

    def value_at(self, rho: float) -> float:
        return self.e_low + rho * (self.e_high - self.e_low)


@dataclass(frozen=True)
class RhoSegment:
    lo: float
    hi: float
    winners: tuple[str, ...]  # more than one only for affinely identical choices


@dataclass(frozen=True)
class RhoSegmentation:
    segments: tuple[RhoSegment, ...]
    preferences: dict[str, float]


@dataclass(frozen=True)
class DecisionMaker:
    id: str
    choices: tuple[UtilityIntervalChoice, ...]

    def __post_init__(self):
        if not self.choices:
            raise ValidationError(f"decision maker {self.id!r} has no choices")


def expected_interval(u: UtilityBpa, choice_id: str = "") -> UtilityIntervalChoice:
    """[E_low, E_high]: every focal set contributes its worst / best utility."""
    e_low = 0.0
    e_high = 0.0
    for focal, mass in u.mass.items():
        values = [u.utilities[e] for e in focal.members]
        e_low += mass * min(values)
        e_high += mass * max(values)
    return UtilityIntervalChoice(choice_id, e_low, e_high)


def _breakpoints(choices: Sequence[UtilityIntervalChoice]) -> list[float]:
    points = {0.0, 1.0}
    for a_i, a in enumerate(choices):
        for b in choices[a_i + 1 :]:
            slope = (a.e_high - a.e_low) - (b.e_high - b.e_low)
            if slope == 0.0:
                continue
            x = (b.e_low - a.e_low) / slope
            if 0.0 < x < 1.0:
                points.add(x)
    return sorted(points)


def _winners_at(choices: Sequence[UtilityIntervalChoice], rho: float) -> tuple[str, ...]:
    values = [c.value_at(rho) for c in choices]
    best = max(values)
    return tuple(c.id for c, v in zip(choices, values) if v == best)


def _segmentation(points: Sequence[float], choice_ids: Sequence[str], winners_at: Callable) -> RhoSegmentation:
    """Segments between breakpoints, decided at their midpoints by ``winners_at(rho)``;
    neighbours with equal winners merge, and winners split a segment's length equally."""
    segments: list[RhoSegment] = []
    for lo, hi in zip(points, points[1:]):
        if hi - lo <= 0.0:
            continue
        winners = winners_at((lo + hi) / 2.0)
        if segments and segments[-1].winners == winners:
            segments[-1] = RhoSegment(segments[-1].lo, hi, winners)
        else:
            segments.append(RhoSegment(lo, hi, winners))
    preferences = {c: 0.0 for c in choice_ids}
    for seg in segments:
        share = (seg.hi - seg.lo) / len(seg.winners)
        for w in seg.winners:
            preferences[w] += share
    return RhoSegmentation(tuple(segments), preferences)


def rho_segmentation(choices: Sequence[UtilityIntervalChoice]) -> RhoSegmentation:
    """Upper envelope of the choices' point values over rho in [0, 1].

    Each segment is decided at its midpoint: strictly distinct lines can only
    tie at breakpoints, so the winner set is constant inside a segment and the
    boundary point belongs to the right-hand segment. Affinely identical
    winners share a segment and split its length equally.
    """
    if not choices:
        raise ValidationError("need at least one choice")
    ids = [c.id for c in choices]
    if len(set(ids)) != len(ids):
        raise ValidationError("choice ids must be unique")
    return _segmentation(_breakpoints(choices), ids, lambda rho: _winners_at(choices, rho))


def _solve(makers: Sequence[DecisionMaker], rho: float) -> tuple[list[tuple[UtilityIntervalChoice, float]], float]:
    """The subgame-perfect outcome at rho as (choice, value) per maker, and its
    table maximum, from each choice's value computed once.

    Each maker plays its earliest-listed highest value whatever earlier makers
    chose, so maker order never changes the outcome. By induction from the
    last maker, suppose every later maker plays its highest value whatever
    came before, so their values have a fixed maximum R (none for the last
    maker). With top the highest earlier value, choice i at maker t has the
    key (v_i >= max(top, v_i, R), v_i), which never falls as v_i rises, and
    max is exact on floats. So the earliest-listed highest value has the
    highest key, and every choice listed before it has a lower value and so a
    strictly lower key: maker t plays it, whatever top is.
    ``oracle.reference_play``, backward induction over the game tree, is the
    check.
    """
    outcome = []
    for m in makers:
        values = [c.value_at(rho) for c in m.choices]
        i = values.index(max(values))
        outcome.append((m.choices[i], values[i]))
    return outcome, max(v for _, v in outcome)


def _validate_game(makers: Sequence[DecisionMaker]) -> None:
    if not makers:
        raise ValidationError("need at least one decision maker")
    ids = [c.id for m in makers for c in m.choices]
    if len(set(ids)) != len(ids):
        raise ValidationError("choice ids must be unique across the game")


def check_rho(rho: float) -> None:
    """Refuse a rho outside [0, 1], with the message every command gives."""
    if not 0.0 <= rho <= 1.0:  # also refuses nan
        raise ValidationError("rho must lie in [0, 1]")


def sequential_play(makers: Sequence[DecisionMaker], rho: float) -> dict[str, str]:
    """Subgame-perfect assignment of one choice per decision maker at a fixed
    rho, solved on a value table computed once (see ``_solve``) and checked
    against ``oracle.reference_play``."""
    _validate_game(makers)
    check_rho(rho)
    outcome, _ = _solve(makers, rho)
    return {m.id: c.id for m, (c, _) in zip(makers, outcome)}


def game_preferences(makers: Sequence[DecisionMaker]) -> RhoSegmentation:
    """Competitive preference of every alternative over unknown rho.

    The solved game's outcome is piecewise constant between crossings of the
    alternatives' value lines, so each segment is played once at its midpoint,
    on a value table computed for that rho (see ``_solve``), and the winning
    (table-maximal) alternatives collect its length.
    """
    _validate_game(makers)
    all_choices = [c for m in makers for c in m.choices]

    def winners_at(rho: float) -> tuple[str, ...]:
        outcome, table_max = _solve(makers, rho)
        return tuple(c.id for c, v in outcome if v == table_max)

    return _segmentation(_breakpoints(all_choices), [c.id for c in all_choices], winners_at)
