"""Expected-utility-interval decisions and the rho interpolation parameter.

A mass function over a utility-labelled frame yields an interval
[E_low, E_high] (mass times worst / best utility of each focal set). The
parameter rho in [0, 1] picks the point value E_low + rho (E_high - E_low);
which alternative is best is then piecewise constant in rho, and an
alternative's preference is the total length of rho where it wins. The same
machinery scores sequential games where each player wants to end up holding
the highest point value on the table; a plain segmentation is the game with
one maker per choice. That game is solved: whatever the other makers choose,
each maker's subgame-perfect pick is its own earliest-listed highest value at
rho (proof in ``_solve``), so maker order never changes the outcome, and a
play computes every choice's value once. ``oracle.reference_play``, backward
induction over the whole game tree with values recomputed at every node, is
the check.

``rho_segmentation`` and ``game_preferences`` return ``(segments,
preferences)``: the segments as ``(lo, hi, winners)`` tuples in rho order,
and a dict from each choice id to its preference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .ds import MassFunction, ValidationError

Segment = tuple[float, float, tuple[str, ...]]  # (lo, hi, winners); several winners only for affinely identical choices
Segmentation = tuple[tuple[Segment, ...], dict[str, float]]  # (segments, preferences)


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
class DecisionMaker:
    id: str
    choices: tuple[UtilityIntervalChoice, ...]

    def __post_init__(self):
        if not self.choices:
            raise ValidationError(f"decision maker {self.id!r} has no choices")


def expected_interval(mass: MassFunction, utilities: dict[str, float], choice_id: str = "") -> UtilityIntervalChoice:
    """[E_low, E_high]: every focal set contributes its worst / best utility,
    so every frame element needs a finite utility.

    The terms are summed in ``MassFunction.items()``'s bitmask order, so the
    interval does not depend on the order the masses were listed in."""
    for e in mass.frame.elements:
        u = utilities.get(e)
        if u is None:
            raise ValidationError(f"no utility for frame element {e!r}")
        if not math.isfinite(u):
            raise ValidationError(f"utility for {e!r} is not finite")
    e_low = 0.0
    e_high = 0.0
    for members, m in mass.items():
        values = [utilities[e] for e in members]
        e_low += m * min(values)
        e_high += m * max(values)
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


def _segmentation(choices: Sequence[UtilityIntervalChoice], winners_at: Callable) -> Segmentation:
    """Segments between the choices' breakpoints, decided at their midpoints by
    ``winners_at(rho)``: strictly distinct lines can only tie at breakpoints, so
    the winner set is constant inside a segment and the boundary point belongs
    to the right-hand segment. Neighbours with equal winners merge, and
    winners (affinely identical choices) split a segment's length equally."""
    points = _breakpoints(choices)
    segments: list[Segment] = []
    for lo, hi in zip(points, points[1:]):
        winners = winners_at((lo + hi) / 2.0)
        if segments and segments[-1][2] == winners:
            segments[-1] = (segments[-1][0], hi, winners)
        else:
            segments.append((lo, hi, winners))
    preferences = {c.id: 0.0 for c in choices}
    for lo, hi, winners in segments:
        share = (hi - lo) / len(winners)
        for w in winners:
            preferences[w] += share
    return tuple(segments), preferences


def rho_segmentation(choices: Sequence[UtilityIntervalChoice]) -> Segmentation:
    """Upper envelope of the choices' point values over rho in [0, 1]: the game
    with one maker per choice, whose table-maximal choices win each segment."""
    if not choices:
        raise ValidationError("need at least one choice")
    return game_preferences([DecisionMaker(c.id, (c,)) for c in choices])


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


def game_preferences(makers: Sequence[DecisionMaker]) -> Segmentation:
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

    return _segmentation(all_choices, winners_at)
