"""Shared strategies, generators and brute-force oracles for the test suite."""

from __future__ import annotations

from itertools import product

from hypothesis import strategies as st

from evintel.cluster import EvidenceCorpus, Report
from evintel.ds import Frame, make_mass

ABCD = Frame(("a", "b", "c", "d"))


def simple(frame, element, w):
    """A simple support function: mass w on the singleton, the rest on the frame."""
    return make_mass(frame, [((element,), w), (frame.elements, 1.0 - w)])


def corpus_of(frame, *pairs):
    return EvidenceCorpus(frame, tuple(Report(rid, m) for rid, m in pairs))


@st.composite
def mass_entries(draw, frame: Frame = ABCD, max_focals: int = 3):
    """Weights for a few random focal sets plus a guaranteed frame remainder."""
    n = draw(st.integers(1, max_focals))
    subsets = []
    for _ in range(n):
        members = draw(
            st.lists(st.sampled_from(frame.elements), min_size=1, unique=True)
        )
        subsets.append(tuple(sorted(members)))
    weights = draw(
        st.lists(st.floats(0.01, 1.0), min_size=len(subsets), max_size=len(subsets))
    )
    theta = draw(st.floats(0.05, 1.0))
    total = sum(weights) + theta
    entries = [(s, w / total) for s, w in zip(subsets, weights)]
    entries.append((frame.elements, theta / total))
    return entries


@st.composite
def masses(draw, frame: Frame = ABCD, max_focals: int = 3):
    return make_mass(frame, draw(mass_entries(frame, max_focals)))


# --- sequential-game oracles (strategy tables over explicit histories) -------


def play_profile(makers, profile):
    """Outcome of strategy tables: profile[t] maps a history tuple to a choice index."""
    history = ()
    outcome = []
    for t, maker in enumerate(makers):
        idx = profile[t][history]
        outcome.append(maker.choices[idx])
        history = history + (idx,)
    return tuple(outcome)


def histories_for(makers, t):
    return list(product(*(range(len(m.choices)) for m in makers[:t])))


def objective_key(own_value, outcome_values):
    return (own_value >= max(outcome_values), own_value)


def continuation(makers, profile, history, t):
    """Play out levels t.. with `history` fixed, following the strategy tables."""
    outcome = [makers[s].choices[history[s]] for s in range(t)]
    h = history
    for s in range(t, len(makers)):
        idx = profile[s][h]
        outcome.append(makers[s].choices[idx])
        h = h + (idx,)
    return tuple(outcome)


def is_spe(makers, profile, rho):
    """One-shot-deviation check with the lexicographic objective at every history."""
    for t, maker in enumerate(makers):
        for history in histories_for(makers, t):
            keys = []
            for a in range(len(maker.choices)):
                outcome = continuation(makers, profile, history + (a,), t + 1)
                values = [c.value_at(rho) for c in outcome]
                keys.append(objective_key(maker.choices[a].value_at(rho), values))
            best = max(keys)
            optimal = min(a for a, k in enumerate(keys) if k == best)
            if profile[t][history] != optimal:
                return False
    return True


def spe_by_profile_enumeration(makers, rho):
    """Filter every strategy profile by one-shot deviations; the tie rules make
    the equilibrium unique. Exponential in histories; only for tiny games."""
    tables_per_maker = []
    for t, maker in enumerate(makers):
        hs = histories_for(makers, t)
        tables = [
            dict(zip(hs, assignment))
            for assignment in product(range(len(maker.choices)), repeat=len(hs))
        ]
        tables_per_maker.append(tables)
    solutions = []
    for profile in product(*tables_per_maker):
        if is_spe(makers, profile, rho):
            solutions.append(play_profile(makers, profile))
    assert len({tuple(c.id for c in s) for s in solutions}) == 1
    return solutions[0]
