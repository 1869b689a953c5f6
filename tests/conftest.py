"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import difflib
from itertools import islice, product
from pathlib import Path

import pytest

from evintel.cluster import EvidenceCorpus, Report
from evintel.ds import make_mass


PINNED = Path(__file__).parent / "pinned"


def assert_pinned(name: str, data: bytes) -> None:
    """``data`` equals the checked-in file ``tests/pinned/<name>`` byte for
    byte; otherwise fail, naming the file and showing its first differing lines."""
    pinned = (PINNED / name).read_bytes()
    if data != pinned:
        old, new = (b.decode().splitlines(keepends=True) for b in (pinned, data))
        diff = difflib.unified_diff(old, new, f"tests/pinned/{name}", "this run", lineterm="", n=1)
        shown = "\n".join(line.rstrip("\r\n") for line in islice(diff, 12))
        pytest.fail(f"tests/pinned/{name} differs from this run:\n{shown}", pytrace=False)


def simple(frame, element, w):
    """A simple support function: mass w on the singleton, the rest on the frame."""
    return make_mass(frame, [((element,), w), (frame.elements, 1.0 - w)])


def corpus_of(frame, *pairs):
    return EvidenceCorpus(frame, tuple(Report(rid, m) for rid, m in pairs))


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
