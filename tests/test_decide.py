import random

import pytest

from evintel import oracle
from evintel.decide import (
    DecisionMaker,
    UtilityIntervalChoice,
    expected_interval,
    game_preferences,
    rho_segmentation,
    sequential_play,
)
from evintel.ds import Frame, ValidationError, make_mass, vacuous

UTIL_FRAME = Frame(("lo", "mid", "hi"))
UTILS = {"lo": 0.0, "mid": 0.5, "hi": 1.0}


def choice(cid, lo, hi):
    return UtilityIntervalChoice(cid, lo, hi)


class TestExpectedInterval:
    def test_worked_example(self):
        m = make_mass(UTIL_FRAME, [(("mid",), 0.6), (("lo", "hi"), 0.4)])
        c = expected_interval(m, UTILS, "c")
        assert c.e_low == pytest.approx(0.3)
        assert c.e_high == pytest.approx(0.7)

    def test_bayesian_collapses(self):
        m = make_mass(UTIL_FRAME, [(("lo",), 0.25), (("mid",), 0.25), (("hi",), 0.5)])
        c = expected_interval(m, UTILS)
        assert c.e_low == c.e_high == pytest.approx(0.625)

    def test_interval_does_not_depend_on_listing_order(self):
        # summed in listing order, 0.7 + 0.2 + 0.1 gives 0.9999999999999999
        frame = Frame(("good", "bad", "draw"))
        listed = [(("draw",), 0.7), (("bad",), 0.2), (("good",), 0.1)]
        utilities = dict.fromkeys(frame.elements, 1.0)
        for entries in (listed, listed[::-1]):
            c = expected_interval(make_mass(frame, entries), utilities)
            assert c.e_low == c.e_high == 1.0

    def test_vacuous_spans_utilities(self):
        c = expected_interval(vacuous(UTIL_FRAME), UTILS)
        assert (c.e_low, c.e_high) == (0.0, 1.0)

    def test_low_above_high_rejected(self):
        with pytest.raises(ValidationError, match="choice 'A': e_low 0.6 > e_high 0.5"):
            choice("A", 0.6, 0.5)

    def test_missing_utility(self):
        with pytest.raises(ValidationError, match="no utility"):
            expected_interval(vacuous(UTIL_FRAME), {"lo": 0.0, "mid": 0.5})


class TestRhoSegmentation:
    def test_crossover_example(self):
        segments, preferences = rho_segmentation([choice("A", 0.2, 0.9), choice("B", 0.4, 0.6)])
        assert len(segments) == 2
        assert segments[0][2] == ("B",)
        assert segments[0][1] == pytest.approx(0.4, abs=1e-12)
        assert segments[1][2] == ("A",)
        assert preferences["A"] == pytest.approx(0.6, abs=1e-12)
        assert preferences["B"] == pytest.approx(0.4, abs=1e-12)

    def test_strict_dominance(self):
        _, preferences = rho_segmentation([choice("A", 0.5, 0.6), choice("B", 0.1, 0.2)])
        assert preferences == {"A": 1.0, "B": 0.0}

    def test_identical_choices_split(self):
        segments, preferences = rho_segmentation([choice("A", 0.3, 0.8), choice("B", 0.3, 0.8)])
        assert preferences["A"] == pytest.approx(0.5)
        assert preferences["B"] == pytest.approx(0.5)
        assert segments[0][2] == ("A", "B")

    def test_single_choice(self):
        assert rho_segmentation([choice("only", 0.2, 0.4)]) == (((0.0, 1.0, ("only",)),), {"only": 1.0})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            rho_segmentation([choice("A", 0, 1), choice("A", 0, 1)])

    def test_no_choices_rejected(self):
        with pytest.raises(ValidationError, match="need at least one choice"):
            rho_segmentation([])

    def test_preferences_sum_to_one(self):
        rng = random.Random(4)
        for _ in range(50):
            cs = []
            for i in range(rng.randint(1, 6)):
                a, b = sorted((rng.random(), rng.random()))
                cs.append(choice(f"c{i}", a, b))
            segments, preferences = rho_segmentation(cs)
            assert sum(preferences.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0.0 for p in preferences.values())
            assert segments[0][0] == 0.0
            assert segments[-1][1] == 1.0
            assert all(lo < hi for lo, hi, _ in segments)
            for s, t in zip(segments, segments[1:]):
                assert s[1] == t[0]

    def test_shift_invariance_of_winner_map(self):
        rng = random.Random(6)
        for _ in range(20):
            cs = []
            for i in range(rng.randint(2, 4)):
                a, b = sorted((rng.random(), rng.random()))
                cs.append(choice(f"c{i}", a, b))
            shifted = [choice(c.id, c.e_low + 0.37, c.e_high + 0.37) for c in cs]
            a, _ = rho_segmentation(cs)
            b, _ = rho_segmentation(shifted)
            assert [s[2] for s in a] == [s[2] for s in b]


class TestSequentialPlay:
    def test_single_maker_plays_argmax(self):
        dm = DecisionMaker("solo", (choice("A", 0.2, 0.4), choice("B", 0.1, 0.9)))
        assert sequential_play([dm], 0.0) == {"solo": "A"}
        assert sequential_play([dm], 1.0) == {"solo": "B"}

    def test_worked_example_high_rho(self):
        dm1 = DecisionMaker("DM1", (choice("X", 0.2, 0.9),))
        dm2 = DecisionMaker("DM2", (choice("Y", 0.4, 0.6), choice("Z", 0.0, 1.0)))
        assert sequential_play([dm1, dm2], 0.9) == {"DM1": "X", "DM2": "Z"}

    def test_worked_example_mid_rho(self):
        dm1 = DecisionMaker("DM1", (choice("X", 0.2, 0.9),))
        dm2 = DecisionMaker("DM2", (choice("Y", 0.4, 0.6), choice("Z", 0.0, 1.0)))
        assert sequential_play([dm1, dm2], 0.5) == {"DM1": "X", "DM2": "Y"}

    def test_rho_out_of_range(self):
        dm = DecisionMaker("solo", (choice("A", 0.2, 0.4),))
        with pytest.raises(ValidationError):
            sequential_play([dm], 1.5)

    def test_duplicate_choice_ids_across_makers(self):
        dm1 = DecisionMaker("a", (choice("X", 0, 1),))
        dm2 = DecisionMaker("b", (choice("X", 0, 1),))
        with pytest.raises(ValidationError, match="unique"):
            sequential_play([dm1, dm2], 0.5)


class TestGamePreferences:
    def test_maker_without_choices_rejected(self):
        with pytest.raises(ValidationError, match="decision maker 'dm' has no choices"):
            DecisionMaker("dm", ())

    def test_no_makers_rejected(self):
        with pytest.raises(ValidationError, match="need at least one decision maker"):
            game_preferences([])

    def test_single_maker_reduces_to_segmentation(self):
        cs = (choice("A", 0.2, 0.9), choice("B", 0.4, 0.6))
        game = game_preferences([DecisionMaker("solo", cs)])
        assert game == rho_segmentation(list(cs))

    def test_preferences_sum_to_one(self):
        rng = random.Random(41)
        for _ in range(25):
            makers = oracle.random_game(rng, 3, 3, tie_share=0.0)
            _, prefs = game_preferences(makers)
            assert sum(prefs.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0.0 for v in prefs.values())

    def test_worked_example_lengths(self):
        dm1 = DecisionMaker("DM1", (choice("X", 0.2, 0.9),))
        dm2 = DecisionMaker("DM2", (choice("Y", 0.4, 0.6), choice("Z", 0.0, 1.0)))
        _, preferences = game_preferences([dm1, dm2])
        # X = 0.2 + 0.7r, Y = 0.4 + 0.2r, Z = r. Below the X/Y crossing at 0.4,
        # Y holds the table; X wins until Z overtakes it at 0.2 + 0.7r = r.
        assert preferences["Y"] == pytest.approx(0.4, abs=1e-9)
        assert preferences["X"] == pytest.approx(0.2 / 0.3 - 0.4, abs=1e-9)
        assert preferences["Z"] == pytest.approx(1.0 - 0.2 / 0.3, abs=1e-9)

    def test_grid_agreement(self):
        rng = random.Random(43)
        grid = 4000
        for _ in range(6):
            makers = oracle.random_game(rng, 3, 3, tie_share=0.0)
            _, prefs = game_preferences(makers)
            counts = dict.fromkeys(prefs, 0.0)
            for k in range(grid):
                rho = (k + 0.5) / grid
                assignment = sequential_play(makers, rho)
                values = {
                    cid: c.value_at(rho)
                    for m in makers
                    for c in m.choices
                    for cid in [c.id]
                    if assignment[m.id] == c.id
                }
                best = max(values.values())
                winners = [cid for cid, v in values.items() if v == best]
                for w in winners:
                    counts[w] += 1.0 / (grid * len(winners))
            for cid in prefs:
                assert prefs[cid] == pytest.approx(counts[cid], abs=2e-3)


def full_game(rng, n_makers, n_choices):
    """``n_makers`` makers with ``n_choices`` random intervals each."""
    return [
        DecisionMaker(
            f"dm{t}",
            tuple(choice(f"c{t}_{i}", *sorted((rng.random(), rng.random()))) for i in range(n_choices)),
        )
        for t in range(n_makers)
    ]


class TestGameSolver:
    def test_matches_reference_play_on_tie_heavy_games(self):
        result = oracle.check_game_solver(71, 2000)
        assert result.ok, result

    def test_eight_makers_match_reference_play(self):
        makers = full_game(random.Random(73), 8, 4)
        for rho in (0.0, 0.25, 0.5, 0.8, 1.0):
            want = oracle.reference_play(makers, 0, [], rho)
            assert sequential_play(makers, rho) == {m.id: c.id for m, c in zip(makers, want)}

    def test_eight_makers_game_preferences_in_full(self):
        # 4^8 histories at each of 188 midpoints: close to a minute by
        # reference_play, which here plays only the merged segments.
        makers = full_game(random.Random(73), 8, 4)
        segments, preferences = game_preferences(makers)
        assert sum(preferences.values()) == pytest.approx(1.0, abs=1e-9)
        assert segments[0][0] == 0.0 and segments[-1][1] == 1.0
        for (_, hi, winners), (lo, _, next_winners) in zip(segments, segments[1:]):
            assert hi == lo and winners != next_winners
        for lo, hi, winners in segments:
            rho = (lo + hi) / 2.0
            outcome = oracle.reference_play(makers, 0, [], rho)
            table_max = max(c.value_at(rho) for c in outcome)
            assert winners == tuple(c.id for c in outcome if c.value_at(rho) == table_max)

    def test_random_game_makes_ties(self):
        rng = random.Random(75)
        games = [oracle.random_game(rng, 4, 4, tie_share=0.5) for _ in range(200)]
        intervals = [(c.e_low, c.e_high) for g in games for m in g for c in m.choices]
        assert any(len(m.choices) == 1 for g in games for m in g)
        assert any(lo == hi for lo, hi in intervals)
        assert len(set(intervals)) < len(intervals)
        assert any(len(winners) > 1 for g in games for _, _, winners in game_preferences(g)[0])
