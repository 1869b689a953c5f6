#!/usr/bin/env python3
"""Sweep rho over a two-player sequential game and show how the winning
alternative and the competitive preferences change."""

import argparse

from evintel.decide import DecisionMaker, UtilityIntervalChoice, game_preferences, sequential_play


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=11)
    args = parser.parse_args()

    makers = [
        DecisionMaker("first", (UtilityIntervalChoice("X", 0.2, 0.9),)),
        DecisionMaker(
            "second",
            (UtilityIntervalChoice("Y", 0.4, 0.6), UtilityIntervalChoice("Z", 0.0, 1.0)),
        ),
    ]

    print("rho    first  second")
    for k in range(args.steps):
        rho = k / (args.steps - 1)
        play = sequential_play(makers, rho)
        print(f"{rho:4.2f}   {play['first']:<5}  {play['second']}")

    segments, preferences = game_preferences(makers)
    print("\nwinning intervals:")
    for lo, hi, winners in segments:
        print(f"  [{lo:.4f}, {hi:.4f}] -> {' '.join(winners)}")
    print("preferences over unknown rho:")
    for cid, pref in sorted(preferences.items()):
        print(f"  {cid}: {pref:.4f}")


if __name__ == "__main__":
    main()
