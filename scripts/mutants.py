#!/usr/bin/env python3
"""A ledger of single-line mutants that the tests must catch.

Each mutant is data: a file, one line of it (compared without its
indentation), the line that replaces it, and the tests that must each fail
once it is applied. Every mutant changes what the program computes; a mutant
that only weakens pruning or picks between equal answers belongs in
ROADMAP.md's notes, not here.

By default the script checks that every old line occurs exactly once in its
file, so a change that moves or rewrites a mutated line shows up at once;
the suite runs it this way. With ``--run`` it copies the repository into a
temporary directory, runs every listed test on the unmutated copy (they must
pass), then applies each mutant in turn and runs its tests (each must
fail). It exits 1 if an old line is missing or repeated, if the unmutated
copy fails, or if a mutant survives.

    python scripts/mutants.py          # every old line present exactly once
    python scripts/mutants.py --run    # every mutant caught by its tests
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CLUSTER = "src/evintel/cluster.py"
SPECIFY = "src/evintel/specify.py"
DS = "src/evintel/ds.py"
DECIDE = "src/evintel/decide.py"
POSTERIOR = "src/evintel/posterior.py"
TRACKS = "src/evintel/tracks.py"
BNB = "tests/test_cluster.py::TestBranchAndBound::"
DESCENT = "tests/test_cluster.py::TestIncrementalDescent::"
MEMBERSHIP = "tests/test_specify.py::TestMembershipEvidence::"
KERNEL = "tests/test_ds.py::TestDempsterKernel::"
BEST_PATH = "tests/test_tracks.py::TestBestPathDp::"

# (file, old line, new line, tests that must each fail)
MUTANTS = [
    # the exact search cuts a node whose bound ties the incumbent
    (
        CLUSTER,
        "if bound > best_mcf:",
        "if bound >= best_mcf:",
        [BNB + "test_tie_goes_to_smallest_canonical_key[5]", DESCENT + "test_specify_and_exact_search_are_pinned"],
    ),
    # the exact search's key cut keeps nodes with larger keys and cuts smaller ones
    (
        CLUSTER,
        "if bound == best_mcf and (lo + bounds.index(bound), blocks) > best_key:",
        "if bound == best_mcf and (lo + bounds.index(bound), blocks) < best_key:",
        [BNB + "test_tie_goes_to_smallest_canonical_key[5]", BNB + "test_separable_optimum_beyond_the_first_leaf"],
    ),
    # a report joining an open block leaves the block's conflict as it was
    (
        CLUSTER,
        "child_conflicts[label] = child",
        "child_conflicts[label] = conflicts[label]",
        [
            BNB + "test_matches_enumeration",
            BNB + "test_separable_optimum_beyond_the_first_leaf",
            BNB + "test_saturated_blocks_split",
        ],
    ),
    # the descent's phase 2 stops at a bound equal to the best candidate
    (
        CLUSTER,
        "if bound > best_cand:",
        "if bound >= best_cand:",
        [
            DESCENT + "test_later_report_visited_first_loses_an_exact_tie",
            DESCENT + "test_existing_block_wins_an_exact_tie_with_the_fresh_block",
            DESCENT + "test_search_results_are_pinned",
        ],
    ),
    # a tie between the descent's candidates goes to the later move
    (
        CLUSTER,
        "if mcf - cand > IMPROVEMENT_TOL and (cand < best_cand or cand == best_cand and (j, t) < best_move):",
        "if mcf - cand > IMPROVEMENT_TOL and (cand < best_cand or cand == best_cand and (j, t) > best_move):",
        [
            DESCENT + "test_later_report_visited_first_loses_an_exact_tie",
            DESCENT + "test_existing_block_wins_an_exact_tie_with_the_fresh_block",
            DESCENT + "test_search_results_are_pinned",
        ],
    ),
    # a fold step saturates as soon as its conflict passes one half
    (
        CLUSTER,
        "if 1.0 - survival == 1.0:",
        "if 1.0 - survival > 0.5:",
        [DESCENT + "test_block_state_conflicts_match_cluster_conflict", DESCENT + "test_matches_reference_on_mixed_corpora"],
    ),
    # removing a block's last member leaves the whole block's conflict
    (
        CLUSTER,
        "c = 1.0 - self._prefix(k)[1]",
        "c = 1.0 - self._prefix(k + 1)[1]",
        [DESCENT + "test_moved_is_within_tolerance_of_the_reference", MEMBERSHIP + "test_removal_worked_example"],
    ),
    # a move to a fresh block is charged the domain conflict of the same count
    (
        SPECIFY,
        "pl[NEW_BLOCK] = fused(0.0, 0.0 if origin_empties else domain_delta(n + 1))",
        "pl[NEW_BLOCK] = fused(0.0, 0.0 if origin_empties else domain_delta(n))",
        [MEMBERSHIP + "test_domain_component_on_spawn", DESCENT + "test_specify_and_exact_search_are_pinned"],
    ),
    # a move that empties its origin is charged no domain conflict
    (
        SPECIFY,
        "d = domain_delta(n - 1) if origin_empties else 0.0",
        "d = 0.0",
        [MEMBERSHIP + "test_domain_component_on_emptying", DESCENT + "test_specify_and_exact_search_are_pinned"],
    ),
    # Dempster's step keeps the pruned masses without renormalizing them
    (
        DS,
        "kept = {bits: v / total for bits, v in kept.items()}",
        "kept = {bits: v for bits, v in kept.items()}",
        [KERNEL + "test_dust_is_pruned", DESCENT + "test_block_state_conflicts_match_cluster_conflict"],
    ),
    # the conflict-only step never falls back to the full step
    (
        DS,
        "if top * (1.0 / (1.0 - conflict)) < PRUNE_EPS:",
        "if False:",
        [KERNEL + "test_every_survivor_below_prune_eps_raises"],
    ),
    # tied winners each take a segment's whole length
    (
        DECIDE,
        "share = (hi - lo) / len(winners)",
        "share = hi - lo",
        [
            "tests/test_decide.py::TestRhoSegmentation::test_identical_choices_split",
            "tests/test_acceptance.py::test_c8_decision_module",
        ],
    ),
    # make_mass renormalizes sums that are already exact to rounding
    (
        DS,
        "if abs(total - 1.0) > len(entries) * 2**-52:",
        "if True:",
        [
            "tests/test_ds.py::TestMakeMass::test_decimal_sums_are_kept",
            DESCENT + "test_specify_and_exact_search_are_pinned",
        ],
    ),
    # the posterior's reachable mass drops the r-th count
    (
        POSTERIOR,
        "reachable = cb[0] + math.fsum(cb[1 : r + 1])",
        "reachable = cb[0] + math.fsum(cb[1:r])",
        [
            "tests/test_posterior.py::TestPosterior::test_worked_example",
            "tests/test_acceptance.py::test_c5_posterior_correctness",
        ],
    ),
    # the top-k path DP keeps one path per vertex
    (
        TRACKS,
        "ranked[j] = candidates[:top_k]",
        "ranked[j] = candidates[:1]",
        [BEST_PATH + "test_topk_matches_exhaustive", BEST_PATH + "test_strong_transition_doubt"],
    ),
    # the path DP never steps from the vertex just before j
    (
        TRACKS,
        "for i in range(1, j):",
        "for i in range(1, j - 1):",
        [BEST_PATH + "test_worked_example_best", BEST_PATH + "test_topk_matches_exhaustive"],
    ),
]


def line_counts() -> list[int]:
    """How often each mutant's old line occurs in its file."""
    return [
        sum(line.strip() == old for line in (ROOT / path).read_text(encoding="utf-8").splitlines())
        for path, old, _, _ in MUTANTS
    ]


def mutate(text: str, old: str, new: str) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.strip() == old:
            lines[i] = line[: len(line) - len(line.lstrip())] + new + "\n"
    return "".join(lines)


def failed_tests(copy: Path, tests: list[str]) -> tuple[int, set[str]]:
    """pytest's exit code on ``tests`` in ``copy``, and the ids that failed."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    return done.returncode, {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}


def run_ledger() -> bool:
    """Every listed test passes on the unmutated copy, and each mutant fails
    every one of its own."""
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out"))
        every_test = sorted({test for _, _, _, tests in MUTANTS for test in tests})
        code, _ = failed_tests(copy, every_test)
        if code != 0:
            print(f"FAIL  the unmutated code fails the listed tests (pytest exit {code})")
            return False
        for path, old, new, tests in MUTANTS:
            target = copy / path
            original = target.read_text(encoding="utf-8")
            target.write_text(mutate(original, old, new), encoding="utf-8")
            code, failed = failed_tests(copy, tests)
            target.write_text(original, encoding="utf-8")
            passed = [test for test in tests if test not in failed]
            caught = code == 1 and not passed  # 1: tests failed; another code means the run broke
            ok &= caught
            print(f"{'caught  ' if caught else 'SURVIVED'}  {path}: {old}  ->  {new}")
            for test in passed:
                print(f"          still passes: {test}")
            if code not in (0, 1):
                print(f"          pytest exit {code}")
    return ok


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", action="store_true", help="apply each mutant and run its tests")
    args = parser.parse_args()
    counts = line_counts()
    for (path, old, _, _), count in zip(MUTANTS, counts):
        if count != 1:
            print(f"FAIL  {path}: {old!r} occurs {count} times, not once")
    ok = all(count == 1 for count in counts)
    if ok:
        print(f"{len(MUTANTS)} mutants, each old line present once")
        if args.run:
            ok = run_ledger()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
