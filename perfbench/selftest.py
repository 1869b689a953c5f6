#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about a minute). From the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import evintel  # noqa: E402
from evintel import cli  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NEST_TOL, Tracer, read_spans  # noqa: E402


def traced_first_set(name: str, workdir: Path):
    """The workload's first input set, traced: (results, distinct, corpora, tracer)."""
    workload = workloads.make_workload(name, 3, workdir)
    tracer = Tracer()
    tracer.install(evintel)
    try:
        results, distinct, corpora, _ = run.run_sets(workload, workload.prepare(0), 0.0, tracer)
    finally:
        tracer.uninstall()
    return results, distinct, corpora, tracer


def count_metrics(results, distinct, _corpora, tracer) -> dict:
    stats, _ = tracer.summarize()
    layer = run.per_layer(stats, results, distinct, len(results), 1.0)
    names = ("ds.combine_dempster.calls", "cluster.cluster_conflict.distinct", "tracks.combine_oracle.calls")
    return {k: layer[k][0] for k in names}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=run.OUT, prefix="selftest-"))
        cls.runs = {
            name: [traced_first_set(name, cls.tmp) for _ in range(2)] for name in run.WORKLOADS
        }

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_ops_pass_their_checks(self):
        for name, traced in self.runs.items():
            for results, *_ in traced:
                self.assertEqual([r.errors for r in results if r.errors], [], name)

    def test_ground_truth_matches_search_on_seed3_3x4(self):
        workload = workloads.make_workload("search-ladder", 3, self.tmp)
        op = workload.prepare(0)[0]
        self.assertEqual(op.label, "3x4")
        gen_path = self.tmp / "gen.json"
        cli.main(["gen", "--seed", "3", "--targets", "3", "--reports-per-target", "4",
                  "--frame-size", "6", "--out", str(gen_path)])
        self.assertEqual(op.corpus_path.read_bytes(), gen_path.read_bytes())
        result = workload.run(op)
        workload.check(op, result)
        self.assertEqual(result.errors, [])
        partition = json.loads(result.output)["partition"]
        self.assertEqual(workloads.canonical(partition), op.truth)

    def test_traced_counts_repeat_exactly(self):
        for name, traced in self.runs.items():
            counts = [count_metrics(*run_) for run_ in traced]
            if name == "track-desk":
                for c in counts:  # see test_track_desk_thread_races_only_add_combinations
                    del c["ds.combine_dempster.calls"]
            self.assertEqual(counts[0], counts[1], name)

    def test_track_desk_thread_races_only_add_combinations(self):
        """The two restart threads share the corpus's conflict cache without a
        lock; when both miss on the same block, both combine it. So on
        track-desk ds.combine_dempster.calls is not exactly repeatable, but it
        never falls below a one-thread run and exceeds it by a few calls only."""
        workload = workloads.make_workload("track-desk", 3, self.tmp)
        workload.args = ["--threads", "1", "--rho", "0.5"]
        tracer = Tracer()
        tracer.install(evintel)
        try:
            results, distinct, _, _ = run.run_sets(workload, workload.prepare(0), 0.0, tracer)
        finally:
            tracer.uninstall()
        serial = count_metrics(results, distinct, None, tracer)["ds.combine_dempster.calls"]
        for run_ in self.runs["track-desk"]:
            threaded = count_metrics(*run_)["ds.combine_dempster.calls"]
            self.assertGreaterEqual(threaded, serial)
            self.assertLessEqual(threaded, serial * 1.01)

    def test_no_two_ops_share_a_corpus_and_repeats_are_identical(self):
        for name, traced in self.runs.items():
            seen = [c for _, _, corpora, _ in traced for per_op in corpora for c in per_op]
            self.assertTrue(seen, name)
            self.assertEqual(len({id(c) for c in seen}), len(seen), name)
            first, second = ([r.output for r in results] for results, *_ in traced)
            self.assertEqual(first, second, name)

    def test_spans_nest_and_children_fit_their_parent(self):
        for name, traced in self.runs.items():
            tracer = traced[0][3]
            stats, errors = tracer.summarize()
            self.assertEqual(errors, [], name)
            cols = tracer.kept
            span = {
                sid: (t0, t1, thread)
                for sid, t0, t1, thread in zip(cols["sid"], cols["t0"], cols["t1"], cols["thread"])
            }
            self_by_parent: dict[tuple[int, int], float] = {}
            for sid, parent, s in zip(cols["sid"], cols["parent"], cols["self_s"]):
                t0, t1, thread = span[sid]
                self.assertLessEqual(s, t1 - t0 + NEST_TOL)
                if parent == 0:
                    continue
                p0, p1, p_thread = span[abs(parent)]
                self.assertEqual(parent < 0, thread != p_thread)
                self.assertGreaterEqual(t0, p0 - NEST_TOL)
                self.assertLessEqual(t1, p1 + NEST_TOL)
                key = (abs(parent), thread)
                self_by_parent[key] = self_by_parent.get(key, 0.0) + s
            for (parent, _), total in self_by_parent.items():
                p0, p1, _ = span[parent]
                self.assertLessEqual(total, p1 - p0 + NEST_TOL, name)

    def test_track_desk_worker_threads_nest_under_the_submitting_span(self):
        cols = self.runs["track-desk"][0][3].kept
        names = self.runs["track-desk"][0][3].names
        workers = {t for t, p in zip(cols["thread"], cols["parent"]) if p < 0}
        self.assertGreaterEqual(len(workers), 2)
        adopted_by = {names[n].split("@")[0] for n, p in zip(cols["name"], cols["parent"]) if p < 0}
        self.assertIn("cluster.cluster_conflict", adopted_by)
        self.assertIn("tracks.kinematic_graph", adopted_by)

    def test_spans_file_round_trip(self):
        tracer = self.runs["exhaustive-check"][0][3]
        path = self.tmp / "spans.bin.gz"
        tracer.write(path)
        names, cols = read_spans(path)
        self.assertEqual(names, tracer.names)
        self.assertEqual(cols, tracer.kept)

    def test_checks_reject_broken_outputs(self):
        workload = workloads.make_workload("track-desk", 3, self.tmp)
        op = workload.prepare(0)[0]
        result = workload.run(op)
        workload.check(op, result)
        good = json.loads(result.output)
        self.assertEqual(workloads.check_pipeline_output(op.doc, good, 25.0), [])
        block = next(b for b in good["tracks"].values() if b["best_paths"])
        path = block["best_paths"][0]
        report = good["partition"][0][0]

        def broken(edit):
            doc = copy.deepcopy(good)
            edit(doc)
            return workloads.check_pipeline_output(op.doc, doc, 25.0)

        key = next(k for k, b in good["tracks"].items() if b is block)
        self.assertTrue(broken(lambda d: d["partition"][0].pop()))
        self.assertTrue(broken(lambda d: d["partition"][1].append(report)))
        self.assertTrue(broken(lambda d: d["metaconflict"].update(mcf=d["metaconflict"]["mcf"] - 1e-6)))
        self.assertTrue(broken(lambda d: d["membership"][report]["weights"].update({"0": 2.0})))
        self.assertTrue(broken(lambda d: d["posterior"].update({"1": d["posterior"]["1"] + 0.01})))
        self.assertTrue(broken(lambda d: d["tracks"][key]["best_paths"][0].update(
            plausibility_unnorm=path["plausibility_unnorm"] * 1.001)))
        self.assertTrue(broken(lambda d: d["tracks"][key]["best_paths"][0].update(plausibility_norm=1.5)))

    def test_exhaustive_check_rejects_a_worse_oracle(self):
        workload = workloads.make_workload("exhaustive-check", 3, self.tmp)
        op = workload.prepare(0)[0]
        result = workload.run(op)
        ids, truth, searched, (best_part, best) = op.outcome
        worse = type(best)(best.c0, best.cluster_conflicts, searched[1].mcf + 1e-6)
        op.outcome = (ids, truth, searched, (best_part, worse))
        workload.check(op, result)
        self.assertTrue(any("above search mcf" in e for e in result.errors))

    def test_exits_nonzero_without_the_package(self):
        bare = self.tmp / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "search-ladder", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
