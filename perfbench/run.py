#!/usr/bin/env python3
"""Desk benchmark for evintel: one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload search-ladder --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last stdout line holds the end-to-end metrics declared in
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. Lines before it are a readable report. Each run also
writes ``perfbench/out/result-<workload>-seed<seed>-trace<t>.json`` with a
provenance record; a traced run writes its spans to
``perfbench/out/spans-<workload>.bin.gz`` (the spans of its first input
set; later sets are folded into totals as each op ends, to bound memory).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5  # setup_s is the median of this many cold set-ups
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with this many ops beyond it
WORKLOADS = ("search-ladder", "track-desk", "exhaustive-check")


def git_commit() -> str | None:
    """HEAD of the checkout's own repository, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def cold_setup(name: str, seed: int, workdir: Path):
    """Import the package from source and write the first input set, timed.

    Bytecode is neither read from nor written to ``src/`` beforehand, so each
    set-up compiles the package as a fresh checkout does.
    """
    for mod in [m for m in sys.modules if m.split(".")[0] in ("evintel", "workloads")]:
        del sys.modules[mod]
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workload = workloads.make_workload(name, seed, workdir)
    first = workload.prepare(0)
    return time.perf_counter() - start, workload, first


def run_sets(workload, first, seconds: float, tracer=None):
    """Closed loop over whole input sets until ``seconds`` have passed.

    Returns (op results, distinct conflict blocks per op, corpora per op, sets run).
    """
    results, distinct, corpora = [], [], []
    start = time.perf_counter()
    ops, k = first, 0
    while True:
        for op in ops:
            if tracer is None:
                result = workload.run(op)
            else:
                tracer.op = len(results)
                tracer.enabled = True
                result = tracer.span("bench.op", workload.run, op)
                tracer.enabled = False
                n_blocks, seen = tracer.end_op(keep=k == 0)
                distinct.append(n_blocks)
                corpora.append(seen)
            workload.check(op, result)
            results.append(result)
        k += 1
        if time.perf_counter() - start >= seconds:
            return results, distinct, corpora, k
        ops = workload.prepare(k)


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def end_to_end(results, setup_s: float) -> dict:
    """Every end-to-end metric: (value or None where it does not apply, unit, note)."""
    latencies = sorted(r.seconds for r in results)
    n = len(latencies)
    if n > TAIL_BEYOND:
        tail, pct, beyond = latencies[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    else:
        tail, pct, beyond = latencies[-1], 100.0, 0
    ok = [r for r in results if not r.errors]
    failed = n - len(ok)
    tracked = sum(r.tracked_blocks for r in ok)
    with_truth = [r.truth for r in ok if r.truth is not None]
    agree = [r.agree for r in ok if r.agree is not None]
    return {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPS} set-ups"),
        "reports_per_s": (sum(r.reports for r in results) / sum(latencies), "1/s", f"{n} ops"),
        "op_p50_s": (statistics.median(latencies), "s", f"n={n}"),
        "op_tail_s": (tail, "s", f"p{pct:.1f}, {beyond} of {n} ops beyond"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "own process"),
        "error_rate": (failed / n, "fraction", f"{failed} of {n} ops failed"),
        "mcf_mean": (_mean(r.mcf for r in ok), "fraction", f"{len(ok)} partitions"),
        "truth_recovered": (_mean(with_truth), "fraction", f"{len(with_truth)} corpora with targets"),
        "norm_coverage": (
            sum(r.normalized_blocks for r in ok) / tracked if tracked else None,
            "fraction",
            f"{tracked} tracked blocks",
        ),
        "oracle_agree": (_mean(agree), "fraction", f"{len(agree)} ops compared"),
    }


def per_layer(stats: dict, results, distinct, n_first: int, overhead: float) -> dict:
    """Per-layer metrics. Counts are per op over the first input set, which
    every run processes identically; times are seconds per op over all traced ops."""
    first, every = range(n_first), range(len(results))

    def total(fn: str, ops, field: int, site: str | None = None) -> float:
        ops = set(ops)
        return sum(
            v[field]
            for (name, op), v in stats.items()
            if op in ops and name.split("@")[0] == fn and (site is None or name.endswith("@" + site))
        )

    def calls(fn: str, site: str | None = None) -> float:
        return total(fn, first, 0, site) / n_first

    def secs(*fns: str, field: int = 1) -> float:
        return sum(total(fn, every, field) for fn in fns) / len(results)

    cc_calls = total("cluster.cluster_conflict", first, 0)
    cc_distinct = sum(distinct[:n_first])
    cd_calls = total("ds.combine_dempster", first, 0)
    return {
        "ds.combine_dempster.calls": (cd_calls / n_first, "count"),
        "ds.combine_dempster.self_s": (secs("ds.combine_dempster", field=2), "s"),
        "cluster.partition_search.s": (secs("cluster.partition_search"), "s"),
        "cluster.cluster_conflict.calls": (cc_calls / n_first, "count"),
        "cluster.cluster_conflict.distinct": (cc_distinct / n_first, "count"),
        "cluster.conflict_hit_ratio": ((cc_calls - cc_distinct) / cc_calls if cc_calls else 0.0, "ratio"),
        "cluster.combines_per_block": (cd_calls / cc_distinct if cc_distinct else 0.0, "ratio"),
        "cluster.exhaustive_search.s": (secs("cluster.exhaustive_search"), "s"),
        "cluster.saturated_blocks": (sum(r.saturated_blocks for r in results[:n_first]) / n_first, "count"),
        "specify.specify_corpus.s": (secs("specify.specify_corpus"), "s"),
        "specify.cluster_conflict.calls": (calls("cluster.cluster_conflict", "specify"), "count"),
        "posterior.s": (secs("posterior.subset_support", "posterior.counting_bpa", "posterior.posterior_distribution"), "s"),
        "tracks.combine_oracle.calls": (calls("tracks.combine_oracle"), "count"),
        "tracks.combine_oracle.s": (secs("tracks.combine_oracle"), "s"),
        "tracks.best_path_dp.s": (secs("tracks.best_path_dp"), "s"),
        "tracks.kinematic_graph.s": (secs("tracks.kinematic_graph"), "s"),
        "tracks.graph_vertices_max": (max(r.max_vertices for r in results[:n_first]), "count"),
        "decide.game_preferences.s": (secs("decide.game_preferences"), "s"),
        "decide.sequential_play.s": (secs("decide.sequential_play"), "s"),
        "pipeline.parse_document.s": (secs("pipeline.parse_document"), "s"),
        "pipeline.parse_decision.s": (secs("pipeline.parse_decision"), "s"),
        "pipeline.result_to_json.s": (secs("pipeline.result_to_json"), "s"),
        "pipeline.render_json.s": (secs("pipeline.render_json"), "s"),
        "pipeline.run_pipeline.self_s": (secs("pipeline.run_pipeline", field=2), "s"),
        "trace.overhead": (overhead, "ratio"),
    }


def self_time_ranking(stats: dict, n_ops: int, top: int = 6) -> list[list]:
    by_fn: dict[str, float] = {}
    for (name, _), (_, _, self_s) in stats.items():
        fn = name.split("@")[0]
        by_fn[fn] = by_fn.get(fn, 0.0) + self_s
    ranked = sorted(by_fn.items(), key=lambda kv: -kv[1])[:top]
    return [[fn, s / n_ops] for fn, s in ranked]


def rung_summary(results) -> dict:
    rungs: dict[str, list[float]] = {}
    for r in results:
        rungs.setdefault(r.label, []).append(r.seconds)
    return {label: {"ops": len(v), "median_s": statistics.median(v)} for label, v in rungs.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result document (without printing it)."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        times = []
        for _ in range(SETUP_REPS):  # keep only the last set-up's objects alive
            elapsed, workload, first = cold_setup(name, seed, workdir)
            times.append(elapsed)
        setup_s = statistics.median(times)
        doc = {"workload": name, "trace": int(trace)}
        if trace:
            results, sets, traced = traced_run(name, workload, first, seconds)
            doc.update(traced)
        else:
            results, _, _, sets = run_sets(workload, first, seconds)
            doc["metrics"] = {
                k: {"value": v, "unit": u, "note": note}
                for k, (v, u, note) in end_to_end(results, setup_s).items()
            }
        doc["sets"] = sets
        doc["attempted"] = len(results)
        doc["failed"] = sum(1 for r in results if r.errors)
        doc["errors"] = [f"{r.label}: {e}" for r in results for e in r.errors][:20]
        doc["rungs"] = rung_summary(results)
        doc["provenance"] = {
            "commit": git_commit(),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "workload_seed": seed,
            "seconds": seconds,
            "ops": {name: len(results)},
        }
        return doc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(name, workload, first, seconds):
    """Untraced pass over the first set (reference for overhead and output),
    then the traced closed loop over the same first set and onwards.

    Returns (all op results, sets traced, result-document entries).
    """
    import evintel
    from spans import Tracer

    reference, _, _, _ = run_sets(workload, first, 0.0)
    tracer = Tracer()
    tracer.install(evintel)
    try:
        results, distinct, corpora, sets = run_sets(workload, workload.prepare(0), seconds, tracer)
    finally:
        tracer.uninstall()
    n_first = len(reference)
    errors = [
        f"{r.label}: traced output differs from untraced output"
        for r, ref in zip(results, reference)
        if r.output != ref.output
    ]
    stats, nesting = tracer.summarize()
    errors += nesting
    if len({id(c) for seen in corpora for c in seen}) != sum(len(seen) for seen in corpora):
        errors.append("two ops shared a corpus object")
    tracer.write(OUT / f"spans-{name}.bin.gz")
    ref_rate = sum(r.reports for r in reference) / sum(r.seconds for r in reference)
    traced_rate = sum(r.reports for r in results[:n_first]) / sum(r.seconds for r in results[:n_first])
    layer = per_layer(stats, results, distinct, n_first, traced_rate / ref_rate)
    return reference + results, sets, {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "self_time_top": self_time_ranking(stats, len(results)),
        "reference_ops": n_first,
        "trace_errors": errors,
    }


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def report(doc: dict) -> str:
    prov = doc["provenance"]
    lines = [
        f"evintel desk benchmark: {doc['workload']}, seed {prov['workload_seed']}, "
        f"{doc['attempted']} ops in {doc['sets']} input sets, trace {doc['trace']}, "
        f"commit {prov['commit'] or 'unknown'}, {prov['python']}, nproc {prov['nproc']}"
    ]
    for key, m in doc["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {key:<36} {value:>12} {m['unit']:<9} {m.get('note', '')}")
    for label, r in doc["rungs"].items():
        lines.append(f"  rung {label:<16} {r['ops']:>4} ops, median {r['median_s']:.4f} s")
    for fn, s in doc.get("self_time_top", []):
        lines.append(f"  self time {fn:<32} {s:.5f} s/op")
    for e in doc["errors"] + doc.get("trace_errors", []):
        lines.append(f"  ERROR {e}")
    return "\n".join(lines)


def final_line(doc: dict, trace: bool) -> dict:
    correct = doc["failed"] == 0 and not doc.get("trace_errors")
    metrics = {}
    for spec in declared_metrics(trace):
        m = doc["metrics"][spec["name"]]
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    return {"correct": correct, "attempted": doc["attempted"], "failed": doc["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's own."""
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, m in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=3, help="workload seed; 3 gives the ROADMAP ladder")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evintel" / "__init__.py").is_file():
        print(f"error: no evintel package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = final_line(doc, bool(args.trace))
    doc["correct"] = line["correct"]
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(report(doc))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
