"""The three benchmark workloads: seeded inputs, one timed op per input, output checks.

Every op gets an input no other op has seen: pipeline ops parse a freshly
written corpus file, exhaustive ops build fresh corpus objects. The conflict
cache on ``EvidenceCorpus`` and the oracle cache on ``TrackGraph`` are
therefore always cold, as they are for a user running the CLI once.

Inputs come in *sets*: set ``k`` of workload seed ``s`` is generated from
scenario seed ``s + k * SEED_STRIDE``, so set 0 of seed 3 is exactly the
ladder ``evintel gen --seed 3`` produces. A run always finishes whole sets,
which keeps the mix of rungs in every run the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from evintel import cli, cluster, ds, oracle, tracks
from evintel.pipeline import P_CAP
from evintel.scenario import ScenarioConfig, generate_scenario, generate_scenario_doc, target_focals

SEED_STRIDE = 100_003
COPY_STRIDE = 7_919
MCF_TOL = 1e-12  # mcf against its formula from the reported conflicts
SUM_TOL = 1e-9  # membership weights and posterior against 1
RANGE_TOL = 1e-12  # slack on [0, 1] for normalized plausibility
UNNORM_TOL = 1e-12  # relative, reported against recomputed plausibility_unnorm
AGREE_TOL = 1e-9  # search mcf against exhaustive mcf for oracle_agree
ANALYSIS_VMAX = 25.0  # the CLI's --vmax default; no workload overrides it


@dataclass
class OpResult:
    label: str
    reports: int
    seconds: float
    errors: list[str] = field(default_factory=list)
    mcf: float | None = None
    truth: bool | None = None  # None: the input has no target grouping
    tracked_blocks: int = 0
    normalized_blocks: int = 0
    saturated_blocks: int = 0
    agree: bool | None = None  # exhaustive-check only
    max_vertices: int = 0  # largest tracked block
    output: str = ""  # what a repeat of the op must reproduce exactly


def canonical(blocks) -> list[list[str]]:
    return sorted(sorted(b) for b in blocks)


def truth_grouping(doc: dict, cfg: ScenarioConfig) -> list[list[str]]:
    """Target grouping of a generated corpus: a report's first focal set names its target."""
    owner = {frozenset(f): t for t, f in enumerate(target_focals(cfg))}
    groups: dict[int, list[str]] = {}
    for r in doc["reports"]:
        groups.setdefault(owner[frozenset(r["masses"][0]["set"])], []).append(r["id"])
    return canonical(groups.values())


def _theta(report: dict, frame: set[str]) -> float:
    """Mass on the whole frame, summed in file order as make_mass merges it."""
    total = 0.0
    for m in report["masses"]:
        if set(m["set"]) == frame:
            total += m["mass"]
    return total


def rebuild_graph(doc: dict, report_ids: list[str], v_max_kmh: float) -> tracks.TrackGraph:
    """The track graph of one block, built from the input file, not from the program's objects."""
    by_id = {r["id"]: r for r in doc["reports"]}
    frame = set(doc["frame"])
    reports = [by_id[rid] for rid in report_ids]
    vertices = [
        tracks.TrackVertex(rank, r["time"], tuple(r["pos"])) for rank, r in enumerate(reports, 1)
    ]
    p = [min(1.0 - _theta(r, frame), P_CAP) for r in reports]
    return tracks.kinematic_graph(vertices, p, v_max_kmh, tracks.DEFAULT_Q_CAP)


def check_partition(ids: list[str], blocks, c0: float, conflicts, mcf: float) -> list[str]:
    errors = []
    flat = [rid for b in blocks for rid in b]
    if len(flat) != len(set(flat)) or sorted(flat) != sorted(ids):
        errors.append("partition does not cover the corpus exactly once")
    expected = 1.0 - (1.0 - c0) * math.prod(1.0 - c for c in conflicts)
    if abs(expected - mcf) > MCF_TOL:
        errors.append(f"mcf {mcf!r} differs from its formula {expected!r}")
    return errors


def check_pipeline_output(doc: dict, res: dict, v_max_kmh: float) -> list[str]:
    """Invariants of one pipeline result; golden outputs are avoided on purpose,
    because a better search legitimately changes partitions."""
    mc = res["metaconflict"]
    ids = [r["id"] for r in doc["reports"]]
    errors = check_partition(ids, res["partition"], mc["c0"], mc["clusters"], mc["mcf"])
    for rid, entry in res["membership"].items():
        total = math.fsum(entry["weights"].values())
        if abs(total - 1.0) > SUM_TOL:
            errors.append(f"membership weights of {rid} sum to {total!r}")
    total = math.fsum(res["posterior"].values())
    if abs(total - 1.0) > SUM_TOL:
        errors.append(f"posterior sums to {total!r}")
    for key, block in res["tracks"].items():
        if not block["reports"]:
            continue
        graph = rebuild_graph(doc, block["reports"], v_max_kmh)
        for entry in block["best_paths"]:
            path = tuple(entry["vertices"])
            expected = tracks.path_plausibility_unnorm(graph, path)
            if abs(entry["plausibility_unnorm"] - expected) > UNNORM_TOL * max(expected, 1e-300):
                errors.append(f"block {key} path {path}: plausibility_unnorm {entry['plausibility_unnorm']!r} != {expected!r}")
            norm = entry.get("plausibility_norm")
            if norm is not None and not -RANGE_TOL <= norm <= 1.0 + RANGE_TOL:
                errors.append(f"block {key} path {path}: plausibility_norm {norm!r} outside [0, 1]")
    return errors


def _decision_section(rng: random.Random) -> dict:
    """4 makers x 4 choices over 4 utility-labelled outcomes."""
    outcomes = ["u1", "u2", "u3", "u4"]
    utilities = {o: rng.uniform(0.0, 1.0) for o in outcomes}
    makers = []
    for m in range(1, 5):
        choices = []
        for c in range(1, 5):
            weights = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 3))]
            total = sum(weights)
            masses = [
                {"set": sorted(rng.sample(outcomes, rng.randint(1, 3))), "mass": w / total}
                for w in weights
            ]
            choices.append({"id": f"m{m}c{c}", "masses": masses})
        makers.append({"id": f"m{m}", "choices": choices})
    return {"utilities": utilities, "makers": makers}


@dataclass
class PipelineOp:
    label: str
    doc: dict
    truth: list[list[str]]
    corpus_path: Path
    out_path: Path


class PipelineWorkload:
    """One op = ``evintel pipeline <corpus> --out <file> [args]`` in-process, stdout captured."""

    def __init__(self, seed: int, workdir: Path, rungs, scenario_kw: dict, args: list[str], decision: bool):
        self.seed = seed
        self.workdir = workdir
        self.rungs = rungs
        self.scenario_kw = scenario_kw
        self.args = args
        self.decision = decision

    def prepare(self, k: int) -> list[PipelineOp]:
        """Generate and write set ``k``; a rung listed twice gets a second corpus."""
        ops = []
        for i, (targets, per_target) in enumerate(self.rungs):
            label = f"{targets}x{per_target}"
            copy = self.rungs[:i].count((targets, per_target))
            seed = self.seed + k * SEED_STRIDE + copy * COPY_STRIDE
            cfg = ScenarioConfig(
                seed=seed,
                targets=targets,
                reports_per_target=per_target,
                frame_size=max(6, targets),
                **self.scenario_kw,
            )
            doc = generate_scenario_doc(cfg)
            if self.decision:
                doc["decision"] = _decision_section(random.Random(f"decision:{seed}:{label}"))
                text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            else:
                text = generate_scenario(cfg)  # byte-identical to `evintel gen`
            path = self.workdir / f"set{k}-{i}-{label}.json"
            path.write_text(text, encoding="utf-8")
            out = self.workdir / f"set{k}-{i}-{label}.out.json"
            ops.append(PipelineOp(label, doc, truth_grouping(doc, cfg), path, out))
        return ops

    def run(self, op: PipelineOp) -> OpResult:
        """The timed op; ``check`` reads and verifies its output afterwards."""
        argv = ["pipeline", str(op.corpus_path), "--out", str(op.out_path), *self.args]
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed op is counted, not raised
            code = f"raised {exc!r}"
        result = OpResult(op.label, len(op.doc["reports"]), time.perf_counter() - start)
        if code != 0:
            result.errors.append(f"exit {code}: {stderr.getvalue().strip()[:200]}")
        return result

    def check(self, op: PipelineOp, result: OpResult) -> None:
        if result.errors:
            return
        result.output = op.out_path.read_text(encoding="utf-8")
        op.corpus_path.unlink()
        op.out_path.unlink()
        res = json.loads(result.output)
        result.errors = check_pipeline_output(op.doc, res, ANALYSIS_VMAX)
        result.mcf = res["metaconflict"]["mcf"]
        result.truth = canonical(res["partition"]) == op.truth
        result.saturated_blocks = sum(c >= 1.0 - 1e-12 for c in res["metaconflict"]["clusters"])
        tracked = [b for b in res["tracks"].values() if b["best_paths"]]
        result.tracked_blocks = len(tracked)
        result.normalized_blocks = sum(
            all("plausibility_norm" in p for p in b["best_paths"]) for b in tracked
        )
        result.max_vertices = max((len(b["reports"]) for b in tracked), default=0)


@dataclass
class ExhaustiveOp:
    label: str
    seed: int
    outcome: tuple | None = None


class ExhaustiveWorkload:
    """One op builds a corpus twice and runs partition_search on one copy and
    exhaustive_search on the other, so neither warms the other's conflict cache."""

    N_REPORTS = 10
    MIXED_FRAME = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.prior = cluster.DomainPrior.uniform(4)

    def prepare(self, k: int) -> list[ExhaustiveOp]:
        seed = self.seed + k * SEED_STRIDE
        return [ExhaustiveOp("separable", seed), ExhaustiveOp("mixed", seed)]

    def build(self, op: ExhaustiveOp):
        """(fresh corpus, target grouping or None)."""
        rng = random.Random(f"{op.label}:{op.seed}")
        if op.label == "separable":
            corpus, groups = oracle.separable_corpus(rng, n_reports=self.N_REPORTS, n_groups=3)
            return corpus, canonical(groups)
        frame = ds.Frame(tuple(f"t{i + 1}" for i in range(self.MIXED_FRAME)))
        reports = tuple(
            cluster.Report(f"e{i + 1:02d}", oracle.random_mass(frame, rng))
            for i in range(self.N_REPORTS)
        )
        return cluster.EvidenceCorpus(frame, reports), None

    def run(self, op: ExhaustiveOp) -> OpResult:
        """The timed op; ``check`` verifies the two results afterwards."""
        start = time.perf_counter()
        try:
            corpus, truth = self.build(op)
            searched = cluster.partition_search(corpus, self.prior)
            other, _ = self.build(op)
            enumerated = cluster.exhaustive_search(other, self.prior)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not raised
            return OpResult(op.label, self.N_REPORTS, time.perf_counter() - start, [f"raised {exc!r}"])
        op.outcome = (list(corpus.ids), truth, searched, enumerated)
        return OpResult(op.label, self.N_REPORTS, time.perf_counter() - start)

    def check(self, op: ExhaustiveOp, result: OpResult) -> None:
        if result.errors:
            return
        ids, truth, (part, found), (best_part, best) = op.outcome
        op.outcome = None
        for p, m in ((part, found), (best_part, best)):
            result.errors += check_partition(ids, p.blocks, m.c0, m.cluster_conflicts, m.mcf)
        if best.mcf > found.mcf + MCF_TOL:
            result.errors.append(f"exhaustive mcf {best.mcf!r} above search mcf {found.mcf!r}")
        result.mcf = found.mcf
        result.agree = abs(found.mcf - best.mcf) <= AGREE_TOL
        result.truth = None if truth is None else canonical(part.blocks) == truth
        result.saturated_blocks = sum(c >= 1.0 - 1e-12 for c in found.cluster_conflicts)
        result.output = json.dumps(
            {"search": [part.blocks, found.mcf], "exhaustive": [best_part.blocks, best.mcf]}
        )


def make_workload(name: str, seed: int, workdir: Path):
    if name == "search-ladder":
        # 6x8 twice: its work is the same for every seed (the plateau stops the
        # search at once), and with two of six ops there the median op sits in
        # it instead of on the edge of the 4x6 rung, whose work varies 2x by seed.
        rungs = [(3, 4), (4, 6), (5, 6), (6, 8), (6, 8), (10, 10)]
        return PipelineWorkload(seed, workdir, rungs, {}, [], decision=False)
    if name == "track-desk":
        # Targets up to 10,000 km/h in a 20,000 km box: all 15 edges of a
        # 6-report block carry doubt at the analysed 25 km/h in 97% of blocks,
        # so each block costs the oracle's full 2^21 selections. At 1000 km/h
        # in the default 50 km box the walk bounces off the box edges, 5-15
        # edges carry doubt and the oracle's cost per block varies 16-fold,
        # too unevenly to time in one run.
        # 2x10 three times: six refused blocks against five normalized ones,
        # and the median and 11th-slowest op fall inside the 0.3 s rung
        # instead of on its edge with the 3 s rungs, where they jumped by run.
        rungs = [(2, 6), (3, 6), (2, 10), (2, 10), (2, 10)]
        args = ["--threads", "2", "--rho", "0.5"]
        scenario = {"v_max_kmh": 10_000.0, "area_km": 20_000.0}
        return PipelineWorkload(seed, workdir, rungs, scenario, args, decision=True)
    if name == "exhaustive-check":
        return ExhaustiveWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("search-ladder", "track-desk", "exhaustive-check")
