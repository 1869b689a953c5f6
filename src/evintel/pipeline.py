"""File ingestion, pipeline orchestration and result export.

One self-describing JSON document carries the frame, the reports, the count
prior and (optionally) a decision problem, so a run is reproducible from a
single artifact. The pipeline sequences clustering, membership specification,
the count posterior and per-cluster track analysis; stage failures are
wrapped with the stage name.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path as FilePath

from . import decide, posterior, specify, tracks
from .cluster import (
    DomainPrior,
    EvidenceCorpus,
    MetaConflictReport,
    Partition,
    Report,
    SearchConfig,
    partition_search,
)
from .ds import Frame, MassFunction, ValidationError, make_mass

P_CAP = 0.999999  # vertex masses must stay below 1


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    restarts: int = 20
    max_sweeps: int = 200
    v_max_kmh: float = 25.0
    q_cap: float = tracks.DEFAULT_Q_CAP
    top_k: int = 3
    rho: float | None = None

    def __post_init__(self):
        if self.restarts < 1 or self.top_k < 1:
            raise ValidationError("restarts and top_k must be >= 1")
        if self.max_sweeps < 0:
            raise ValidationError("max_sweeps must be >= 0")
        if not self.v_max_kmh > 0:  # also refuses nan
            raise ValidationError("v_max must be positive")
        if not 0.0 <= self.q_cap < 1.0:
            raise ValidationError("q_cap must lie in [0, 1)")
        if self.rho is not None:
            decide.check_rho(self.rho)


@dataclass(frozen=True)
class TrackResult:
    block: int
    report_ids: tuple[str, ...]
    excluded: tuple[str, ...]
    graph: tracks.TrackGraph | None
    best_paths: tuple[tuple[tracks.Path, float], ...]
    conflict: float | None  # None past tracks.NORM_VERTEX_LIMIT
    normalized: tuple[tuple[float, float] | None, ...]  # (plausibility, support) per best path


@dataclass(frozen=True)
class DecisionResult:
    intervals: dict[str, dict[str, tuple[float, float]]]  # maker -> choice -> (low, high)
    segmentation: decide.RhoSegmentation
    assignment: dict[str, str] | None  # only when a rho was supplied


@dataclass(frozen=True)
class PipelineResult:
    partition: Partition
    metaconflict: MetaConflictReport
    membership: specify.MembershipSpecification | None
    posterior: posterior.PosteriorDistribution | None
    track_results: tuple[TrackResult, ...] | None
    decision: DecisionResult | None
    warnings: tuple[str, ...] = field(default_factory=tuple)


ALL_STAGES = frozenset({"specify", "posterior", "tracks"})


def _number(value: object, what: str) -> float:
    """A JSON number as a float: strings, booleans and ints past the float range are refused."""
    if isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max):
        return float(value)
    raise ValidationError(f"{what} must be a number")


def _parse_masses(frame: Frame, raw: object, where: str) -> MassFunction:
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{where}: 'masses' must be a nonempty list")
    entries = []
    for k, item in enumerate(raw):
        loc = f"{where}: masses[{k}]"
        if not isinstance(item, dict) or "set" not in item or "mass" not in item:
            raise ValidationError(f"{loc}: each mass entry needs 'set' and 'mass'")
        members = item["set"]
        if not isinstance(members, list) or not all(isinstance(e, str) for e in members):
            raise ValidationError(f"{loc}: 'set' must be a list of frame elements")
        entries.append((tuple(members), _number(item["mass"], f"{loc}: 'mass'")))
    try:
        return make_mass(frame, entries)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def parse_document(doc: dict, where: str = "input") -> tuple[EvidenceCorpus, DomainPrior]:
    if "frame" not in doc or "reports" not in doc or "prior" not in doc:
        raise ValidationError(f"{where}: document needs 'frame', 'prior' and 'reports'")
    if not isinstance(doc["frame"], list) or not isinstance(doc["reports"], list):
        raise ValidationError(f"{where}: 'frame' and 'reports' must be lists")
    if not all(isinstance(e, str) for e in doc["frame"]):
        raise ValidationError(f"{where}: 'frame' elements must be strings")
    try:
        frame = Frame(tuple(doc["frame"]))
    except ValidationError as exc:
        raise ValidationError(f"{where}: 'frame': {exc}") from None
    try:
        probabilities = {int(k): _number(v, "'prior'") for k, v in doc["prior"].items()}
    except (TypeError, AttributeError, ValueError):
        raise ValidationError(f"{where}: 'prior' must map counts to probabilities") from None
    try:
        prior = DomainPrior(probabilities)
    except ValidationError as exc:
        raise ValidationError(f"{where}: 'prior': {exc}") from None
    reports = []
    for i, raw in enumerate(doc["reports"]):
        loc = f"{where}: reports[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{loc}: report must be an object")
        rid = raw.get("id")
        if not isinstance(rid, str) or not rid:
            raise ValidationError(f"{loc}: missing report id")
        loc = f"{loc} (id {rid!r})"
        evidence = _parse_masses(frame, raw.get("masses"), loc)
        try:
            time_s = _number(raw["time"], "'time'") if "time" in raw else None
            pos = raw.get("pos")
            if pos is not None and not (isinstance(pos, list) and len(pos) == 2):
                raise ValueError("'pos' is not a pair")
            pos_km = (_number(pos[0], "'pos'"), _number(pos[1], "'pos'")) if pos is not None else None
            if not all(math.isfinite(x) for x in (time_s, *(pos_km or ())) if x is not None):
                raise ValueError("non-finite time or position")
        except ValueError:
            raise ValidationError(f"{loc}: malformed 'time' or 'pos'") from None
        reports.append(Report(rid, evidence, time_s, pos_km))
    try:
        corpus = EvidenceCorpus(frame, tuple(reports))
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    return corpus, prior


def load_document(path: str | FilePath) -> dict:
    """Read a corpus file's JSON object; errors carry the file location."""
    path = FilePath(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"{path}: no such file") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: the document must be a JSON object")
    return doc


def ingest_corpus(path: str | FilePath) -> tuple[EvidenceCorpus, DomainPrior]:
    """Load and validate a corpus file; errors carry the file location."""
    return parse_document(load_document(path), where=str(FilePath(path)))


def parse_decision(doc: dict, where: str = "input") -> tuple[dict[str, float], list[decide.DecisionMaker]] | None:
    """The optional decision section: utilities plus per-maker choice bpas."""
    section = doc.get("decision")
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ValidationError(f"{where}: 'decision' must be an object")
    utilities = section.get("utilities")
    if not isinstance(utilities, dict) or not utilities:
        raise ValidationError(f"{where}: decision section needs nonempty 'utilities'")
    utilities = {str(k): _number(v, f"{where}: utility {k!r}") for k, v in utilities.items()}
    values = utilities.values()
    if all(map(math.isfinite, values)) and not math.isfinite(max(values) - min(values)):
        # infinite values are rejected per choice below, with the utility named
        raise ValidationError(f"{where}: decision utilities must span a finite range (max - min overflows)")
    frame = Frame(tuple(utilities))
    raw_makers = section.get("makers", [])
    if not isinstance(raw_makers, list):
        raise ValidationError(f"{where}: decision 'makers' must be a list")
    makers = []
    maker_ids, choice_ids = set(), set()
    for i, raw_maker in enumerate(raw_makers):
        mid = raw_maker.get("id") if isinstance(raw_maker, dict) else None
        if not isinstance(mid, str) or not mid or mid in maker_ids:
            raise ValidationError(f"{where}: decision makers[{i}] must be an object with a unique 'id'")
        maker_ids.add(mid)
        raw_choices = raw_maker.get("choices", [])
        if not isinstance(raw_choices, list) or not raw_choices:
            raise ValidationError(f"{where}: maker {mid!r} needs a nonempty list of 'choices'")
        choices = []
        for j, raw_choice in enumerate(raw_choices):
            cid = raw_choice.get("id") if isinstance(raw_choice, dict) else None
            if not isinstance(cid, str) or not cid or cid in choice_ids:
                raise ValidationError(
                    f"{where}: maker {mid!r}: choices[{j}] must be an object with an 'id' unique in the game"
                )
            choice_ids.add(cid)
            loc = f"{where}: choice {cid!r}"
            mass = _parse_masses(frame, raw_choice.get("masses"), loc)
            try:
                choices.append(decide.expected_interval(decide.UtilityBpa(mass, utilities), cid))
            except ValidationError as exc:
                raise ValidationError(f"{loc}: {exc}") from None
        makers.append(decide.DecisionMaker(mid, tuple(choices)))
    if not makers:
        raise ValidationError(f"{where}: decision section has no decision makers")
    return utilities, makers


def _track_block(
    corpus: EvidenceCorpus, block_index: int, block: tuple[str, ...], cfg: PipelineConfig
) -> TrackResult:
    reports = [corpus.report(r) for r in block]
    usable = [r for r in reports if r.time_s is not None and r.pos_km is not None]
    usable.sort(key=lambda r: (r.time_s, r.id))
    excluded = tuple(r.id for r in reports if r.time_s is None or r.pos_km is None)
    if not usable:
        return TrackResult(block_index, (), excluded, None, (), None, ())
    vertices = tuple(
        tracks.TrackVertex(rank, r.time_s, r.pos_km) for rank, r in enumerate(usable, start=1)
    )
    p = tuple(min(1.0 - r.evidence.theta_mass, P_CAP) for r in usable)
    graph = tracks.kinematic_graph(vertices, p, cfg.v_max_kmh, cfg.q_cap)
    best = tuple(tracks.best_path_dp(graph, cfg.top_k))
    conflict, normalized = None, (None,) * len(best)
    if graph.n <= tracks.NORM_VERTEX_LIMIT:
        conflict, norm = tracks.track_conflict(graph)
        normalized = tuple(
            (unnorm / norm, tracks.path_support(graph, path, norm)) for path, unnorm in best
        )
    return TrackResult(
        block_index, tuple(r.id for r in usable), excluded, graph, best, conflict, normalized
    )


def analyze_decision(
    makers: list[decide.DecisionMaker], rho: float | None = None
) -> DecisionResult:
    # played first, so that a rho outside [0, 1] is refused before the sweep over rho
    assignment = decide.sequential_play(makers, rho) if rho is not None else None
    intervals = {m.id: {c.id: (c.e_low, c.e_high) for c in m.choices} for m in makers}
    segmentation = decide.game_preferences(makers)
    return DecisionResult(intervals, segmentation, assignment)


def run_pipeline(
    corpus: EvidenceCorpus,
    prior: DomainPrior,
    cfg: PipelineConfig = PipelineConfig(),
    decision: tuple[dict[str, float], list[decide.DecisionMaker]] | None = None,
    stages: frozenset[str] = ALL_STAGES,
) -> PipelineResult:
    """cluster -> specify -> posterior -> per-cluster tracks -> optional decision."""
    warnings: list[str] = []
    try:
        search_cfg = SearchConfig(cfg.restarts, cfg.seed, cfg.max_sweeps)
        partition, mcr = partition_search(corpus, prior, search_cfg)
    except Exception as exc:
        raise StageError("cluster", exc) from exc
    membership = None
    if "specify" in stages:
        try:
            membership = specify.specify_corpus(partition, prior)
        except Exception as exc:
            raise StageError("specify", exc) from exc
    post = None
    if "posterior" in stages:
        try:
            supports = [posterior.subset_support(corpus, b) for b in partition.blocks]
            post = posterior.posterior_distribution(posterior.counting_bpa(supports), prior)
        except Exception as exc:
            raise StageError("posterior", exc) from exc
    track_results = None
    if "tracks" in stages:
        try:
            track_results = tuple(
                _track_block(corpus, i, b, cfg) for i, b in enumerate(partition.blocks)
            )
            for tr in track_results:
                for rid in tr.excluded:
                    warnings.append(f"block {tr.block}: report {rid!r} lacks time/pos, not tracked")
        except Exception as exc:
            raise StageError("tracks", exc) from exc
    decision_result = None
    if decision is not None:
        try:
            decision_result = analyze_decision(decision[1], cfg.rho)
        except Exception as exc:
            raise StageError("decide", exc) from exc
    return PipelineResult(partition, mcr, membership, post, track_results, decision_result, tuple(warnings))


def _membership_json(membership: specify.MembershipSpecification) -> dict:
    out: dict[str, dict] = {}
    for rid, pl in membership.plausibility.items():
        out[rid] = {
            "plausibility": {str(k): v for k, v in pl.items()},
            "weights": {str(k): v for k, v in membership.weights[rid].items()},
        }
    return out


def _tracks_json(track_results: tuple[TrackResult, ...]) -> dict:
    out: dict[str, dict] = {}
    for tr in track_results:
        paths = []
        for (path, unnorm), values in zip(tr.best_paths, tr.normalized):
            entry: dict = {"vertices": list(path), "plausibility_unnorm": unnorm}
            if values is not None:
                entry["plausibility_norm"], entry["support"] = values
            paths.append(entry)
        block: dict = {"reports": list(tr.report_ids), "best_paths": paths}
        if tr.conflict is not None:
            block["conflict"] = tr.conflict
        if tr.excluded:
            block["excluded"] = list(tr.excluded)
        out[str(tr.block)] = block
    return out


def decision_to_json(decision: DecisionResult) -> dict:
    """The ``decision`` object of the result JSON, shared by ``pipeline`` and ``decide``."""
    doc: dict = {
        "intervals": {
            m: {c: [lo, hi] for c, (lo, hi) in choices.items()}
            for m, choices in decision.intervals.items()
        },
        "segmentation": [
            {"lo": s.lo, "hi": s.hi, "winners": list(s.winners)}
            for s in decision.segmentation.segments
        ],
        "preferences": dict(decision.segmentation.preferences),
    }
    if decision.assignment is not None:
        doc["assignment"] = decision.assignment
    return doc


def result_to_json(result: PipelineResult) -> dict:
    doc: dict = {
        "partition": [list(b) for b in result.partition.blocks],
        "metaconflict": {
            "c0": result.metaconflict.c0,
            "clusters": list(result.metaconflict.cluster_conflicts),
            "mcf": result.metaconflict.mcf,
        },
    }
    if result.membership is not None:
        doc["membership"] = _membership_json(result.membership)
    if result.posterior is not None:
        doc["posterior"] = {str(r): p for r, p in sorted(result.posterior.probabilities.items())}
    if result.track_results is not None:
        doc["tracks"] = _tracks_json(result.track_results)
    if result.decision is not None:
        doc["decision"] = decision_to_json(result.decision)
    if result.warnings:
        doc["warnings"] = list(result.warnings)
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*r) for r in rows)
    return "\n".join(lines)


def format_decision(decision: DecisionResult) -> str:
    """The decision tables, shared by ``pipeline`` and ``decide``."""
    rows = [
        [m, c, f"{lo:.6f}", f"{hi:.6f}"]
        for m, choices in decision.intervals.items()
        for c, (lo, hi) in choices.items()
    ]
    parts = ["Decision analysis", _table(rows, ["maker", "choice", "E_low", "E_high"])]
    rows = [[f"[{s.lo:.6f}, {s.hi:.6f}]", " ".join(s.winners)] for s in decision.segmentation.segments]
    parts.append(_table(rows, ["rho interval", "winner"]))
    rows = [[c, f"{p:.6f}"] for c, p in sorted(decision.segmentation.preferences.items())]
    parts.append(_table(rows, ["choice", "preference"]))
    if decision.assignment is not None:
        rows = [[m, c] for m, c in decision.assignment.items()]
        parts.append(_table(rows, ["maker", "plays"]))
    return "\n".join(parts)


def format_result(result: PipelineResult) -> str:
    """Aligned human-readable tables; plausibilities with 6 decimals."""
    parts: list[str] = []
    mc = result.metaconflict
    rows = [
        [str(i), str(len(b)), f"{c:.6f}", " ".join(b)]
        for i, (b, c) in enumerate(zip(result.partition.blocks, mc.cluster_conflicts))
    ]
    parts.append("Partition (c0 = {:.6f}, mcf = {:.6f})".format(mc.c0, mc.mcf))
    parts.append(_table(rows, ["block", "size", "conflict", "reports"]))

    if result.posterior is not None:
        rows = [[str(r), f"{p:.6f}"] for r, p in sorted(result.posterior.probabilities.items())]
        parts.append("\nPosterior over number of events")
        parts.append(_table(rows, ["count", "probability"]))

    if result.membership is not None:
        n_blocks = result.partition.n_blocks
        header = ["report"] + [f"w{k}" for k in range(n_blocks)] + ["pls(new)"]
        rows = []
        for rid in result.partition.corpus.ids:
            w = result.membership.weights[rid]
            pl = result.membership.plausibility[rid]
            rows.append(
                [rid]
                + [f"{w[k]:.6f}" for k in range(n_blocks)]
                + [f"{pl[specify.NEW_BLOCK]:.6f}"]
            )
        parts.append("\nMembership weights")
        parts.append(_table(rows, header))

    for tr in result.track_results or ():
        parts.append(f"\nTracks for block {tr.block} ({len(tr.report_ids)} position reports)")
        if not tr.best_paths:
            parts.append("  no reports with time and position")
            continue
        rows = []
        for (path, unnorm), values in zip(tr.best_paths, tr.normalized):
            norm, sup = (f"{x:.6f}" for x in values) if values is not None else ("n/a", "n/a")
            rows.append(["-".join(map(str, path)), f"{unnorm:.6f}", norm, sup])
        parts.append(_table(rows, ["path", "pls_unnorm", "pls_norm", "support"]))
        if tr.conflict is not None:
            parts.append(f"  combination conflict: {tr.conflict:.6f}")

    if result.decision is not None:
        parts.append("\n" + format_decision(result.decision))

    for w in result.warnings:
        parts.append(f"warning: {w}")
    return "\n".join(parts) + "\n"
