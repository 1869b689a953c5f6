"""File ingestion, pipeline orchestration and result export.

One self-describing JSON document carries the frame, the reports, the count
prior and (optionally) a decision problem, so a run is reproducible from a
single artifact; the reports are taken in id order, whatever their order in
the file. The pipeline sequences clustering, membership specification, the
count posterior, per-cluster track analysis and the optional decision
analysis, and builds the result document stage by stage: ``render_json``
writes it as ``--out`` and ``format_result`` renders it as tables. Stage
failures are wrapped with the stage name.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
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
class PipelineConfig(SearchConfig):
    """The search settings of ``SearchConfig``, which the cluster stage
    receives as they are, plus the settings of the later stages."""

    v_max_kmh: float = 25.0
    q_cap: float = tracks.DEFAULT_Q_CAP
    top_k: int = 3
    rho: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.top_k < 1:
            raise ValidationError("top_k must be >= 1")
        if not self.v_max_kmh > 0:  # also refuses nan
            raise ValidationError("v_max must be positive")
        if not 0.0 <= self.q_cap < 1.0:
            raise ValidationError("q_cap must lie in [0, 1)")
        if self.rho is not None:
            decide.check_rho(self.rho)


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
    return _located(where, make_mass, frame, entries)


def parse_document(doc: dict, where: str = "input") -> tuple[EvidenceCorpus, DomainPrior]:
    if "frame" not in doc or "reports" not in doc or "prior" not in doc:
        raise ValidationError(f"{where}: document needs 'frame', 'prior' and 'reports'")
    if not isinstance(doc["frame"], list) or not isinstance(doc["reports"], list):
        raise ValidationError(f"{where}: 'frame' and 'reports' must be lists")
    if not all(isinstance(e, str) for e in doc["frame"]):
        raise ValidationError(f"{where}: 'frame' elements must be strings")
    frame = _located(f"{where}: 'frame'", Frame, tuple(doc["frame"]))
    try:
        probabilities = {int(k): _number(v, "'prior'") for k, v in doc["prior"].items()}
    except (TypeError, AttributeError, ValueError):
        raise ValidationError(f"{where}: 'prior' must map counts to probabilities") from None
    for k in doc["prior"]:
        if str(int(k)) != k:  # "01" would collide with "1", and "1_0" read as 10
            raise ValidationError(f"{where}: 'prior': count {k!r} must be written in plain decimal digits")
    prior = _located(f"{where}: 'prior'", DomainPrior, probabilities)
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
            if "pos" in raw and not (isinstance(pos, list) and len(pos) == 2):  # null is refused, as for 'time'
                raise ValueError("'pos' is not a pair")
            pos_km = (_number(pos[0], "'pos'"), _number(pos[1], "'pos'")) if "pos" in raw else None
            if not all(math.isfinite(x) for x in (time_s, *(pos_km or ())) if x is not None):
                raise ValueError("non-finite time or position")
        except ValueError:
            raise ValidationError(f"{loc}: malformed 'time' or 'pos'") from None
        reports.append(Report(rid, evidence, time_s, pos_km))
    reports.sort(key=lambda r: r.id)  # listing order is not evidence
    return _located(where, EvidenceCorpus, frame, tuple(reports)), prior


def load_document(path: str | FilePath) -> dict:
    """Read a corpus file's JSON object; errors carry the file location."""
    path = FilePath(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"{path}: no such file") from None
    except OSError as exc:  # a directory, no permission, ...
        raise ValidationError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: the document must be a JSON object")
    return doc


def parse_decision(doc: dict, where: str = "input") -> list[decide.DecisionMaker] | None:
    """The optional decision section's makers, each choice's bpa already
    reduced to its expected-utility interval; None without a section."""
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
            choices.append(_located(loc, decide.expected_interval, mass, utilities, cid))
        makers.append(decide.DecisionMaker(mid, tuple(choices)))
    if not makers:
        raise ValidationError(f"{where}: decision section has no decision makers")
    return makers


def track_graph(corpus: EvidenceCorpus, report_ids: list[str], cfg: PipelineConfig) -> tracks.TrackGraph:
    """The kinematic graph of the reports ``report_ids``, vertices ranked 1, 2, ...
    in the order given; each report needs a time and a position."""
    reports = [corpus.report(r) for r in report_ids]
    vertices = tuple(
        tracks.TrackVertex(rank, r.time_s, r.pos_km) for rank, r in enumerate(reports, start=1)
    )
    p = tuple(min(1.0 - r.evidence.theta_mass, P_CAP) for r in reports)
    return tracks.kinematic_graph(vertices, p, cfg.v_max_kmh, cfg.q_cap)


def _track_block(corpus: EvidenceCorpus, block: tuple[str, ...], cfg: PipelineConfig) -> dict:
    """A block's ``tracks`` entry: its reports with time and position in time
    order, their best paths, and the reports left out for lack of either."""
    reports = [corpus.report(r) for r in block]
    usable = [r for r in reports if r.time_s is not None and r.pos_km is not None]
    usable.sort(key=lambda r: (r.time_s, r.id))
    entry: dict = {"reports": [r.id for r in usable], "best_paths": []}
    if usable:
        graph = track_graph(corpus, entry["reports"], cfg)
        best = tracks.best_path_dp(graph, cfg.top_k)
        conflict, normalized = tracks.normalize(graph, [path for path, _ in best])
        for (path, unnorm), values in zip(best, normalized):
            path_entry: dict = {"vertices": list(path), "plausibility_unnorm": unnorm}
            if values is not None:
                path_entry["plausibility_norm"], path_entry["support"] = values
            entry["best_paths"].append(path_entry)
        if conflict is not None:
            entry["conflict"] = conflict
    excluded = [r.id for r in reports if r.time_s is None or r.pos_km is None]
    if excluded:
        entry["excluded"] = excluded
    return entry


def analyze_decision(makers: list[decide.DecisionMaker], rho: float | None = None) -> dict:
    """The ``decision`` object of the result document, shared by ``pipeline`` and ``decide``."""
    # played first, so that a rho outside [0, 1] is refused before the sweep over rho
    assignment = decide.sequential_play(makers, rho) if rho is not None else None
    segments, preferences = decide.game_preferences(makers)
    doc: dict = {
        "intervals": {m.id: {c.id: [c.e_low, c.e_high] for c in m.choices} for m in makers},
        "segmentation": [{"lo": lo, "hi": hi, "winners": list(winners)} for lo, hi, winners in segments],
        "preferences": preferences,
    }
    if assignment is not None:
        doc["assignment"] = assignment
    return doc


def _located(where: str, fn, *args):
    """``fn(*args)``, with a ``ValidationError`` raised again prefixed by the location ``where``."""
    try:
        return fn(*args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _stage(name: str, fn, *args):
    """``fn(*args)``, with any failure raised as the ``StageError`` of stage ``name``."""
    try:
        return fn(*args)
    except Exception as exc:
        raise StageError(name, exc) from exc


def _membership(partition: Partition, prior: DomainPrior) -> dict:
    plausibility, weights = specify.specify_corpus(partition, prior)
    return {
        rid: {
            "plausibility": {str(k): v for k, v in pl.items()},
            "weights": {str(k): v for k, v in weights[rid].items()},
        }
        for rid, pl in plausibility.items()
    }


def _posterior(corpus: EvidenceCorpus, partition: Partition, prior: DomainPrior) -> dict:
    supports = [posterior.subset_support(corpus, b) for b in partition.blocks]
    post = posterior.posterior_distribution(posterior.counting_bpa(supports), prior)
    return {str(r): p for r, p in post.items()}


def _track_blocks(corpus: EvidenceCorpus, partition: Partition, cfg: PipelineConfig) -> dict:
    return {str(i): _track_block(corpus, b, cfg) for i, b in enumerate(partition.blocks)}


def run_pipeline(
    corpus: EvidenceCorpus,
    prior: DomainPrior,
    cfg: PipelineConfig = PipelineConfig(),
    decision: list[decide.DecisionMaker] | None = None,
    stages: frozenset[str] = ALL_STAGES,
) -> dict:
    """cluster -> specify -> posterior -> per-cluster tracks -> optional decision,
    as the result document that ``render_json`` writes. A stage left out, or
    no decision section, leaves out its key."""
    partition, mcr = _stage("cluster", partition_search, corpus, prior, cfg)
    doc: dict = {
        "partition": [list(b) for b in partition.blocks],
        "metaconflict": {"c0": mcr.c0, "clusters": list(mcr.cluster_conflicts), "mcf": mcr.mcf},
    }
    if "specify" in stages:
        doc["membership"] = _stage("specify", _membership, partition, prior)
    if "posterior" in stages:
        doc["posterior"] = _stage("posterior", _posterior, corpus, partition, prior)
    if "tracks" in stages:
        doc["tracks"] = _stage("tracks", _track_blocks, corpus, partition, cfg)
    if decision is not None:
        doc["decision"] = _stage("decide", analyze_decision, decision, cfg.rho)
    warnings = [
        f"block {block}: report {rid!r} lacks time/pos, not tracked"
        for block, entry in doc.get("tracks", {}).items()
        for rid in entry.get("excluded", ())
    ]
    if warnings:
        doc["warnings"] = warnings
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*r) for r in rows)
    return "\n".join(lines)


def format_decision(decision: dict) -> str:
    """The decision tables of a ``decision`` object, shared by ``pipeline`` and ``decide``."""
    rows = [
        [m, c, f"{lo:.6f}", f"{hi:.6f}"]
        for m, choices in decision["intervals"].items()
        for c, (lo, hi) in choices.items()
    ]
    parts = ["Decision analysis", _table(rows, ["maker", "choice", "E_low", "E_high"])]
    rows = [[f"[{s['lo']:.6f}, {s['hi']:.6f}]", " ".join(s["winners"])] for s in decision["segmentation"]]
    parts.append(_table(rows, ["rho interval", "winner"]))
    rows = [[c, f"{p:.6f}"] for c, p in sorted(decision["preferences"].items())]
    parts.append(_table(rows, ["choice", "preference"]))
    if "assignment" in decision:
        rows = [[m, c] for m, c in decision["assignment"].items()]
        parts.append(_table(rows, ["maker", "plays"]))
    return "\n".join(parts)


def format_result(result: dict) -> str:
    """Aligned human-readable tables of a result document; plausibilities with 6 decimals."""
    parts: list[str] = []
    mc = result["metaconflict"]
    rows = [
        [str(i), str(len(b)), f"{c:.6f}", " ".join(b)]
        for i, (b, c) in enumerate(zip(result["partition"], mc["clusters"]))
    ]
    parts.append("Partition (c0 = {:.6f}, mcf = {:.6f})".format(mc["c0"], mc["mcf"]))
    parts.append(_table(rows, ["block", "size", "conflict", "reports"]))

    if "posterior" in result:
        rows = [[r, f"{p:.6f}"] for r, p in result["posterior"].items()]
        parts.append("\nPosterior over number of events")
        parts.append(_table(rows, ["count", "probability"]))

    if "membership" in result:
        header = ["report"] + [f"w{k}" for k in range(len(result["partition"]))] + ["pls(new)"]
        rows = [
            [rid]
            + [f"{w:.6f}" for w in m["weights"].values()]
            + [f"{m['plausibility'][specify.NEW_BLOCK]:.6f}"]
            for rid, m in result["membership"].items()
        ]
        parts.append("\nMembership weights")
        parts.append(_table(rows, header))

    for block, entry in result.get("tracks", {}).items():
        parts.append(f"\nTracks for block {block} ({len(entry['reports'])} position reports)")
        if not entry["best_paths"]:
            parts.append("  no reports with time and position")
            continue
        rows = []
        for path in entry["best_paths"]:
            normalized = [f"{path[k]:.6f}" if k in path else "n/a" for k in ("plausibility_norm", "support")]
            rows.append(["-".join(map(str, path["vertices"])), f"{path['plausibility_unnorm']:.6f}", *normalized])
        parts.append(_table(rows, ["path", "pls_unnorm", "pls_norm", "support"]))
        if "conflict" in entry:
            parts.append(f"  combination conflict: {entry['conflict']:.6f}")

    if "decision" in result:
        parts.append("\n" + format_decision(result["decision"]))

    for w in result.get("warnings", ()):
        parts.append(f"warning: {w}")
    return "\n".join(parts) + "\n"
