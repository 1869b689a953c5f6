"""Command-line interface.

Subcommands: gen, cluster, specify, posterior, tracks, decide, pipeline,
oracle-check. Results print as aligned tables on stdout; --out writes the
machine-readable JSON document. Exit codes: 0 success, 2 validation error,
3 stage failure.

Each flag that sets a setting names a field of SearchConfig, PipelineConfig
or ScenarioConfig, where its default and its checks live; a flag left out
takes that default.
"""

from __future__ import annotations

import argparse
import sys
from argparse import SUPPRESS
from dataclasses import fields
from pathlib import Path

from . import pipeline as pl
from . import tracks
from .cluster import DomainPrior, EvidenceCorpus
from .ds import ValidationError
from .scenario import ScenarioConfig, generate_scenario


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="corpus JSON file")
    p.add_argument("--out", type=Path, default=None, help="write result JSON here")
    p.add_argument("--rmax", type=int, default=None, help="override the prior with uniform {1..RMAX}")


def _add_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=SUPPRESS)
    p.add_argument("--restarts", type=int, default=SUPPRESS)
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; restarts run serially")


def _add_track_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vmax", type=float, dest="v_max_kmh", metavar="VMAX", default=SUPPRESS, help="speed limit in km/h")
    p.add_argument("--q-cap", type=float, default=SUPPRESS)
    p.add_argument("--top-k", type=int, default=SUPPRESS)
    p.add_argument("--dot", type=Path, default=None, help="write Graphviz DOT export(s) here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evintel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scenario file")
    p.add_argument("--seed", type=int, default=SUPPRESS)
    p.add_argument("--targets", type=int, default=SUPPRESS)
    p.add_argument("--reports-per-target", type=int, default=SUPPRESS)
    p.add_argument("--frame-size", type=int, default=SUPPRESS)
    p.add_argument("--contradiction", type=float, default=SUPPRESS)
    p.add_argument("--area", type=float, dest="area_km", metavar="AREA", default=SUPPRESS, help="side of the area box in km")
    p.add_argument("--vmax", type=float, dest="v_max_kmh", metavar="VMAX", default=SUPPRESS)
    p.add_argument("--time-span", type=float, dest="time_span_s", metavar="TIME_SPAN", default=SUPPRESS, help="seconds")
    p.add_argument("--rmax", type=int, dest="r_max", metavar="RMAX", default=SUPPRESS)
    p.add_argument("--out", type=Path, default=None, help="output file (default stdout)")

    for name, help_text in [
        ("cluster", "partition the corpus by metaconflict minimization"),
        ("specify", "cluster, then derive graded per-block membership"),
        ("posterior", "cluster, then compute the posterior over the number of events"),
        ("tracks", "cluster, then analyze per-cluster track graphs"),
        ("pipeline", "run every stage"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_io_args(p)
        _add_search_args(p)
        if name in ("tracks", "pipeline"):
            _add_track_args(p)
        if name == "pipeline":
            p.add_argument("--rho", type=float, default=SUPPRESS)

    p = sub.add_parser("decide", help="rho-interval decision analysis of the input's decision section")
    p.add_argument("input")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--rho", type=float, default=None, help="also play the game at this rho")

    p = sub.add_parser("oracle-check", help="run dual-route verification checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    return parser


def _config(cls, args):
    """``cls`` built from the flags given that name its fields; a flag left out takes the field's default."""
    names = {f.name for f in fields(cls)}
    return cls(**{name: value for name, value in vars(args).items() if name in names})


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write ({exc.strerror})") from None


def _emit(doc: dict, text: str, out: Path | None) -> None:
    sys.stdout.write(text)
    if out is not None:
        _write(out, pl.render_json(doc))


_STAGES = {
    "cluster": frozenset(),
    "specify": frozenset({"specify"}),
    "posterior": frozenset({"posterior"}),
    "tracks": frozenset({"tracks"}),
    "pipeline": pl.ALL_STAGES,
}


def _write_dot(corpus: EvidenceCorpus, result: dict, cfg: pl.PipelineConfig, dot_path: Path) -> None:
    """One DOT file per block with tracked reports, its graph rebuilt from the block's ``reports``."""
    blocks = [(block, entry["reports"]) for block, entry in result["tracks"].items() if entry["reports"]]
    for block, report_ids in blocks:
        path = dot_path
        if len(blocks) > 1:
            path = dot_path.with_name(f"{dot_path.stem}_block{block}{dot_path.suffix}")
        _write(path, tracks.dot_export(pl.track_graph(corpus, report_ids, cfg)))


def _load(args) -> tuple[dict, str]:
    """The input document, and the file name every error message gives."""
    where = str(Path(args.input))
    return pl.load_document(where), where


def _run_stage_command(args) -> int:
    doc, where = _load(args)
    corpus, prior = pl.parse_document(doc, where=where)
    if args.rmax is not None:
        prior = DomainPrior.uniform(args.rmax)
    decision = pl.parse_decision(doc, where=where)  # every stage command refuses a malformed section
    if args.command != "pipeline":
        decision = None  # only the pipeline analyses it
    if args.threads < 1:  # unused, but still refused so that a bad value keeps exiting 2
        raise ValidationError("threads must be >= 1")
    cfg = _config(pl.PipelineConfig, args)
    result = pl.run_pipeline(corpus, prior, cfg, decision=decision, stages=_STAGES[args.command])
    if getattr(args, "dot", None) is not None:
        _write_dot(corpus, result, cfg, args.dot)
    _emit(result, pl.format_result(result), args.out)
    return 0


def _run_decide(args) -> int:
    doc, where = _load(args)
    makers = pl.parse_decision(doc, where=where)
    if makers is None:
        raise ValidationError(f"{where}: no decision section")
    decision = pl.analyze_decision(makers, args.rho)
    _emit({"decision": decision}, pl.format_decision(decision) + "\n", args.out)
    return 0


def _run_gen(args) -> int:
    content = generate_scenario(_config(ScenarioConfig, args))
    if args.out is not None:
        _write(args.out, content)
    else:
        sys.stdout.write(content)
    return 0


def _run_oracle_check(args) -> int:
    from .oracle import run_all_checks  # the only command that loads the oracles

    results = run_all_checks(seed=args.seed, trials=args.trials)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        dev = "" if r.max_dev is None else f"  max_dev={r.max_dev:.3g}"
        print(f"{status}  {r.name:<{width}}  failed {r.failed} of {r.trials}{dev}")
    return 0 if all(r.ok for r in results) else 3


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _run_gen(args)
        if args.command == "decide":
            return _run_decide(args)
        if args.command == "oracle-check":
            return _run_oracle_check(args)
        return _run_stage_command(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except pl.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
