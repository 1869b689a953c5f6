import copy
import hashlib
import json
import random

import pytest

from evintel.cli import main
from evintel.cluster import DomainPrior, EvidenceCorpus, Report, SearchConfig, exhaustive_search
from evintel.ds import Frame, ValidationError, make_mass
from evintel.pipeline import (
    PipelineConfig,
    StageError,
    format_result,
    load_document,
    parse_decision,
    parse_document,
    render_json,
    run_pipeline,
    track_graph,
)
from evintel.scenario import ScenarioConfig, generate_scenario_doc

AB = Frame(("A", "B"))


def doc_with(reports, frame=("A", "B"), prior=None, decision=None):
    doc = {
        "frame": list(frame),
        "prior": prior or {"1": 0.5, "2": 0.5},
        "reports": reports,
    }
    if decision is not None:
        doc["decision"] = decision
    return doc


def report_raw(rid, masses, **extra):
    return {"id": rid, "masses": masses, **extra}


GOOD_MASSES = [{"set": ["A"], "mass": 0.6}, {"set": ["A", "B"], "mass": 0.4}]


class TestIngest:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(doc_with([report_raw("r1", GOOD_MASSES), report_raw("r2", GOOD_MASSES)])),
            encoding="utf-8",
        )
        corpus, prior = parse_document(load_document(path), where=str(path))
        assert len(corpus.reports) == 2
        assert prior.r_max == 2

    def test_unknown_element_named(self):
        bad = [{"set": ["Z"], "mass": 1.0}]
        with pytest.raises(ValidationError, match="'Z'"):
            parse_document(doc_with([report_raw("r1", bad)]))

    def test_mass_sum_violation_names_report(self):
        bad = [{"set": ["A"], "mass": 0.98}]
        with pytest.raises(ValidationError, match="r1"):
            parse_document(doc_with([report_raw("r1", bad)]))

    def test_duplicate_report_id(self):
        with pytest.raises(ValidationError, match="duplicate report id"):
            parse_document(doc_with([report_raw("r1", GOOD_MASSES), report_raw("r1", GOOD_MASSES)]))

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ValidationError, match="no such file"):
            parse_document(load_document(path), where=str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ValidationError, match="invalid JSON"):
            parse_document(load_document(path), where=str(path))

    def test_bad_prior(self):
        with pytest.raises(ValidationError, match="prior"):
            parse_document(doc_with([report_raw("r1", GOOD_MASSES)], prior={"1": 0.4, "2": 0.4}))

    @pytest.mark.parametrize(
        "prior, reason",
        [
            ({"1": 0.4, "2": 0.4}, "'prior': prior probabilities sum to 0.8"),
            ({"1": -0.5, "2": 1.5}, "'prior': prior probability for 1 is negative"),
            ({"x": 1.0}, "'prior' must map counts to probabilities"),
        ],
    )
    def test_prior_message_keeps_its_reason(self, prior, reason):
        with pytest.raises(ValidationError, match=reason):
            parse_document(doc_with([report_raw("r1", GOOD_MASSES)], prior=prior), where="f.json")


class TestParseDecision:
    def test_absent_section(self):
        assert parse_decision(doc_with([report_raw("r1", GOOD_MASSES)])) is None

    def test_parsed_game(self):
        decision = {
            "utilities": {"win": 1.0, "lose": 0.0},
            "makers": [
                {
                    "id": "dm1",
                    "choices": [
                        {"id": "safe", "masses": [{"set": ["win"], "mass": 1.0}]},
                        {"id": "wide", "masses": [{"set": ["win", "lose"], "mass": 1.0}]},
                    ],
                }
            ],
        }
        makers = parse_decision(doc_with([report_raw("r1", GOOD_MASSES)], decision=decision))
        assert makers is not None
        assert makers[0].choices[0].e_low == 1.0
        assert makers[0].choices[1].e_low == 0.0
        assert makers[0].choices[1].e_high == 1.0

    def test_decision_without_makers(self):
        decision = {"utilities": {"x": 1.0}, "makers": []}
        with pytest.raises(ValidationError, match="no decision makers"):
            parse_decision(doc_with([report_raw("r1", GOOD_MASSES)], decision=decision))


class TestPipelineConfig:
    def test_search_settings_are_a_search_config(self):
        cfg = PipelineConfig(seed=4, restarts=7, max_sweeps=9)
        assert isinstance(cfg, SearchConfig)
        assert (cfg.seed, cfg.restarts, cfg.max_sweeps) == (4, 7, 9)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"restarts": 0}, "restarts must be >= 1"),
            ({"max_sweeps": -1}, "max_sweeps must be >= 0"),
            ({"top_k": 0}, "top_k must be >= 1"),
            ({"q_cap": 1.0}, "q_cap must lie"),
        ],
    )
    def test_bad_values_refused(self, kw, message):
        with pytest.raises(ValidationError, match=message):
            PipelineConfig(**kw)


# one kernel of each stage; the corpus below reaches every one of them
BROKEN_STAGE = {
    "cluster": "evintel.pipeline.partition_search",
    "specify": "evintel.specify.specify_corpus",
    "posterior": "evintel.posterior.counting_bpa",
    "tracks": "evintel.tracks.best_path_dp",
    "decide": "evintel.decide.game_preferences",
}


class TestRunPipeline:
    def test_ground_truth_scenario(self):
        doc = generate_scenario_doc(ScenarioConfig(seed=3, targets=3, reports_per_target=4))
        corpus, prior = parse_document(doc)
        result = run_pipeline(corpus, prior, PipelineConfig(seed=0, restarts=20))
        assert len(result["partition"]) == 3
        _, best = exhaustive_search(corpus, prior)
        assert result["metaconflict"]["mcf"] == pytest.approx(best.mcf, abs=1e-9)
        post = result["posterior"]
        assert max(post, key=lambda r: (post[r], -int(r))) == "3"
        assert "membership" in result
        assert len(result["tracks"]) == 3

    def test_single_report(self):
        corpus = EvidenceCorpus(
            AB, (Report("r1", make_mass(AB, [(("A",), 0.6), (("A", "B"), 0.4)])),)
        )
        prior = DomainPrior({1: 0.7, 2: 0.3})
        result = run_pipeline(corpus, prior)
        assert result["partition"] == [["r1"]]
        assert result["metaconflict"]["mcf"] == pytest.approx(0.3)  # domain conflict only
        assert result["metaconflict"]["clusters"] == [0.0]

    def test_missing_metadata_warns_not_fails(self):
        corpus = EvidenceCorpus(
            AB,
            (
                Report("r1", make_mass(AB, [(("A",), 0.6), (("A", "B"), 0.4)]), 0.0, (0.0, 0.0)),
                Report("r2", make_mass(AB, [(("A",), 0.5), (("A", "B"), 0.5)])),
            ),
        )
        result = run_pipeline(corpus, DomainPrior({1: 1.0}))
        assert any("lacks time/pos" in w for w in result["warnings"])
        block = result["tracks"]["0"]
        assert block["reports"] == ["r1"]
        assert block["excluded"] == ["r2"]
        assert block["best_paths"][0]["vertices"] == [1]

    def test_block_without_any_metadata_renders(self):
        corpus = EvidenceCorpus(
            AB, (Report("r1", make_mass(AB, [(("A",), 0.6), (("A", "B"), 0.4)])),)
        )
        result = run_pipeline(corpus, DomainPrior({1: 1.0}))
        block = result["tracks"]["0"]
        assert block["reports"] == []  # no graph to build
        assert block["best_paths"] == []
        assert "no reports with time" in format_result(result)

    def test_categorical_report_vertex_mass_capped(self):
        corpus = EvidenceCorpus(
            AB,
            (
                Report("r1", make_mass(AB, [(("A",), 1.0)]), 0.0, (0.0, 0.0)),
                Report("r2", make_mass(AB, [(("A",), 0.5), (("A", "B"), 0.5)]), 3600.0, (1.0, 0.0)),
            ),
        )
        result = run_pipeline(corpus, DomainPrior({1: 1.0}))
        graph = track_graph(corpus, result["tracks"]["0"]["reports"], PipelineConfig())
        assert graph.n == 2
        assert graph.p[0] < 1.0  # m(frame) = 0 would otherwise give p = 1

    def test_no_decision_means_no_decision_output(self):
        doc = generate_scenario_doc(ScenarioConfig(seed=1, targets=2, reports_per_target=2))
        corpus, prior = parse_document(doc)
        result = run_pipeline(corpus, prior, PipelineConfig(restarts=5))
        assert "decision" not in result

    @pytest.mark.parametrize("stage", list(BROKEN_STAGE))
    def test_stage_error_is_wrapped(self, tmp_path, capsys, monkeypatch, stage):
        def broken(*args):
            raise ArithmeticError("broken")

        monkeypatch.setattr(BROKEN_STAGE[stage], broken)
        corpus, prior = parse_document(PINNED_DECISION_DOC)
        with pytest.raises(StageError) as failure:
            run_pipeline(corpus, prior, decision=parse_decision(PINNED_DECISION_DOC))
        assert failure.value.stage == stage
        assert isinstance(failure.value.cause, ArithmeticError)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(PINNED_DECISION_DOC))
        assert main(["pipeline", str(path)]) == 3
        assert capsys.readouterr().err == f"error: stage {stage!r} failed: broken\n"

    @pytest.mark.parametrize("n_reports", [7, 12, 13])
    def test_normalization_up_to_dp_limit(self, n_reports):
        # fast targets analysed at 25 km/h: every edge of the block carries doubt
        cfg = ScenarioConfig(
            seed=2, targets=1, reports_per_target=n_reports, v_max_kmh=10_000.0, area_km=20_000.0
        )
        corpus, _ = parse_document(generate_scenario_doc(cfg))
        result = run_pipeline(corpus, DomainPrior({1: 1.0}), PipelineConfig(restarts=2))
        (block,) = result["tracks"].values()
        assert len(block["reports"]) == n_reports
        normalized = n_reports <= 12
        assert ("conflict" in block) is normalized
        for entry in block["best_paths"]:
            assert ("plausibility_norm" in entry) is ("support" in entry) is normalized
            if normalized:
                assert 0.0 <= entry["support"] <= entry["plausibility_norm"] <= 1.0
        assert ("n/a" in format_result(result)) is not normalized

    def test_stage_subset(self):
        doc = generate_scenario_doc(ScenarioConfig(seed=1, targets=2, reports_per_target=2))
        corpus, prior = parse_document(doc)
        result = run_pipeline(corpus, prior, PipelineConfig(restarts=5), stages=frozenset())
        assert "membership" not in result
        assert "posterior" not in result
        assert "tracks" not in result
        assert set(result) == {"partition", "metaconflict"}


class TestOutputs:
    def test_json_schema_keys(self):
        doc = generate_scenario_doc(ScenarioConfig(seed=5, targets=2, reports_per_target=3))
        corpus, prior = parse_document(doc)
        out = run_pipeline(corpus, prior, PipelineConfig(restarts=10))
        assert {"partition", "metaconflict", "membership", "posterior", "tracks"} <= set(out)
        assert set(out["metaconflict"]) == {"c0", "clusters", "mcf"}
        for block in out["tracks"].values():
            for entry in block["best_paths"]:
                assert {"vertices", "plausibility_unnorm"} <= set(entry)

    def test_render_json_deterministic(self):
        doc = generate_scenario_doc(ScenarioConfig(seed=5, targets=2, reports_per_target=3))
        corpus, prior = parse_document(doc)
        a = render_json(run_pipeline(corpus, prior, PipelineConfig(restarts=8)))
        corpus2, prior2 = parse_document(doc)
        b = render_json(run_pipeline(corpus2, prior2, PipelineConfig(restarts=8)))
        assert a == b

    def test_format_result_mentions_key_sections(self):
        doc = generate_scenario_doc(ScenarioConfig(seed=5, targets=2, reports_per_target=3))
        corpus, prior = parse_document(doc)
        text = format_result(run_pipeline(corpus, prior, PipelineConfig(restarts=8)))
        for token in ("Partition", "Posterior", "Membership", "Tracks for block"):
            assert token in text
        # plausibilities carry 6 decimals
        assert ".000000" in text or "0.0" not in text


PINNED_DECISION_DOC = doc_with(
    [
        report_raw("r1", GOOD_MASSES, time=0.0, pos=[0.0, 0.0]),
        report_raw("r2", [{"set": ["A"], "mass": 0.3}, {"set": ["A", "B"], "mass": 0.7}], time=1800.0, pos=[30.0, 1.0]),
        report_raw("r3", [{"set": ["B"], "mass": 0.7}, {"set": ["A", "B"], "mass": 0.3}], time=900.0, pos=[40.0, 2.0]),
        report_raw("r4", [{"set": ["B"], "mass": 0.4}, {"set": ["A", "B"], "mass": 0.6}], time=3600.0, pos=[38.0, 9.0]),
        report_raw("r5", [{"set": ["A", "B"], "mass": 1.0}], time=2700.0, pos=[12.0, 3.0]),
    ],
    prior={"1": 0.2, "2": 0.5, "3": 0.3},
    decision={
        "utilities": {"win": 1.0, "draw": 0.4, "lose": 0.0},
        "makers": [
            {
                "id": "blue",
                "choices": [
                    {"id": "hold", "masses": [{"set": ["draw"], "mass": 0.6}, {"set": ["win", "lose"], "mass": 0.4}]},
                    {"id": "probe", "masses": [{"set": ["win"], "mass": 0.3}, {"set": ["win", "draw", "lose"], "mass": 0.7}]},
                ],
            },
            {
                "id": "red",
                "choices": [
                    {"id": "screen", "masses": [{"set": ["lose"], "mass": 0.2}, {"set": ["draw", "win"], "mass": 0.8}]},
                    {"id": "sprint", "masses": [{"set": ["win"], "mass": 0.5}, {"set": ["lose"], "mass": 0.5}]},
                ],
            },
        ],
    },
)


def test_pipeline_outputs_are_pinned():
    # the JSON and the tables of whole pipeline runs, byte for byte: the gen
    # --seed 3 ladder rungs 3x4, 4x6, 5x6 and 6x8 at the CLI defaults, and one
    # hand-written corpus with a decision section played at rho 0.5. Only a
    # change that means to alter a result may re-pin this digest
    digest = hashlib.sha256()
    for targets, per_target in ((3, 4), (4, 6), (5, 6), (6, 8)):
        doc = generate_scenario_doc(ScenarioConfig(seed=3, targets=targets, reports_per_target=per_target))
        result = run_pipeline(*parse_document(doc))
        digest.update(render_json(result).encode())
        digest.update(format_result(result).encode())
    corpus, prior = parse_document(PINNED_DECISION_DOC)
    result = run_pipeline(corpus, prior, PipelineConfig(rho=0.5), decision=parse_decision(PINNED_DECISION_DOC))
    digest.update(render_json(result).encode())
    digest.update(format_result(result).encode())
    assert digest.hexdigest() == "cf6bba16f247587c089f7d59bd303193083774f5ab34c7474a84b335408ffbf2"


@pytest.mark.parametrize("corpus", ["gen", "decision"])
def test_listing_order_is_not_evidence(corpus, tmp_path, capsys):
    # the gen --seed 3 3x4 corpus and the pinned decision corpus, as listed
    # and in three shuffles: the pipeline's tables and JSON, byte for byte
    doc = PINNED_DECISION_DOC
    if corpus == "gen":
        doc = generate_scenario_doc(ScenarioConfig(seed=3, targets=3, reports_per_target=4))
    outputs = set()
    for k in range(4):
        shuffled = copy.deepcopy(doc)
        if k:
            random.Random(k).shuffle(shuffled["reports"])
            ids = [r["id"] for r in shuffled["reports"]]
            assert ids != sorted(ids)
        path, out = tmp_path / f"corpus{k}.json", tmp_path / f"out{k}.json"
        path.write_text(json.dumps(shuffled), encoding="utf-8")
        assert main(["pipeline", str(path), "--out", str(out)]) == 0
        outputs.add((capsys.readouterr().out, out.read_text(encoding="utf-8")))
    assert len(outputs) == 1
