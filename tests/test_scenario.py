import json
import math

import pytest

from evintel.cluster import cluster_conflict
from evintel.ds import ValidationError
from evintel.pipeline import parse_document
from evintel.scenario import ScenarioConfig, generate_scenario, generate_scenario_doc, target_focals


class TestConfig:
    def test_frame_too_small(self):
        with pytest.raises(ValidationError, match="disjoint"):
            ScenarioConfig(targets=5, frame_size=4)

    def test_contradiction_range(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(contradiction=1.5)

    def test_counts(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(targets=0)


class TestGeneration:
    def test_deterministic_output(self):
        cfg = ScenarioConfig(seed=7)
        assert generate_scenario(cfg) == generate_scenario(cfg)

    def test_seed_changes_output(self):
        assert generate_scenario(ScenarioConfig(seed=1)) != generate_scenario(ScenarioConfig(seed=2))

    def test_report_count(self):
        doc = generate_scenario_doc(ScenarioConfig(targets=3, reports_per_target=4))
        assert len(doc["reports"]) == 12

    def test_focals_are_disjoint(self):
        cfg = ScenarioConfig(targets=3, frame_size=7)
        focals = target_focals(cfg)
        seen = set()
        for f in focals:
            assert f
            assert not (seen & set(f))
            seen |= set(f)

    def test_same_target_reports_do_not_conflict(self):
        cfg = ScenarioConfig(seed=3, targets=3, reports_per_target=4, contradiction=0.0)
        corpus, _ = parse_document(generate_scenario_doc(cfg))
        by_focal = {}
        for r in corpus.reports:
            focal = max(r.evidence.masses, key=r.evidence.masses.get)
            by_focal.setdefault(focal, []).append(r.id)
        for ids in by_focal.values():
            for a in ids:
                for b in ids:
                    if a < b:
                        assert cluster_conflict(corpus, [a, b]) == 0.0

    def test_walk_respects_speed_limit(self):
        cfg = ScenarioConfig(seed=11, targets=2, reports_per_target=6, v_max_kmh=20.0)
        doc = generate_scenario_doc(cfg)
        corpus, _ = parse_document(doc)
        groups = {}
        for r in corpus.reports:
            focal = max(r.evidence.masses, key=r.evidence.masses.get)
            groups.setdefault(focal, []).append(r)
        for reports in groups.values():
            reports.sort(key=lambda r: r.time_s)
            for a, b in zip(reports, reports[1:]):
                dt_h = (b.time_s - a.time_s) / 3600.0
                dist = math.dist(a.pos_km, b.pos_km)
                assert dist <= cfg.v_max_kmh * dt_h + 1e-9

    def test_positions_stay_in_area(self):
        cfg = ScenarioConfig(seed=5, area_km=10.0)
        for r in generate_scenario_doc(cfg)["reports"]:
            x, y = r["pos"]
            assert 0.0 <= x <= 10.0
            assert 0.0 <= y <= 10.0

    def test_prior_support(self):
        doc = generate_scenario_doc(ScenarioConfig(targets=3))
        assert sorted(doc["prior"]) == ["1", "2", "3", "4"]
        doc = generate_scenario_doc(ScenarioConfig(targets=3, r_max=6))
        assert len(doc["prior"]) == 6

    def test_round_trip_ingest(self, tmp_path):
        from evintel.pipeline import load_document, parse_document

        for seed in range(100):
            cfg = ScenarioConfig(seed=seed, targets=2 + seed % 3, reports_per_target=3)
            path = tmp_path / f"s{seed}.json"
            path.write_text(generate_scenario(cfg), encoding="utf-8")
            corpus, prior = parse_document(load_document(path), where=str(path))
            assert len(corpus.reports) == cfg.targets * cfg.reports_per_target
            assert prior.r_max == cfg.targets + 1

    def test_output_is_valid_json(self):
        doc = json.loads(generate_scenario(ScenarioConfig(seed=9)))
        assert set(doc) == {"frame", "prior", "reports"}
