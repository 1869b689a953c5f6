import argparse
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evintel
from conftest import assert_pinned
from evintel import cluster, decide, ds, oracle, pipeline, posterior, tracks
from evintel.cli import build_parser, main
from evintel.oracle import run_all_checks
from evintel.scenario import ScenarioConfig, generate_scenario

DECISION_DOC = {
    "frame": ["A", "B"],
    "prior": {"1": 0.5, "2": 0.5},
    "reports": [
        {"id": "r1", "masses": [{"set": ["A"], "mass": 0.7}, {"set": ["A", "B"], "mass": 0.3}]},
        {"id": "r2", "masses": [{"set": ["B"], "mass": 0.6}, {"set": ["A", "B"], "mass": 0.4}]},
    ],
    "decision": {
        "utilities": {"good": 1.0, "bad": 0.0},
        "makers": [
            {
                "id": "dm1",
                "choices": [
                    {
                        "id": "X",
                        "masses": [
                            {"set": ["good"], "mass": 0.2},
                            {"set": ["bad"], "mass": 0.1},
                            {"set": ["good", "bad"], "mass": 0.7},
                        ],
                    }
                ],
            },
            {
                "id": "dm2",
                "choices": [
                    {"id": "Y", "masses": [{"set": ["good"], "mass": 0.4}, {"set": ["bad"], "mass": 0.4}, {"set": ["good", "bad"], "mass": 0.2}]},
                    {"id": "Z", "masses": [{"set": ["good", "bad"], "mass": 1.0}]},
                ],
            },
        ],
    },
}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


DROP = object()  # as an ``edited`` value: remove the node instead


def edited(doc, path, value):
    """A deep copy of ``doc`` with the node at ``path`` (keys and list indices)
    replaced by ``value``, or removed if ``value`` is ``DROP``."""
    doc = copy.deepcopy(doc)
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


# DECISION_DOC with kinematics, so that every stage has input to reject
FUZZ_DOC = copy.deepcopy(DECISION_DOC)
FUZZ_DOC["reports"][0].update(time=0.0, pos=[0.0, 0.0])
FUZZ_DOC["reports"][1].update(time=600.0, pos=[1.0, 1.0])


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    assert main(["gen", "--seed", "3", "--targets", "2", "--reports-per-target", "3", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--seed", "7", "--out", str(a)]) == 0
        assert main(["gen", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_frame_too_small_exit_2(self, capsys):
        assert main(["gen", "--targets", "5", "--frame-size", "3"]) == 2
        assert "disjoint" in capsys.readouterr().err

    def test_stdout_output(self, capsys):
        assert main(["gen", "--seed", "1", "--targets", "2", "--reports-per-target", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reports"]) == 4

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            # nan fails every comparison, so a check written as x <= 0 lets it through
            ("--area", "nan", "must be positive"),
            ("--vmax", "nan", "must be positive"),
            ("--time-span", "nan", "must be positive"),
            ("--area", "inf", "must be finite"),
            ("--time-span", "inf", "must be finite"),
        ],
    )
    def test_non_finite_kinematics_exit_2(self, capsys, flag, value, message):
        assert main(["gen", flag, value]) == 2
        assert message in capsys.readouterr().err

    def test_infinite_speed_limit_accepted(self, capsys):
        assert main(["gen", "--vmax", "inf"]) == 0
        assert "NaN" not in capsys.readouterr().out

    def test_infinite_speed_limit_spreads_reports_over_the_box(self, capsys):
        # an infinite step clamped to the box would put every later report on a corner
        assert main(["gen", "--vmax", "inf", "--targets", "2", "--reports-per-target", "4"]) == 0
        positions = [r["pos"] for r in json.loads(capsys.readouterr().out)["reports"]]
        assert len(positions) == 8
        assert all(0.0 < x < 50.0 and 0.0 < y < 50.0 for x, y in positions)


class TestStageCommands:
    def test_cluster_sections(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["cluster", str(scenario_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"partition", "metaconflict"}
        assert "Partition" in capsys.readouterr().out

    def test_specify_sections(self, scenario_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["specify", str(scenario_file), "--out", str(out)]) == 0
        assert "membership" in json.loads(out.read_text())

    def test_posterior_sections(self, scenario_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["posterior", str(scenario_file), "--out", str(out)]) == 0
        assert "posterior" in json.loads(out.read_text())

    def test_tracks_with_dot(self, scenario_file, tmp_path):
        out = tmp_path / "out.json"
        dot = tmp_path / "graph.dot"
        assert main(["tracks", str(scenario_file), "--out", str(out), "--dot", str(dot)]) == 0
        assert "tracks" in json.loads(out.read_text())
        dots = list(tmp_path.glob("graph*.dot"))
        assert dots
        assert all("digraph" in d.read_text() for d in dots)

    def test_single_block_dot_uses_exact_path(self, tmp_path):
        scenario = tmp_path / "one.json"
        assert main(["gen", "--seed", "4", "--targets", "1", "--reports-per-target", "3", "--out", str(scenario)]) == 0
        dot = tmp_path / "single.dot"
        assert main(["tracks", str(scenario), "--rmax", "1", "--dot", str(dot)]) == 0
        assert dot.exists()
        assert "digraph" in dot.read_text()

    def test_pipeline_dot_files_are_pinned(self, tmp_path):
        # one file per block of the gen --seed 3 3x4 corpus, byte for byte
        # against tests/pinned/. Only a change that means to alter a result
        # may rewrite them, from the repository root with
        # PYTHONPATH=src python -m evintel.cli gen --seed 3 --targets 3 --reports-per-target 4 --out g.json && PYTHONPATH=src python -m evintel.cli pipeline g.json --dot tests/pinned/g.dot && rm g.json
        corpus = tmp_path / "corpus.json"
        assert main(["gen", "--seed", "3", "--targets", "3", "--reports-per-target", "4", "--out", str(corpus)]) == 0
        assert main(["pipeline", str(corpus), "--dot", str(tmp_path / "g.dot")]) == 0
        dots = sorted(tmp_path.glob("*.dot"))
        assert [d.name for d in dots] == ["g_block0.dot", "g_block1.dot", "g_block2.dot"]
        for dot in dots:
            assert_pinned(dot.name, dot.read_bytes())

    def test_pipeline_full(self, scenario_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["pipeline", str(scenario_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert {"partition", "metaconflict", "membership", "posterior", "tracks"} <= set(doc)

    def test_rmax_override(self, scenario_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["posterior", str(scenario_file), "--rmax", "5", "--out", str(out)]) == 0
        assert sorted(json.loads(out.read_text())["posterior"]) == ["1", "2", "3", "4", "5"]

    def test_gapped_prior_posterior_lists_only_its_counts(self, tmp_path, capsys):
        # the output grows with the prior's entries, not with its largest count
        doc = {"frame": DECISION_DOC["frame"], "prior": {"1": 0.5, "200000": 0.5}, "reports": DECISION_DOC["reports"]}
        path, out = write_json(tmp_path / "gap.json", doc), tmp_path / "out.json"
        assert main(["posterior", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["posterior"].keys() == {"1", "200000"}
        assert out.stat().st_size < 2048
        assert len(capsys.readouterr().out.splitlines()) < 50


STAGE_COMMANDS = ("cluster", "specify", "posterior", "tracks", "pipeline")
NON_CONFIG_DESTS = {"command", "input", "out", "rmax", "threads", "dot"}


class TestConfigFlags:
    @pytest.mark.parametrize("command", ("gen",) + STAGE_COMMANDS)
    def test_every_flag_is_a_config_field_or_a_known_option(self, command):
        # _config passes on only the parsed names that are fields, so any other name is dropped silently
        cls = ScenarioConfig if command == "gen" else pipeline.PipelineConfig
        (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for a in commands.choices[command]._actions if a.dest != "help"}
        stray = dests - {f.name for f in dataclasses.fields(cls)} - NON_CONFIG_DESTS
        assert not stray

    def test_no_flags_take_the_config_defaults(self, tmp_path, capsys):
        assert main(["gen"]) == 0
        text = capsys.readouterr().out
        assert text == generate_scenario(ScenarioConfig())
        path, out = tmp_path / "corpus.json", tmp_path / "out.json"
        path.write_text(text)
        assert main(["pipeline", str(path), "--out", str(out)]) == 0
        corpus, prior = pipeline.parse_document(pipeline.load_document(path), where=str(path))
        result = pipeline.run_pipeline(corpus, prior, pipeline.PipelineConfig())
        assert capsys.readouterr().out == pipeline.format_result(result)
        assert out.read_text() == pipeline.render_json(result)


SET = ("reports", 0, "masses", 0, "set")
MASS = ("reports", 1, "masses", 0, "mass")
MAKERS = ("decision", "makers")
CHOICES = MAKERS + (1, "choices")
UTILITY = ("decision", "utilities", "bad")


class TestExitCodes:
    def test_validation_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "frame": ["A"],
                    "prior": {"1": 1.0},
                    "reports": [{"id": "r1", "masses": [{"set": ["A"], "mass": 0.9}]}],
                }
            )
        )
        assert main(["cluster", str(bad)]) == 2
        assert "r1" in capsys.readouterr().err

    def test_unknown_element_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "frame": ["A"],
                    "prior": {"1": 1.0},
                    "reports": [{"id": "r1", "masses": [{"set": ["Z"], "mass": 1.0}]}],
                }
            )
        )
        assert main(["cluster", str(bad)]) == 2
        assert "'Z'" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["pipeline", str(tmp_path / "none.json")]) == 2

    def test_input_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"frame": ["Sjöberg"]}'.encode("latin-1"))
        assert main(["pipeline", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text (")

    def test_input_directory_exit_2(self, tmp_path, capsys):
        assert main(["pipeline", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: cannot read (")

    @pytest.mark.parametrize("command, flag", [("gen", "--out"), ("pipeline", "--out"), ("tracks", "--dot")])
    def test_output_into_missing_directory_exit_2(self, scenario_file, tmp_path, capsys, command, flag):
        missing = tmp_path / "missing"
        argv = [command] if command == "gen" else [command, str(scenario_file)]
        assert main(argv + [flag, str(missing / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}{os.sep}out")  # --dot adds a block suffix
        assert err.endswith(": cannot write (No such file or directory)\n")

    def test_bad_rho_exit_2(self, scenario_file):
        assert main(["pipeline", str(scenario_file), "--rho", "1.5"]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("time", float("inf")),
            ("pos", [float("nan"), 0.0]),
            ("time", "5"),
            ("pos", [1.0, 2.0, 3.0]),
            ("time", None),
            ("pos", None),
        ],
    )
    def test_non_finite_time_or_pos_exit_2(self, scenario_file, tmp_path, capsys, field, value):
        doc = json.loads(scenario_file.read_text())
        doc["reports"][1][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # writes the JSON extensions Infinity and NaN
        assert main(["pipeline", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "reports[1]" in err and "malformed 'time' or 'pos'" in err

    @pytest.mark.parametrize("where, message", [("mass", "not a finite number"), ("prior", "'prior'")])
    def test_nan_mass_or_prior_exit_2(self, scenario_file, tmp_path, capsys, where, message):
        doc = json.loads(scenario_file.read_text())
        if where == "mass":
            doc["reports"][0]["masses"][0]["mass"] = float("nan")
        else:
            doc["prior"]["1"] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["pipeline", str(bad)]) == 2
        err = capsys.readouterr().err
        assert message in err and "not a finite number" in err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            pytest.param(SET, "AB", "reports[0] (id 'r1'): masses[0]: 'set' must be a list", id="set-string"),
            pytest.param(SET, 3, "reports[0] (id 'r1'): masses[0]: 'set' must be a list", id="set-number"),
            pytest.param(SET, [["A"]], "masses[0]: 'set' must be a list of frame elements", id="set-nested"),
            pytest.param(MASS, "0.6", "reports[1] (id 'r2'): masses[0]: 'mass' must be a number", id="mass-string"),
            pytest.param(MASS, True, "masses[0]: 'mass' must be a number", id="mass-bool"),
            pytest.param(MASS, 10**400, "masses[0]: 'mass' must be a number", id="mass-huge-int"),
            pytest.param(("frame", 1), ["B"], "'frame' elements must be strings", id="frame-list-element"),
            pytest.param(("frame",), [], "'frame': frame must be nonempty", id="frame-empty"),
            pytest.param(("prior", "1"), "0.5", "'prior' must map counts to probabilities", id="prior-string"),
            pytest.param(("prior", "1_0"), 0.0, "'prior': count '1_0' must be written in plain decimal digits", id="prior-key-underscore"),
            pytest.param(("prior", " 3 "), 0.0, "'prior': count ' 3 ' must be written in plain decimal digits", id="prior-key-spaces"),
            pytest.param(("prior", "+3"), 0.0, "'prior': count '+3' must be written in plain decimal digits", id="prior-key-sign"),
            pytest.param(("prior", "01"), 0.0, "'prior': count '01' must be written in plain decimal digits", id="prior-key-leading-zero"),
            pytest.param((), [1, 2], "the document must be a JSON object", id="document-list"),
            pytest.param(("frame",), DROP, "document needs 'frame', 'prior' and 'reports'", id="frame-missing"),
            pytest.param(("prior",), DROP, "document needs 'frame', 'prior' and 'reports'", id="prior-missing"),
            pytest.param(("reports",), DROP, "document needs 'frame', 'prior' and 'reports'", id="reports-missing"),
            pytest.param(("reports",), [], "corpus must contain at least one report", id="reports-empty"),
            pytest.param(("prior",), {}, "'prior': prior must not be empty", id="prior-empty"),
            pytest.param(("decision",), [], "'decision' must be an object", id="decision-list"),
            pytest.param(MAKERS, {"id": "dm1"}, "decision 'makers' must be a list", id="makers-object"),
            pytest.param(MAKERS + (1,), "dm2", "decision makers[1] must be an object with a unique 'id'", id="maker-string"),
            pytest.param(MAKERS + (1, "id"), "dm1", "decision makers[1] must be an object with a unique 'id'", id="maker-id-twice"),
            pytest.param(MAKERS + (0, "choices"), [], "maker 'dm1' needs a nonempty list of 'choices'", id="choices-empty"),
            pytest.param(CHOICES + (0,), 7, "maker 'dm2': choices[0] must be an object", id="choice-number"),
            pytest.param(CHOICES + (1, "id"), "X", "maker 'dm2': choices[1] must be an object with an 'id' unique", id="choice-id-twice"),
            pytest.param(UTILITY[:-1], {}, "decision section needs nonempty 'utilities'", id="utilities-empty"),
            pytest.param(UTILITY, "zero", "utility 'bad' must be a number", id="utility-string"),
            pytest.param(UTILITY, float("inf"), "choice 'X': utility for 'bad' is not finite", id="utility-infinite"),
            pytest.param(
                UTILITY[:-1], {"good": 1e308, "bad": -1e308}, "utilities must span a finite range", id="utility-range-overflows"
            ),
        ],
    )
    def test_malformed_input_exit_2(self, tmp_path, capsys, path, value, message):
        bad = write_json(tmp_path / "bad.json", edited(FUZZ_DOC, path, value))
        commands = [["pipeline"], ["cluster"], ["specify"], ["posterior"], ["tracks"]]
        commands += [["decide"]] if not path or path[0] == "decision" else []
        for command in commands:
            assert main(command + [str(bad)]) == 2, command
            err = capsys.readouterr().err
            assert f"{bad}: " in err and message in err, (command, err)

    @pytest.mark.parametrize("rho", ["1.5", "-0.5", "nan", "inf"])
    def test_bad_rho_refused_alike_before_any_analysis(self, tmp_path, capsys, monkeypatch, rho):
        path = write_json(tmp_path / "d.json", DECISION_DOC)

        def no_analysis(*args):
            raise AssertionError("analysis ran")

        monkeypatch.setattr(decide, "game_preferences", no_analysis)
        monkeypatch.setattr(pipeline, "partition_search", no_analysis)
        for command in ("decide", "pipeline"):
            assert main([command, str(path), f"--rho={rho}"]) == 2, command
            assert capsys.readouterr().err == "error: rho must lie in [0, 1]\n", command

    def test_relative_path_named_alike_in_every_message(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bad_corpus = edited(FUZZ_DOC, ("reports",), "r1")
        bad_decision = edited(FUZZ_DOC, MAKERS, {"id": "dm1"})
        no_decision = edited(FUZZ_DOC, ("decision",), None)
        for command, doc in [
            ("pipeline", bad_corpus),
            ("pipeline", bad_decision),
            ("decide", bad_decision),
            ("decide", no_decision),
        ]:
            write_json(tmp_path / "x.json", doc)
            assert main([command, "./x.json"]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: x.json: "), (command, err)

    @pytest.mark.parametrize("command", ["cluster", "gen"])
    def test_rmax_below_one_exit_2(self, scenario_file, capsys, command):
        argv = [command] if command == "gen" else [command, str(scenario_file)]
        assert main(argv + ["--rmax", "0"]) == 2
        assert capsys.readouterr().err == "error: r_max must be >= 1\n"

    def test_failure_outside_the_stages_exit_3(self, scenario_file, capsys, monkeypatch):
        def broken(result):
            raise RuntimeError("table failed")

        monkeypatch.setattr(pipeline, "format_result", broken)
        assert main(["cluster", str(scenario_file)]) == 3
        assert capsys.readouterr().err == "unexpected error: table failed\n"

    def test_threads_below_one_exit_2(self, scenario_file, capsys):
        assert main(["pipeline", str(scenario_file), "--threads", "0"]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err

    def test_nan_vmax_exit_2(self, scenario_file, capsys):
        # nan fails every comparison, so a check written as v <= 0 lets it through
        assert main(["pipeline", str(scenario_file), "--vmax", "nan"]) == 2
        assert "v_max must be positive" in capsys.readouterr().err
        assert main(["pipeline", str(scenario_file), "--vmax", "inf"]) == 0  # no speed limit


def _node_paths(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False)
    | st.sampled_from(["A", "B", "good", "bad", "r1", "dm1", "X", "Y", "masses", "set", "mass"])
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)


class TestFuzz:
    @settings(
        max_examples=150,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(path=st.sampled_from(list(_node_paths(FUZZ_DOC))), value=JSON_VALUES)
    def test_one_replaced_node_exits_0_or_2(self, tmp_path, path, value):
        corpus = write_json(tmp_path / "fuzz.json", edited(FUZZ_DOC, path, value))
        for command in (["pipeline", "--restarts", "2"], ["decide"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(command + [str(corpus)])
            assert code in (0, 2), (command, path, value, err.getvalue())


class TestDecide:
    def test_decide_outputs(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(DECISION_DOC))
        out = tmp_path / "out.json"
        assert main(["decide", str(path), "--rho", "0.9", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["decision"]
        assert doc["intervals"]["dm1"]["X"] == [pytest.approx(0.2), pytest.approx(0.9)]
        assert doc["assignment"] == {"dm1": "X", "dm2": "Z"}
        text = capsys.readouterr().out
        assert "preference" in text

    def test_decide_without_section_exit_2(self, scenario_file):
        assert main(["decide", str(scenario_file)]) == 2

    def test_decide_on_a_decision_only_document(self, tmp_path, capsys):
        path = write_json(tmp_path / "d.json", {"decision": DECISION_DOC["decision"]})
        assert main(["decide", str(path), "--rho", "0.5"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("Decision analysis\n") and "preference" in text

    @pytest.mark.parametrize("rho", [None, "0.5", "0.9"])
    def test_decide_and_pipeline_write_the_same_decision(self, tmp_path, rho):
        path = write_json(tmp_path / "d.json", DECISION_DOC)
        extra = ["--rho", rho] if rho is not None else []
        decided, piped = tmp_path / "decide.json", tmp_path / "pipeline.json"
        assert main(["decide", str(path), "--out", str(decided)] + extra) == 0
        assert main(["pipeline", str(path), "--out", str(piped)] + extra) == 0
        assert json.loads(decided.read_text()) == {"decision": json.loads(piped.read_text())["decision"]}

    def test_pipeline_carries_decision(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(DECISION_DOC))
        out = tmp_path / "out.json"
        assert main(["pipeline", str(path), "--rho", "0.5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["decision"]["assignment"] == {"dm1": "X", "dm2": "Y"}
        assert sum(doc["decision"]["preferences"].values()) == pytest.approx(1.0)


README = Path(__file__).resolve().parents[1] / "README.md"
README_COMMANDS = ("gen", "pipeline", "cluster", "specify", "posterior", "tracks", "decide", "oracle-check")


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the README line ``heading``."""
    after = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return after.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


class TestReadme:
    def test_cli_walk_through_exits_0(self, tmp_path, monkeypatch):
        """Every line of the README's CLI block, on the README's own example.json."""
        (tmp_path / "example.json").write_text(readme_block("### Corpus file", "json"), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        commands = [shlex.split(line, comments=True) for line in readme_block("## CLI", "sh").splitlines()]
        assert [argv[:2] for argv in commands] == [["evintel", c] for c in README_COMMANDS]
        for argv in commands:
            assert main(argv[1:]) == 0, argv


class TestDeterminism:
    def test_pipeline_byte_identical_across_runs_and_threads(self, scenario_file, tmp_path):
        outs = []
        for i, threads in enumerate(("1", "1", "4")):
            out = tmp_path / f"out{i}.json"
            code = main(
                ["pipeline", str(scenario_file), "--seed", "5", "--threads", threads, "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestOracleCheck:
    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_below_one_exit_2(self, capsys, trials):
        # with no trial, most checks would report ok without checking anything
        assert main(["oracle-check", "--trials", str(trials)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials must be >= 1" in captured.err
        with pytest.raises(ds.ValidationError, match="trials must be >= 1"):
            run_all_checks(trials=trials)

    def test_a_failed_pass_fail_entry_prints_its_count_and_exits_3(self, capsys, monkeypatch):
        results = [oracle.CheckResult("measured", 25, 0, 1e-16), oracle.CheckResult("pass/fail", 5, 2)]
        monkeypatch.setattr(oracle, "run_all_checks", lambda seed, trials: results)
        assert main(["oracle-check"]) == 3
        measured, pass_fail = capsys.readouterr().out.splitlines()
        assert measured.startswith("ok  ") and measured.endswith("failed 0 of 25  max_dev=1e-16")
        assert pass_fail.startswith("FAIL") and pass_fail.endswith("failed 2 of 5")
        assert "max_dev" not in pass_fail

    def test_a_nan_deviation_fails_its_trial(self):
        # max() and "dev > tol" both let a NaN through
        result = oracle._result("x", [0.0, float("nan")], 1e-9)
        assert result.failed == 1
        assert math.isnan(result.max_dev)


class TestCheckersFail:
    """Each checker's refusals and failure branches, on broken inputs or a
    production route patched to give a wrong answer."""

    def test_a_wrong_pick_fails_the_game_check(self, monkeypatch):
        monkeypatch.setattr(oracle, "sequential_play", lambda makers, rho: {m.id: "none" for m in makers})
        assert not oracle.games_agree(oracle.random_game(random.Random(0)))
        assert oracle.check_game_solver(0, 3).failed == 3

    def test_an_unequal_mcf_at_a_shared_sweep_fails_the_descent_check(self, monkeypatch):
        # at 200 sweeps the patched descent parts from the reference, so the
        # check replays sweep by sweep; where the two still share blocks, an
        # mcf one ulp off must fail it, though the parting itself is at a tie
        corpus, _ = oracle.separable_corpus(random.Random(1), n_reports=6, n_groups=3)
        prior = cluster.DomainPrior.uniform(4)
        start = cluster._random_start(corpus, prior, random.Random(0))
        descend = oracle._descend

        def parted(nudge):
            def patched(corpus, prior, blocks, sweeps, store):
                found, mcf = descend(corpus, prior, blocks, sweeps, store)
                if sweeps == 200:
                    return found[::-1], mcf
                return found, math.nextafter(mcf, 2.0) if nudge else mcf

            return patched

        monkeypatch.setattr(oracle, "_descend", parted(nudge=False))
        assert oracle.descents_agree(corpus, prior, start, 200, cluster.IMPROVEMENT_TOL / 10)
        monkeypatch.setattr(oracle, "_descend", parted(nudge=True))
        assert not oracle.descents_agree(corpus, prior, start, 200, cluster.IMPROVEMENT_TOL / 10)
        assert oracle.check_partition_descent(0, 4).failed == 4

    def test_reference_routes_refuse_mixed_frames_and_no_input(self):
        a = ds.make_mass(ds.Frame(("A", "B")), [(("A",), 1.0)])
        b = ds.make_mass(ds.Frame(("A", "C")), [(("A",), 1.0)])
        with pytest.raises(ds.ValidationError, match="different frames"):
            oracle.reference_combine(a, b)
        with pytest.raises(ds.ValidationError, match="different frames"):
            oracle.enumerate_conflict([a, a, b])
        with pytest.raises(ds.ValidationError, match="no mass functions"):
            oracle.enumerate_conflict([])


ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(evintel.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


class TestSubprocessRuns:
    """The example scripts and the oracle cross-checks, each in a fresh
    interpreter as a user runs them."""

    @pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
    def test_example_script_exits_0(self, script, tmp_path):
        done = run_python(str(script), cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        if script.name == "descent_counts.py":  # its work counts are checked in
            assert done.stdout == (ROOT / "BENCH_counts.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("args", [(), ("--trials", "100", "--seed", "7")])
    def test_oracle_check_reports_every_entry_ok(self, args, tmp_path):
        done = run_python("-m", "evintel.cli", "oracle-check", *args, cwd=tmp_path)
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 14 and all(line.startswith("ok  ") for line in lines)


# every reference route that lives in oracle.py, by the production module it left
ORACLE_NAMES = {
    tracks: ("combine_oracle", "TrackAnalysis", "OracleSizeError", "ORACLE_VERTEX_LIMIT", "_evidence_focals", "_bits_to_path"),
    posterior: ("counting_bpa_enumeration", "counting_to_mass", "prior_to_mass", "counting_frame"),
    ds: ("enumerate_conflict",),
    cluster: ("enumerate_partitions",),
}


class TestOracleIsolation:
    def test_pipeline_does_not_load_the_oracles(self, scenario_file):
        code = (
            "import sys\n"
            "from evintel import cli\n"
            f"assert cli.main(['pipeline', {str(scenario_file)!r}]) == 0\n"
            "print('evintel.oracle' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(evintel.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "False"

    def test_reference_routes_live_only_in_oracle(self):
        names = [name for moved in ORACLE_NAMES.values() for name in moved]
        for module in (evintel, *ORACLE_NAMES):
            assert [name for name in names if hasattr(module, name)] == [], module.__name__
        assert not hasattr(tracks.TrackGraph, "all_paths")
        assert all(hasattr(oracle, name) for name in names + ["all_paths"])
