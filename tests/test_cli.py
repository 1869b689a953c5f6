import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evintel import decide, pipeline
from evintel.cli import main

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


def edited(doc, path, value):
    """A deep copy of ``doc`` with the node at ``path`` (keys and list indices) replaced."""
    doc = copy.deepcopy(doc)
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
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

    def test_pipeline_full(self, scenario_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["pipeline", str(scenario_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert {"partition", "metaconflict", "membership", "posterior", "tracks"} <= set(doc)

    def test_rmax_override(self, scenario_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["posterior", str(scenario_file), "--rmax", "5", "--out", str(out)]) == 0
        assert sorted(json.loads(out.read_text())["posterior"]) == ["1", "2", "3", "4", "5"]


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

    def test_bad_rho_exit_2(self, scenario_file):
        assert main(["pipeline", str(scenario_file), "--rho", "1.5"]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("time", float("inf")), ("pos", [float("nan"), 0.0]), ("time", "5"), ("pos", [1.0, 2.0, 3.0])],
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
            pytest.param((), [1, 2], "the document must be a JSON object", id="document-list"),
            pytest.param(("decision",), [], "'decision' must be an object", id="decision-list"),
            pytest.param(MAKERS, {"id": "dm1"}, "decision 'makers' must be a list", id="makers-object"),
            pytest.param(MAKERS + (1,), "dm2", "decision makers[1] must be an object with a unique 'id'", id="maker-string"),
            pytest.param(MAKERS + (1, "id"), "dm1", "decision makers[1] must be an object with a unique 'id'", id="maker-id-twice"),
            pytest.param(MAKERS + (0, "choices"), [], "maker 'dm1' needs a nonempty list of 'choices'", id="choices-empty"),
            pytest.param(CHOICES + (0,), 7, "maker 'dm2': choices[0] must be an object", id="choice-number"),
            pytest.param(CHOICES + (1, "id"), "X", "maker 'dm2': choices[1] must be an object with an 'id' unique", id="choice-id-twice"),
            pytest.param(UTILITY, "zero", "utility 'bad' must be a number", id="utility-string"),
            pytest.param(UTILITY, float("inf"), "choice 'X': utility for 'bad' is not finite", id="utility-infinite"),
            pytest.param(
                UTILITY[:-1], {"good": 1e308, "bad": -1e308}, "utilities must span a finite range", id="utility-range-overflows"
            ),
        ],
    )
    def test_malformed_input_exit_2(self, tmp_path, capsys, path, value, message):
        bad = write_json(tmp_path / "bad.json", edited(FUZZ_DOC, path, value))
        commands = [["pipeline"]] + ([["decide"]] if not path or path[0] == "decision" else [])
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

    def test_threads_below_one_exit_2(self, scenario_file, capsys):
        assert main(["pipeline", str(scenario_file), "--threads", "0"]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err

    def test_nan_vmax_exit_2(self, scenario_file, capsys):
        # nan fails every comparison, so a check written as v <= 0 lets it through
        assert main(["pipeline", str(scenario_file), "--vmax", "nan"]) == 2
        assert "v_max must be positive" in capsys.readouterr().err
        assert main(["pipeline", str(scenario_file), "--vmax", "inf"]) == 0  # no speed limit

    def test_negative_max_sweeps_exit_2(self, scenario_file, capsys):
        assert main(["pipeline", str(scenario_file), "--max-sweeps", "-3"]) == 2
        assert "max_sweeps must be >= 0" in capsys.readouterr().err
        assert main(["pipeline", str(scenario_file), "--max-sweeps", "0"]) == 0


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
    def test_all_checks_pass(self, capsys):
        assert main(["oracle-check", "--seed", "1", "--trials", "8"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "FAIL" not in out
