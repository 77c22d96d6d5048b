"""Command line behavior: exit codes, formats, determinism.

Everything runs in process through main(argv), so the suite stays fast
and capsys sees exactly what a shell would.  Exit code contract:
0 all Holds, 1 a Fails, 2 usage or parse trouble, 3 Unknown (1 under
--strict), 4 an internal error.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_path
from bratteli import DiagramError, parse_diagram, parse_dvectors
from bratteli.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _fx(name):
    return fixture_path(name)


# a finite non-stationary presentation whose deep checks stay Unknown
_UNKNOWN_DOC = {
    "kind": "bratteli", "k": 1, "stationary": False,
    "levels": [
        {"vertices": [{"id": "y", "class": {"minimal": 1}},
                      {"id": "w", "class": "other"}],
         "edges": [{"source": "root", "range": "y"},
                   {"source": "root", "range": "w"}]},
    ] + [
        {"vertices": [{"id": "y", "class": {"minimal": 1}},
                      {"id": "w", "class": "other"}],
         "edges": [{"source": "y", "range": "y"},
                   {"source": "y", "range": "y"},
                   {"source": "y", "range": "w"},
                   {"source": "w", "range": "w"}]},
    ] * 2,
}


@pytest.fixture
def unknown_file(tmp_path):
    f = tmp_path / "unknown.json"
    f.write_text(json.dumps(_UNKNOWN_DOC))
    return str(f)


# -- Exit codes --------------------------------------------------------------

def test_validate_ordered_fixture_holds(capsys):
    code, out, err = _run(capsys, "validate", _fx("example-5-7.json"),
                          "--ordered", "--format", "text")
    assert code == 0
    assert err == ""
    assert "overall: Holds" in out
    assert "order_compat_source" in out


def test_validate_failure_exits_one(capsys):
    code, out, _ = _run(capsys, "validate", _fx("two-odometers.json"),
                        "--format", "text")
    assert code == 1
    assert "k_simple" in out and "Fails" in out


def test_validate_unknown_exits_three(capsys, unknown_file):
    code, out, _ = _run(capsys, "validate", unknown_file)
    assert code == 3
    assert json.loads(out)["reports"]


def test_strict_turns_unknown_into_failure(capsys, unknown_file):
    code, _, _ = _run(capsys, "validate", unknown_file, "--strict")
    assert code == 1


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = _run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_malformed_json_exits_two(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    code, _, err = _run(capsys, "validate", str(f))
    assert code == 2
    assert "invalid JSON" in err


# a nesting too deep for the decoder, and bytes that are not UTF-8
_UNREADABLE = {"deep": b"[" * 100000, "not-utf8": b"\xff\xfe"}


@pytest.mark.parametrize("content", sorted(_UNREADABLE))
@pytest.mark.parametrize("role", ["diagram", "d", "set"])
def test_unreadable_json_file_exits_two(capsys, tmp_path, role, content):
    f = tmp_path / "unreadable.json"
    f.write_bytes(_UNREADABLE[content])
    argv = {"diagram": ["validate", str(f)],
            "d": ["synthesize", _fx("example-5-7-unordered.json"),
                  "--d", str(f)],
            "set": ["cover", _fx("odometer.json"), "--set", str(f)]}[role]
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON")


def test_structural_defect_exits_two(capsys, tmp_path):
    doc = dict(_UNKNOWN_DOC, k=0)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, _, err = _run(capsys, "validate", str(f))
    assert code == 2
    assert "positive integer" in err



def _with_bool(doc, path):
    """A deep copy of doc with the value at path replaced by true."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    cur = doc
    for key in head:
        cur = cur[key]
    cur[last] = True
    return doc


def _rejected(capsys, tmp_path, command, doc, *argv):
    f = tmp_path / "bool.json"
    f.write_text(json.dumps(doc))
    code, _, err = _run(capsys, command, str(f), *argv)
    assert code == 2 and err.startswith("error:"), (code, err)
    return err


# bool is an int subclass in Python, but JSON true is not an integer
def test_bool_k_is_rejected(capsys, tmp_path):
    doc = _with_bool(_UNKNOWN_DOC, ["k"])
    with pytest.raises(DiagramError, match='"k"'):
        parse_diagram(json.dumps(doc))
    _rejected(capsys, tmp_path, "validate", doc)


def test_bool_minimal_class_is_rejected(capsys, tmp_path):
    doc = _with_bool(_UNKNOWN_DOC,
                     ["levels", 0, "vertices", 0, "class", "minimal"])
    with pytest.raises(DiagramError, match="vertex class"):
        parse_diagram(json.dumps(doc))
    _rejected(capsys, tmp_path, "validate", doc)


def test_bool_dvector_entry_is_rejected(capsys, tmp_path):
    with open(_fx("example-5-7.d.json")) as fh:
        dv = _with_bool(json.load(fh), ["d", 0, "values", "v1", 1])
    with pytest.raises(DiagramError, match="integer array"):
        parse_dvectors(dv)
    f = tmp_path / "d.json"
    f.write_text(json.dumps(dv))
    code, _, err = _run(capsys, "synthesize",
                        _fx("example-5-7-unordered.json"), "--d", str(f))
    assert code == 2 and "integer array" in err

def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["chain", "cover"])
def test_lookahead_is_not_a_flag(capsys, command):
    # the step relation is exact, so there is no lookahead to pass
    with pytest.raises(SystemExit) as exc:
        main([command, _fx("odometer.json"), "--depth", "2",
              "--lookahead", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --lookahead 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["orbit", "odometer.json", "--start", "v:1,1", "--steps", "-3"],
    ["validate", "example-5-7.json", "--budget", "-5"],
    ["kpush", "example-8-2.json", "--level", "1", "--vec", "1,1",
     "--zero", "--budget", "-7"],
], ids=["steps", "validate-budget", "kpush-budget"])
def test_negative_count_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], _fx(argv[1])] + argv[2:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[-2] in err and "at least 0" in err


def test_negative_budget_env_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("BDK_BUDGET", "-3")
    code, out, err = _run(capsys, "validate", _fx("example-5-7.json"))
    assert code == 2 and out == ""
    assert err == "error: BDK_BUDGET must be at least 0, got -3\n"


def test_internal_error_exits_four(capsys, monkeypatch):
    import bratteli.cli as cli

    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "cmd_towers", broken)
    code, out, err = _run(capsys, "towers", _fx("odometer.json"))
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: KeyError: 'lost'\nTraceback")


# -- Determinism -------------------------------------------------------------

def test_repeated_runs_are_byte_identical(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = _run(capsys, "validate", _fx("example-5-7.json"),
                         "--ordered")
        outs.add(out)
    assert len(outs) == 1


def test_output_flag_writes_file_and_silences_stdout(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, out, _ = _run(capsys, "validate", _fx("odometer.json"),
                        "-o", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["reports"]


# -- Telescope ---------------------------------------------------------------

def test_telescope_contracts_and_reparses(capsys):
    code, out, _ = _run(capsys, "telescope", _fx("example-5-7.json"),
                        "--levels", "0,2")
    assert code == 0
    t = parse_diagram(out)
    assert t.depth == 1
    assert t.vertices(1) == ("y1", "v1", "v2", "y2")
    assert t.root_vector() == [2, 5, 5, 2]


def test_telescope_must_anchor_at_root(capsys):
    code, _, err = _run(capsys, "telescope", _fx("example-5-7.json"),
                        "--levels", "1,2")
    assert code == 2
    assert "start at 0" in err


def test_telescope_rejects_junk_levels(capsys):
    code, _, err = _run(capsys, "telescope", _fx("example-5-7.json"),
                        "--levels", "0,two")
    assert code == 2
    assert "comma list" in err


# k = 1 with u <- u and w <- u, w repeating: w has n paths at level n,
# so its composite fiber grows one edge per skipped level
_LINEAR_DOC = {
    "kind": "bratteli", "k": 1, "stationary": True,
    "levels": [
        {"vertices": [{"id": "u", "class": {"minimal": 1}},
                      {"id": "w", "class": "other"}],
         "edges": [{"source": "root", "range": "u"},
                   {"source": "root", "range": "w"}]},
        {"vertices": [{"id": "u", "class": {"minimal": 1}},
                      {"id": "w", "class": "other"}],
         "edges": [{"source": "u", "range": "u"},
                   {"source": "u", "range": "w"},
                   {"source": "w", "range": "w"}]},
    ],
}


def test_telescope_across_1500_levels(capsys, tmp_path):
    f = tmp_path / "linear.json"
    f.write_text(json.dumps(_LINEAR_DOC))
    code, out, err = _run(capsys, "telescope", str(f), "--levels", "0,1500")
    assert (code, err) == (0, "")
    (level,) = json.loads(out)["levels"]
    ranges = [e["range"] for e in level["edges"]]
    assert ranges.count("w") == 1500
    assert ranges.count("u") == 1


# -- Towers and orbits -------------------------------------------------------

def test_towers_text_heights(capsys):
    code, out, _ = _run(capsys, "towers", _fx("odometer.json"),
                        "--level", "2", "--format", "text")
    assert code == 0
    assert out.startswith("v (height 4)")
    assert "  1:root->v#1|2:v->v#1" in out


def test_orbit_walks_to_the_top(capsys):
    code, out, _ = _run(capsys, "orbit", _fx("odometer.json"),
                        "--start", "v:1,1", "--steps", "10",
                        "--format", "text")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == "1:root->v#1|2:v->v#1"
    assert lines[-1] == "stopped: maximal(1)"


def test_orbit_reverse_hits_the_bottom(capsys):
    code, out, _ = _run(capsys, "orbit", _fx("odometer.json"),
                        "--start", "v:2,2", "--steps", "99", "--reverse")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["paths"]) == 4
    assert doc["terminal"] == {"kind": "minimal", "component": 1}


@pytest.mark.parametrize("bad", ["v", "v:one,two", "v:0,1", "zz:1,1", "v:9,1"])
def test_orbit_rejects_bad_paths(capsys, bad):
    code, _, err = _run(capsys, "orbit", _fx("odometer.json"),
                        "--start", bad, "--steps", "1")
    assert code == 2
    assert "error:" in err


# -- Transition graphs and index ---------------------------------------------

def test_transition_graphs_json(capsys):
    code, out, _ = _run(capsys, "transition-graphs", _fx("example-5-7.json"))
    assert code == 0
    docs = json.loads(out)
    assert [g["level"] for g in docs] == [2]
    assert docs[0]["edges"] == [
        {"label": "v1", "source": 2, "target": 1},
        {"label": "v2", "source": 1, "target": 2}]


def test_transition_graphs_dot(capsys):
    code, out, _ = _run(capsys, "transition-graphs", _fx("example-5-7.json"),
                        "--format", "dot")
    assert code == 0
    assert out.startswith("digraph L2 {")
    assert 'Y2 -> Y1 [label="v1"];' in out


def test_index_text(capsys):
    code, out, _ = _run(capsys, "index", _fx("example-5-7.json"),
                        "--format", "text")
    assert code == 0
    assert "level 2" in out
    assert "d1 = (-1, +1) over v1, v2" in out
    assert "d2 = (+1, -1) over v1, v2" in out


def test_check_index_holds(capsys):
    code, out, _ = _run(capsys, "check-index", _fx("example-5-7.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "Holds"
    assert doc["V_o_size"] == 2


def test_check_index_flags_thin_remainder(capsys):
    # three classes but only two remainder vertices: rank bound must fail
    code, out, _ = _run(capsys, "check-index", _fx("five-vertex.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["overall"] == "Fails"



def test_check_index_level_with_unresolved_markers(capsys, tmp_path):
    # the level-2 component vertex a has an edge from o, so the minimal
    # chain of o at level 3 leaves the components: the markers resolve
    # at level 2 but never for the whole diagram
    lev = {"vertices": [{"id": "a", "class": {"minimal": 1}},
                        {"id": "b", "class": {"minimal": 2}},
                        {"id": "o", "class": "other"}]}
    edges = [[("root", "a"), ("root", "b"), ("root", "o")],
             [("o", "a"), ("a", "a"), ("b", "b"), ("a", "o"), ("b", "o")],
             [("a", "a"), ("b", "b"), ("a", "o"), ("o", "o"), ("b", "o")]]
    doc = {"kind": "bratteli", "k": 2, "stationary": False,
           "levels": [dict(lev, edges=[{"source": s, "range": r}
                                       for s, r in es]) for es in edges]}
    f = tmp_path / "unresolved.json"
    f.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "index", str(f), "--level", "2")
    assert code == 0 and json.loads(out)["level"] == 2
    code, out, err = _run(capsys, "check-index", str(f), "--level", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: markers never resolve")

# -- Synthesis round trip ----------------------------------------------------

def test_synthesize_matches_the_ordered_fixture(capsys, tmp_path):
    dest = tmp_path / "ordered.json"
    code, out, _ = _run(capsys, "synthesize",
                        _fx("example-5-7-unordered.json"),
                        "--d", _fx("example-5-7.d.json"), "-o", str(dest))
    assert code == 0 and out == ""
    with open(_fx("example-5-7.json")) as fh:
        want = parse_diagram(fh.read())
    assert parse_diagram(dest.read_text()).to_json() == want.to_json()
    code, out, _ = _run(capsys, "validate", str(dest), "--ordered")
    assert code == 0


# -- Chains and covers -------------------------------------------------------

def test_chain_report_holds(capsys):
    code, out, _ = _run(capsys, "chain", _fx("odometer.json"),
                        "--depth", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["chain_transitive"] == "Holds"
    assert doc["nodes"] == 8
    assert doc["saturation"] == {"Y1": 8}


@pytest.mark.parametrize("name", ["odometer.json", "example-5-7.json"])
def test_chain_report_at_depth_1500(capsys, name):
    code, out, _ = _run(capsys, "chain", _fx(name), "--depth", "1500")
    assert code == 0
    doc = json.loads(out)
    assert doc["chain_transitive"] == "Holds"
    assert doc["nodes"] > 2 ** 1499
    assert set(doc["saturation"].values()) == {doc["nodes"]}


def test_chain_report_fails_with_cut(capsys):
    code, out, _ = _run(capsys, "chain", _fx("two-odometers.json"),
                        "--depth", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["witness"]["cut_size"] == 2


def test_chain_between_cylinders(capsys):
    code, out, _ = _run(capsys, "chain", _fx("odometer.json"),
                        "--start", "v:1,1,1", "--end", "v:2,2,2",
                        "--format", "text")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    assert lines[0] == "1:root->v#1|2:v->v#1|3:v->v#1"


def test_chain_closed(capsys):
    code, out, _ = _run(capsys, "chain", _fx("odometer.json"),
                        "--start", "v:1,1,1", "--closed")
    assert code == 0
    walk = json.loads(out)
    assert len(walk) == 9
    assert walk[0] == walk[-1]


def test_chain_dot_dump(capsys):
    code, out, _ = _run(capsys, "chain", _fx("odometer.json"),
                        "--depth", "1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph cylinders {")


def test_chain_usage_errors(capsys):
    code, _, err = _run(capsys, "chain", _fx("odometer.json"))
    assert code == 2 and "start path or --depth" in err
    code, _, err = _run(capsys, "chain", _fx("odometer.json"),
                        "--start", "v:1,1")
    assert code == 2 and "end path" in err


def test_cover_default_minimal_set(capsys):
    code, out, _ = _run(capsys, "cover", _fx("odometer.json"),
                        "--depth", "3", "--format", "text")
    assert code == 0
    assert out == "7\n"


def test_cover_backward(capsys):
    code, out, _ = _run(capsys, "cover", _fx("odometer.json"),
                        "--depth", "3", "--direction", "backward")
    assert code == 0
    assert json.loads(out)["steps"] == 7


def test_cover_set_file(capsys, tmp_path):
    f = tmp_path / "set.json"
    f.write_text(json.dumps(["v:1,1,1"]))
    code, out, _ = _run(capsys, "cover", _fx("odometer.json"),
                        "--set", str(f))
    assert code == 0
    assert json.loads(out)["steps"] == 7


def test_cover_rejects_bad_set_file(capsys, tmp_path):
    f = tmp_path / "set.json"
    f.write_text(json.dumps({"paths": ["v:1,1,1"]}))
    code, _, err = _run(capsys, "cover", _fx("odometer.json"),
                        "--set", str(f))
    assert code == 2
    assert "array of path strings" in err


# -- K-theory transport ------------------------------------------------------

def test_kpush_transport(capsys):
    code, out, _ = _run(capsys, "kpush", _fx("example-8-2.json"),
                        "--level", "1", "--vec", "1,1", "--ideal",
                        "--to", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["pushforward"] == {"level": 3, "vector": [4, 9]}


def test_kpush_bounded_norm_fails(capsys):
    code, out, _ = _run(capsys, "kpush", _fx("example-8-2.json"),
                        "--level", "1", "--vec", "1,1", "--ideal",
                        "--bound", "5")
    assert code == 1
    doc = json.loads(out)
    assert doc["overall"] == "Fails"
    assert doc["checks"][0]["property"] == "bounded_norm_membership"


def test_kpush_zero_class(capsys):
    code, out, _ = _run(capsys, "kpush", _fx("example-8-2.json"),
                        "--level", "1", "--vec", "0,0", "--ideal", "--zero")
    assert code == 0
    assert json.loads(out)["overall"] == "Holds"


def test_kpush_vector_length_checked(capsys):
    code, _, err = _run(capsys, "kpush", _fx("example-8-2.json"),
                        "--level", "1", "--vec", "1,2,3", "--ideal",
                        "--zero")
    assert code == 2
    assert "error:" in err



@pytest.mark.parametrize("level,vec", [("0", "1"), ("1", "1,2,3,4,5,6,7")])
def test_kpush_validates_without_check_flags(capsys, level, vec):
    code, out, err = _run(capsys, "kpush", _fx("example-5-7.json"),
                          "--level", level, "--vec", vec)
    assert code == 2 and out == ""
    assert err.startswith("error:")

def test_budget_env_is_read_and_validated(capsys, monkeypatch):
    monkeypatch.setenv("BDK_BUDGET", "junk")
    code, _, err = _run(capsys, "kpush", _fx("example-8-2.json"),
                        "--level", "1", "--vec", "1,1", "--ideal", "--zero")
    assert code == 2
    assert "BDK_BUDGET" in err
    monkeypatch.setenv("BDK_BUDGET", "4")
    code, out, _ = _run(capsys, "kpush", _fx("example-8-2.json"),
                        "--level", "1", "--vec", "1,1", "--ideal", "--zero")
    assert code == 1
    assert json.loads(out)["checks"][0]["witness"] == {"persistent_from": 2}


# -- The JSON writer -----------------------------------------------------------

_AWKWARD = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
                            "é", " ", "\U0001f600", "/", "a"])
_STRINGS = st.text(_AWKWARD | st.characters(), max_size=8)
_LEAVES = (_STRINGS | st.integers() | st.integers(-2**200, 2**200)
           | st.booleans() | st.none() | st.floats() | st.fractions())
_KEYS = (_STRINGS | st.integers() | st.booleans() | st.none()
         | st.floats())
_DOCS = st.recursive(
    _LEAVES, lambda inner: (st.lists(inner, max_size=4)
                            | st.lists(inner, max_size=4).map(tuple)
                            | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(doc=_DOCS)
def test_json_writer_equals_the_stdlib_encoder(doc):
    import io
    from bratteli.cli import _write_json
    out = io.StringIO()
    _write_json(doc, out.write, "\n")
    assert out.getvalue() == json.dumps(doc, indent=2, default=str)


_JSON_FORMS = [["validate"], ["validate", "--ordered"],
               ["telescope", "--levels", "0,2"], ["towers", "--level", "2"],
               ["transition-graphs"], ["index"], ["check-index"],
               ["chain", "--depth", "3"], ["cover", "--depth", "3"]]
_FIXTURE_FILES = ["example-5-7.json", "example-5-7-unordered.json",
                  "example-8-2.json", "five-vertex.json", "odometer.json",
                  "two-odometers.json"]


def test_json_outputs_equal_the_stdlib_encoder(capsys):
    """Every JSON document a fixture command prints is what
    json.dumps(indent=2) prints for it."""
    commands = [[form[0], _fx(name)] + form[1:]
                for name in _FIXTURE_FILES for form in _JSON_FORMS]
    commands += [
        ["orbit", _fx("odometer.json"), "--start", "v:1,1,1", "--steps", "9"],
        ["chain", _fx("odometer.json"), "--start", "v:1,1,1",
         "--end", "v:2,2,2"],
        ["chain", _fx("example-5-7.json"), "--start", "v1:1,1",
         "--closed"],
        ["synthesize", _fx("example-5-7-unordered.json"),
         "--d", _fx("example-5-7.d.json")],
        ["kpush", _fx("example-8-2.json"), "--level", "1", "--vec", "1,1",
         "--ideal", "--to", "3", "--zero", "--positive", "--bound", "3"]]
    printed = 0
    for argv in commands:
        code, out, _ = _run(capsys, *argv)
        if code != 2:
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
            printed += 1
    # the unordered twin has no markers: four of its commands exit 2
    assert printed == len(commands) - 4
