"""Diagram documents are written from the levels with json.dumps's bytes.

Core claims:
    - Diagram.to_json_text is the text json.dumps(doc, indent=2) + "\\n"
      gives for the document it writes, its keys come in the document
      order, and it parses back to the same levels: on every fixture and
      corpus diagram, their telescopes and syntheses, and ids that need
      escaping
    - synthesize and telescope print the same bytes under every hash seed
"""

import json

import pytest

from bratteli import (load_diagram, load_dvectors, parse_diagram,
                      synthesize_order, telescope)
from conftest import fixture_path, runs_under_hash_seeds

FIXTURES = ["ex57", "ex57_unordered", "ex82", "five_vertex", "odometer",
            "two_odometers"]

# the unordered fixtures and the prescriptions that order them
_SYNTHESES = [("example-5-7-unordered.json", "example-5-7.d.json"),
              ("five-vertex.json", "five-vertex.d.json")]


def _levels(d):
    return [(lev.ids, lev.labels, lev.edges, lev.fibers) for lev in d.levels]


def _check(d):
    text = d.to_json_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert list(doc) == ["kind", "k", "stationary", "levels"]
    for lev in doc["levels"]:
        assert list(lev) == ["vertices", "edges"]
        assert all(list(v) == ["id", "class"] for v in lev["vertices"])
        assert all(list(e) == ["source", "range"] for e in lev["edges"])
    again = parse_diagram(text)
    assert (again.k, again.stationary) == (d.k, d.stationary)
    assert _levels(again) == _levels(d)


def _telescopes(d):
    """A few contractions of d, stationary ones included, and one of a
    non-stationary contraction."""
    if d.stationary:
        outs = [telescope(d, [0, 2, 4]), telescope(d, [0, 1, 3, 5])]
    else:
        outs = [telescope(d, list(range(d.depth + 1)))]
    last = outs[-1]
    outs.append(telescope(last, [0] + list(range(1, last.depth + 1, 2))))
    return outs


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixtures_render_as_json_dumps(request, fixture):
    d = request.getfixturevalue(fixture)
    _check(d)
    for t in _telescopes(d):
        _check(t)


@pytest.mark.parametrize("raw,dv", _SYNTHESES)
def test_syntheses_render_as_json_dumps(raw, dv):
    out = synthesize_order(load_diagram(fixture_path(raw)),
                           load_dvectors(fixture_path(dv)))
    _check(out)
    for t in _telescopes(out):
        _check(t)


def test_corpus_renders_as_json_dumps(fuzz_corpus):
    for _, d, dv in fuzz_corpus:
        _check(d)
        _check(synthesize_order(d, dv))
        for t in _telescopes(d):
            _check(t)


_AWKWARD = ["é", 'a"b', "back\\slash", "tab\there", "\U0001f600"]


def test_ids_that_need_escaping():
    cls = [{"minimal": 1}] + ["other"] * (len(_AWKWARD) - 1)
    verts = [{"id": v, "class": c} for v, c in zip(_AWKWARD, cls)]
    first = [{"source": "root", "range": v} for v in _AWKWARD]
    # the class vertex feeds only itself, the remainder feeds the remainder
    block = [{"source": s, "range": r} for r in _AWKWARD for s in _AWKWARD
             if (s == _AWKWARD[0]) == (r == _AWKWARD[0])]
    doc = {"kind": "bratteli", "k": 1, "stationary": True,
           "levels": [{"vertices": verts, "edges": first},
                      {"vertices": verts, "edges": block}]}
    d = parse_diagram(json.dumps(doc))
    assert d.to_json_text() == json.dumps(doc, indent=2) + "\n"
    _check(d)
    for t in _telescopes(d):
        _check(t)


def test_diagram_outputs_are_the_same_under_every_hash_seed():
    forms = []
    for raw, dv in _SYNTHESES:
        forms.append(["synthesize", fixture_path(raw), "--d",
                      fixture_path(dv)])
    for name in ("five-vertex.json", "example-5-7.json"):
        forms += [["telescope", fixture_path(name), "--levels", levels]
                  for levels in ("0,2,4", "0,1,3,5")]
    forms += [form + ["--format", "text"] for form in forms]
    runs = runs_under_hash_seeds(forms)
    assert runs[0] == runs[1] == runs[2]
    assert {code for code, _ in runs[0]} == {0}
