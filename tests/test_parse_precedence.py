"""Which parse error wins when a document has several faults.

Core claim:
    - parse_diagram reports the same DiagramError text and location for
      a document with several faults, whatever order it checks them in
      internally: fields before levels, levels in order, each level's
      vertices, then its edges, then its incoming edges; the outgoing
      edges of every level after the last level is read; the stationary
      block's shape last of all
"""

import json

import pytest

from bratteli import DiagramError, parse_diagram


def _doc(levels, k=1, stationary=False):
    return {"kind": "bratteli", "k": k, "stationary": stationary,
            "levels": levels}


def _lvl(vertices, edges):
    return {"vertices": vertices, "edges": edges}


def _v(vid, cls="other"):
    return {"id": vid, "class": cls}


def _e(s, r):
    return {"source": s, "range": r}


_ROOTED = [_e("root", "a"), _e("root", "b")]
_AB = [_v("a"), _v("b")]

# (case, document, the error text, its location)
_TABLE = [
    ("starving-level-1-then-dangling-source-level-3",
     _doc([_lvl(_AB, _ROOTED),
           _lvl([_v("a")], [_e("a", "a")]),
           _lvl([_v("a")], [_e("ghost", "a")])]),
     "levels[2].edges[0]: dangling source id 'ghost'", "levels[2].edges[0]"),
    ("duplicate-id-with-bad-class",
     _doc([_lvl([_v("a"), _v("a", "bogus")], [_e("root", "a")])]),
     "levels[0].vertices[1]: duplicate vertex id 'a'",
     "levels[0].vertices[1]"),
    ("non-square-block-with-starving-repeat",
     _doc([_lvl([_v("a")], [_e("root", "a")]),
           _lvl(_AB, [_e("a", "a"), _e("a", "b")])], stationary=True),
     "levels[1]: non-square stationary block: last two vertex lists differ",
     "levels[1]"),
    ("non-dict-edge",
     _doc([_lvl([_v("a")], [5, _e("root", "nowhere")])]),
     'levels[0].edges[0]: edge needs string "source" and "range"',
     "levels[0].edges[0]"),
    ("non-str-range-with-starving-vertex",
     _doc([_lvl(_AB, [_e("root", "a"), {"source": "root", "range": 7}])]),
     'levels[0].edges[1]: edge needs string "source" and "range"',
     "levels[0].edges[1]"),
    ("dangling-range-before-non-dict-edge",
     _doc([_lvl([_v("a")], [_e("root", "b"), "edge"])]),
     "levels[0].edges[0]: dangling range id 'b'", "levels[0].edges[0]"),
    ("dangling-range-beats-non-root-source",
     _doc([_lvl([_v("a")], [_e("a", "b")])]),
     "levels[0].edges[0]: dangling range id 'b'", "levels[0].edges[0]"),
    ("incoming-at-level-1-beats-dangling-source-at-level-2",
     _doc([_lvl(_AB, [_e("root", "a")]),
           _lvl([_v("a")], [_e("ghost", "a")])]),
     "levels[0].vertices: r not surjective: vertex 'b' has no incoming "
     "edge", "levels[0].vertices"),
    ("incoming-at-level-2-beats-outgoing-at-level-1",
     _doc([_lvl(_AB, _ROOTED),
           _lvl(_AB, [_e("a", "a")])]),
     "levels[1].vertices: r not surjective: vertex 'b' has no incoming "
     "edge", "levels[1].vertices"),
    ("dangling-source-beats-incoming-on-one-level",
     _doc([_lvl([_v("a")], [_e("root", "a")]),
           _lvl(_AB, [_e("a", "a"), _e("ghost", "a")])]),
     "levels[1].edges[1]: dangling source id 'ghost'", "levels[1].edges[1]"),
    ("first-starving-level-wins",
     _doc([_lvl(_AB, _ROOTED),
           _lvl(_AB, [_e("a", "a"), _e("a", "b")]),
           _lvl([_v("a")], [_e("a", "a")])]),
     "levels[0]: vertex 'b' at level 1 has no outgoing edge", "levels[0]"),
    ("starving-vertices-in-listing-order",
     _doc([_lvl([_v("c"), _v("b"), _v("a")],
                [_e("root", "a"), _e("root", "b"), _e("root", "c")]),
           _lvl([_v("a")], [_e("a", "a")])]),
     "levels[0]: vertex 'c' at level 1 has no outgoing edge", "levels[0]"),
    ("outgoing-beats-non-square-block",
     _doc([_lvl(_AB, _ROOTED),
           _lvl([_v("a")], [_e("a", "a")])], stationary=True),
     "levels[0]: vertex 'b' at level 1 has no outgoing edge", "levels[0]"),
    ("one-level-stationary-beats-starving-repeat",
     _doc([_lvl([_v("a")], [_e("root", "a")])], stationary=True),
     "stationary presentation needs two explicit levels", None),
    ("incoming-beats-one-level-stationary",
     _doc([_lvl(_AB, [_e("root", "a")])], stationary=True),
     "levels[0].vertices: r not surjective: vertex 'b' has no incoming "
     "edge", "levels[0].vertices"),
    # the last two levels share their vertices, so a vertex starving in
    # the repeated block already starves at the level before the last
    ("starving-repeat-reads-as-outgoing",
     _doc([_lvl([_v("b"), _v("a")], [_e("root", "a"), _e("root", "b")]),
           _lvl([_v("b"), _v("a")], [_e("a", "b"), _e("a", "a")])],
          stationary=True),
     "levels[0]: vertex 'b' at level 1 has no outgoing edge", "levels[0]"),
    ("reserved-root-before-its-duplicate",
     _doc([_lvl([_v("root"), _v("root")], [])]),
     'levels[0].vertices[0]: "root" is reserved', "levels[0].vertices[0]"),
    ("label-out-of-range-before-duplicate",
     _doc([_lvl([_v("a", {"minimal": 2}), _v("a")], [])]),
     "levels[0].vertices[0]: minimal component 2 outside 1..1",
     "levels[0].vertices[0]"),
    ("vertices-before-edges-array",
     _doc([_lvl([_v("a"), {"id": 3}], "none")]),
     'levels[0].vertices[1]: vertex needs a string "id"',
     "levels[0].vertices[1]"),
    ("edges-array-before-incoming",
     _doc([_lvl([_v("a")], None)]),
     "levels[0]: edges must be an array", "levels[0]"),
    ("non-object-level-beats-earlier-starving",
     _doc([_lvl(_AB, _ROOTED), _lvl([_v("a")], [_e("a", "a")]), 3]),
     "levels[2]: level must be an object", "levels[2]"),
    ("empty-vertices-at-level-2",
     _doc([_lvl([_v("a")], [_e("root", "a")]), _lvl([], [])]),
     "levels[1]: vertices must be a non-empty array", "levels[1]"),
    ("syntax-before-everything",
     '{"kind": "other", "k": 0,',
     "invalid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 26 (char 25)", None),
    ("kind-before-k",
     {"kind": "other", "k": 0, "levels": []},
     'top-level object must have "kind": "bratteli"', None),
    ("k-before-stationary",
     {"kind": "bratteli", "k": True, "stationary": 1, "levels": []},
     'k: "k" must be a positive integer', "k"),
    ("stationary-before-levels",
     {"kind": "bratteli", "k": 1, "stationary": None, "levels": []},
     'stationary: "stationary" must be a boolean', "stationary"),
]


@pytest.mark.parametrize("doc,message,location",
                         [case[1:] for case in _TABLE],
                         ids=[case[0] for case in _TABLE])
def test_first_fault_wins(doc, message, location):
    with pytest.raises(DiagramError) as exc:
        parse_diagram(doc if isinstance(doc, str) else json.dumps(doc))
    assert str(exc.value) == message
    assert exc.value.location == location
