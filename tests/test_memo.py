"""What the ordered machinery derives from a diagram is derived once.

Core claims:
    - transition-graphs, check-index and validate --ordered build one
      MarkerTable per run, and chain --depth locates each kind of
      extreme chain once
    - a diagram whose memo is filled sits in no reference cycle: it is
      freed as soon as its last reference goes, with the cyclic gc off
"""

import gc
import weakref

import pytest

import bratteli.order as order
from bratteli import MAX, MIN, load_diagram, marker_level, tower_graph
from bratteli.cli import main
from conftest import fixture_path

ORDERED = ["example-5-7.json", "example-8-2.json", "five-vertex.json"]


@pytest.fixture
def built(monkeypatch):
    """Counts of MarkerTable builds and extreme-chain searches per kind."""
    counts = {"tables": 0, MIN: 0, MAX: 0}
    init = order.MarkerTable.__init__
    locate = order.extreme_chains

    def counted_init(self, d):
        counts["tables"] += 1
        init(self, d)

    def counted_chains(d, kind):
        counts[kind] += 1
        return locate(d, kind)

    monkeypatch.setattr(order.MarkerTable, "__init__", counted_init)
    monkeypatch.setattr(order, "extreme_chains", counted_chains)
    return counts


@pytest.mark.parametrize("name", ORDERED)
@pytest.mark.parametrize("argv", [["transition-graphs"], ["check-index"],
                                  ["validate", "--ordered"]],
                         ids=["transition-graphs", "check-index", "validate"])
def test_one_marker_table_per_command(capsys, built, argv, name):
    main([argv[0], fixture_path(name)] + argv[1:])
    capsys.readouterr()
    assert built["tables"] == 1


@pytest.mark.parametrize("name", ORDERED + ["odometer.json",
                                            "two-odometers.json"])
def test_chain_report_locates_each_chain_once(capsys, built, name):
    main(["chain", fixture_path(name), "--depth", "4"])
    capsys.readouterr()
    assert (built[MIN], built[MAX], built["tables"]) == (1, 1, 0)


def test_filled_memo_frees_the_diagram_without_the_cyclic_gc():
    d = load_diagram(fixture_path("example-5-7.json"))
    marker_level(d)
    tower_graph(d, 3)
    assert set(d._memo) == {"markers", MIN, MAX, ("landings", 3)}
    ref = weakref.ref(d)
    gc.disable()
    try:
        del d
        assert ref() is None
    finally:
        gc.enable()
