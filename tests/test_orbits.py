"""The orbit reduction in `verify_class`: its premise and its results."""
from __future__ import annotations

import pytest

from conftest import spy, top_slice_graphs
from orbit_oracle import distinct_graph_classes, face_map_differences, row_differences, walk_differences
from spinatlas import classify, groups
from spinatlas.cli import main
from spinatlas.graph import ConnectionGraph
from spinatlas.params import GraphClass, enumerate_classes


def test_face_maps_commute_with_the_automorphisms():
    compared = 0
    for order in range(6):
        for cg in (*top_slice_graphs(order), ConnectionGraph(order, frozenset())):
            count, diffs = face_map_differences(cg)
            assert diffs == []
            compared += count
    assert compared == 169_500


def _mispredict(monkeypatch) -> None:
    """Predict C3 at every tilded vertex, so that one orbit's vertices get different predictions."""
    real = classify.predict_group
    monkeypatch.setattr(classify, "predict_group", lambda cg, v: groups.C3 if v.tilded else real(cg, v))


@pytest.mark.parametrize("mispredicted", [False, True])
@pytest.mark.parametrize("max_steps", [3, 4, 6])
def test_representatives_match_every_vertex(max_steps, mispredicted, monkeypatch):
    # each row keeps its own vertex's prediction and match, whatever the prediction of its orbit's representative
    if mispredicted:
        _mispredict(monkeypatch)
    engine = classify.Engine(max_steps=max_steps)
    for gc in distinct_graph_classes(2, 9):
        assert row_differences(gc, engine=engine) == []


@pytest.mark.parametrize("max_steps,mispredicted,orders", [(6, False, range(9)), (4, True, range(4))])
def test_searches_match_the_reference_walk(max_steps, mispredicted, orders, monkeypatch):
    # every vertex, tilded ones too: skipping the walk states already walked keeps what the full walk counts and
    # meets, and neither reads the prediction, so a wrong one changes nothing the search meets
    if mispredicted:
        _mispredict(monkeypatch)
    engine = classify.Engine(max_steps=max_steps)
    classes = [gc for gc in distinct_graph_classes(2, 9) if gc.order in orders]
    for gc in classes:
        assert walk_differences(gc, engine=engine) == []
    assert sum(2 * gc.order + 2 for gc in classes) == (250 if max_steps == 6 else 60)


def test_one_search_per_orbit_with_the_computed_tables(monkeypatch):
    calls = spy(monkeypatch, classify, "spin_group_at")
    engine = classify.Engine()
    graphs = set()
    for gc in enumerate_classes(9):
        calls.clear()
        classify.verify_class(gc, engine=engine)
        if (gc.order, gc.connected_pairs) in graphs:
            # a later class of a graph reuses its rows
            assert calls == [], gc
            continue
        graphs.add((gc.order, gc.connected_pairs))
        # the first vertex of each kind, which is untilded
        assert 1 <= len(calls) <= 2 and not any(call.args[1].tilded for call in calls), gc
    assert len(graphs) == 25


def test_two_engines_in_one_process(monkeypatch):
    # each engine keeps its own search settings and rows, so calls on the two interleave freely
    order4, same_graph = GraphClass(5, 4, 0, (0, 0, 0, 1)), GraphClass(7, 4, 0, (0, 0, 0, 3))
    calls = spy(monkeypatch, classify, "spin_group_at")
    default, five = classify.Engine(), classify.Engine(max_steps=5)
    first = classify.verify_class(order4, engine=default)
    assert len(calls) == 2
    # the engine keeps the graph's rows under its slice alone, (order, chorded classes), beside its search
    # settings, and nothing else of the run
    key = (4, range(4, 5))
    assert default.rows == {key: first.rows}
    assert set(vars(default)) == {"max_steps", "rows"}
    # other search settings need a second engine, which shares nothing with the first
    calls.clear()
    other = classify.verify_class(order4, engine=five)
    assert len(calls) == 2 and five.rows == {key: other.rows} and other.rows is not first.rows
    calls.clear()
    again = classify.verify_class(order4, engine=default)
    assert calls == [] and again.rows is first.rows
    # a class of the same slice gets the same rows without a search, under its own class
    shared = classify.verify_class(same_graph, engine=default)
    assert calls == []
    assert shared.rows is first.rows and shared.graph_class == same_graph
    assert classify.verify_class(same_graph, engine=five).rows is other.rows
    assert calls == [] and len(five.rows) == 1 and len(default.rows) == 1
    fresh = classify.verify_class(same_graph, engine=classify.Engine())
    assert len(calls) == 2
    assert fresh.rows == first.rows and fresh.rows is not first.rows


def test_verify_builds_one_graph_per_slice(monkeypatch, capsys):
    # a class whose slice has rows already builds no graph: 358 classes of genus 2..12, on 42 graphs
    calls = spy(monkeypatch, classify, "build_connection_graph")
    assert main(["verify", "--genus", "2..12"]) == 0
    assert capsys.readouterr().out.endswith("kind=summary classes=358 mismatches=0\n")
    slices = [(call.args[0].order, call.args[0].connected_pairs) for call in calls]
    assert len(slices) == len(set(slices)) == 42
