"""The orbit reduction in `verify_class`: its premise and its results."""
from __future__ import annotations

import pytest

from orbit_oracle import distinct_graph_classes, face_map_differences, row_differences, walk_differences
from spinatlas import classify
from spinatlas.graph import ConnectionGraph
from spinatlas.params import GraphClass, enumerate_classes


def test_face_maps_commute_with_the_automorphisms():
    compared = 0
    for order in range(6):
        for j in range(order + 2):
            count, diffs = face_map_differences(ConnectionGraph(order, frozenset(range(j, order + 1))))
            assert diffs == []
            compared += count
    assert compared == 169_500


@pytest.mark.parametrize("exhaustive", [False, True])
@pytest.mark.parametrize("max_steps", [3, 4, 6])
def test_representatives_match_every_vertex(max_steps, exhaustive):
    engine = classify.Engine(max_steps=max_steps, exhaustive=exhaustive)
    for gc in distinct_graph_classes(2, 9):
        assert row_differences(gc, engine=engine) == []


@pytest.mark.parametrize("max_steps,exhaustive,orders", [(6, False, range(9)), (4, True, range(4))])
def test_searches_match_the_reference_walk(max_steps, exhaustive, orders):
    # every vertex, tilded ones too: skipping the walk states already walked keeps what the full walk counts and meets
    engine = classify.Engine(max_steps=max_steps, exhaustive=exhaustive)
    classes = [gc for gc in distinct_graph_classes(2, 9) if gc.order in orders]
    for gc in classes:
        assert walk_differences(gc, engine=engine) == []
    assert sum(2 * gc.order + 2 for gc in classes) == (250 if max_steps == 6 else 60)


def _count_searches(monkeypatch) -> list:
    calls = []
    search = classify.spin_group_at

    def counted(cg, v, **kwargs):
        calls.append(v)
        return search(cg, v, **kwargs)

    monkeypatch.setattr(classify, "spin_group_at", counted)
    return calls


def test_one_search_per_orbit_with_the_computed_tables(monkeypatch):
    calls = _count_searches(monkeypatch)
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
        assert 1 <= len(calls) <= 2 and not any(v.tilded for v in calls), gc
    assert len(graphs) == 25


def test_two_engines_in_one_process(monkeypatch):
    # each engine keeps its own search settings and rows, so calls on the two interleave freely
    order4, same_graph = GraphClass(5, 4, 0, (0, 0, 0, 1)), GraphClass(7, 4, 0, (0, 0, 0, 3))
    calls = _count_searches(monkeypatch)
    default, five = classify.Engine(), classify.Engine(max_steps=5)
    first = classify.verify_class(order4, engine=default)
    assert len(calls) == 2
    # the engine keeps the graph's rows under the graph alone, beside its search settings, and nothing
    # else of the run
    cg = ConnectionGraph(4, order4.connected_pairs)
    assert default.rows == {cg: first.rows}
    assert set(vars(default)) == {"max_steps", "closure_cap", "exhaustive", "rows"}
    # other search settings need a second engine, which shares nothing with the first
    calls.clear()
    other = classify.verify_class(order4, engine=five)
    assert len(calls) == 2 and five.rows == {cg: other.rows} and other.rows is not first.rows
    calls.clear()
    again = classify.verify_class(order4, engine=default)
    assert calls == [] and again.rows is first.rows
    # a class of the same graph gets the same rows without a search, under its own class
    shared = classify.verify_class(same_graph, engine=default)
    assert calls == []
    assert shared.rows is first.rows and shared.graph_class == same_graph
    assert classify.verify_class(same_graph, engine=five).rows is other.rows
    assert calls == [] and len(five.rows) == 1 and len(default.rows) == 1
    fresh = classify.verify_class(same_graph, engine=classify.Engine())
    assert len(calls) == 2
    assert fresh.rows == first.rows and fresh.rows is not first.rows
