"""The orbit reduction in `verify_class`: its premise, its results, and when it is off."""
from __future__ import annotations

import pytest

from orbit_oracle import distinct_graph_classes, face_map_differences, row_differences, walk_differences
from spinatlas import classify, tables
from spinatlas.graph import ConnectionGraph
from spinatlas.params import GraphClass, enumerate_classes


def test_face_maps_commute_with_the_automorphisms():
    compared = 0
    engine = classify.Engine()
    for order in range(6):
        for j in range(order + 2):
            count, diffs = face_map_differences(ConnectionGraph(order, frozenset(range(j, order + 1))), engine)
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


def _perturbed_tables() -> tables.FaceTables:
    """The computed tables with the targets of the first two labels swapped in one pair map."""
    entries = dict(tables.compute_order3_tables().entries)
    key, pairs = next((key, pairs) for key, pairs in entries.items() if key[0] == {3} and len(pairs) >= 2)
    (a, b), (c, d) = pairs[:2]
    entries[key] = ((a, d), (c, b), *pairs[2:])
    return tables.FaceTables(entries)


def test_loaded_tables_search_every_vertex_from_order_4(monkeypatch):
    order3, order4 = GraphClass(7, 3, 0, (1, 0, 1)), GraphClass(5, 4, 0, (0, 0, 0, 1))
    calls = _count_searches(monkeypatch)
    # equal to the computed tables, but not them: nothing vouches for a loaded table
    loaded = classify.Engine(tables.compute_order3_tables())
    classify.verify_class(order3, engine=loaded)
    assert len(calls) == 2
    calls.clear()
    classify.verify_class(order4, engine=loaded)
    assert len(calls) == 10

    perturbed = classify.Engine(_perturbed_tables())
    # the perturbed maps no longer commute with the automorphisms ...
    assert face_map_differences(ConnectionGraph(4, order4.connected_pairs), perturbed)[1]
    # ... so each row is its own vertex's search
    calls.clear()
    assert row_differences(order4, engine=perturbed) == []
    assert len(calls) == 10


def test_two_engines_in_one_process(monkeypatch):
    # each engine keeps its own store and rows, so calls on the two interleave freely
    order4, same_graph = GraphClass(5, 4, 0, (0, 0, 0, 1)), GraphClass(7, 4, 0, (0, 0, 0, 3))
    calls = _count_searches(monkeypatch)
    computed, perturbed = classify.Engine(), classify.Engine(_perturbed_tables())
    first = classify.verify_class(order4, engine=computed)
    assert 1 <= len(calls) <= 2
    # the engine keeps the graph's rows under the graph alone, beside its store and search settings, and nothing
    # else of the run
    cg = ConnectionGraph(4, order4.connected_pairs)
    assert computed.rows == {cg: first.rows}
    assert set(vars(computed)) == {"store", "max_steps", "closure_cap", "exhaustive", "rows"}
    calls.clear()
    classify.verify_class(order4, engine=perturbed)
    assert len(calls) == 10
    # and each engine's step tables lift their face maps from its own store
    assert face_map_differences(cg, perturbed)[1] and not face_map_differences(cg, computed)[1]
    calls.clear()
    again = classify.verify_class(order4, engine=computed)
    assert calls == [] and again.rows is first.rows
    # a class of the same graph gets the same rows without a search, under its own class
    shared = classify.verify_class(same_graph, engine=computed)
    assert calls == []
    assert shared.rows is first.rows and shared.graph_class == same_graph
    # other search settings need a second engine, which shares nothing with the first
    five = classify.Engine(computed.store, max_steps=5)
    classify.verify_class(same_graph, engine=five)
    assert len(calls) == 2 and len(five.rows) == 1 and len(computed.rows) == 1
    calls.clear()
    fresh = classify.verify_class(same_graph, engine=classify.Engine())
    assert len(calls) == 2
    assert fresh.rows == first.rows and fresh.rows is not first.rows
