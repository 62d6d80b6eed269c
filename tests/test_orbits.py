"""The orbit reduction in `verify_class`: its premise, its results, and when it is off."""
from __future__ import annotations

import pytest

from orbit_oracle import distinct_graph_classes, face_map_differences, row_differences
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
    engine = classify.Engine()
    for gc in distinct_graph_classes(2, 9):
        assert row_differences(gc, max_steps=max_steps, exhaustive=exhaustive, engine=engine) == []


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
    for gc in enumerate_classes(9):
        calls.clear()
        classify.verify_class(gc, engine=engine)
        # the first vertex of each kind, which is untilded
        assert 1 <= len(calls) <= 2 and not any(v.tilded for v in calls), gc


def _perturbed_tables() -> tables.FaceTables:
    """The computed tables with the targets of the first two labels swapped in one pair map."""
    computed = tables.compute_order3_tables().entries
    entries = {p: {f: dict(per_pair) for f, per_pair in per_face.items()} for p, per_face in computed.items()}
    per_pair = next(iter(entries[frozenset({3})].values()))
    (u, v), pairs = next((key, pairs) for key, pairs in per_pair.items() if len(pairs) >= 2)
    (a, b), (c, d) = pairs[:2]
    per_pair[(u, v)] = ((a, d), (c, b), *pairs[2:])
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
    # each engine keeps its own step tables and results, so calls on the two interleave freely
    order4 = GraphClass(5, 4, 0, (0, 0, 0, 1))
    results = []
    search = classify.spin_group_at

    def recorded(cg, v, **kwargs):
        results.append(search(cg, v, **kwargs))
        return results[-1]

    def searches() -> int:
        # an engine returns its earlier result, the same object, for a search it has made
        return len({id(res) for res in results})

    monkeypatch.setattr(classify, "spin_group_at", recorded)
    computed, perturbed = classify.Engine(), classify.Engine(_perturbed_tables())
    first = classify.verify_class(order4, engine=computed)
    assert searches() <= 2
    made = searches()
    classify.verify_class(order4, engine=perturbed)
    assert searches() - made == 10
    # and each engine's step tables lift their face maps from its own store
    cg = ConnectionGraph(4, order4.connected_pairs)
    assert face_map_differences(cg, perturbed)[1] and not face_map_differences(cg, computed)[1]
    made = searches()
    again = classify.verify_class(order4, engine=computed)
    assert searches() == made
    assert again.rows == first.rows
