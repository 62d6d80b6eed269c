"""Connection graph structure: adjacency, degrees, labels, multiplicities."""
from __future__ import annotations

import pytest

from conftest import F, P, P1, P1t, P2, P2t, P3, P3t, Pt, V, neighbor_of_class, neighbors
from spinatlas.graph import ConnectionGraph, UnsupportedOrderError, Vertex, build_connection_graph, edge_multiplicities_r_le_2
from spinatlas.params import GraphClass, enumerate_classes


def edges(cg: ConnectionGraph) -> set[frozenset[Vertex]]:
    return {
        frozenset({u, w})
        for u in cg.vertices()
        for w in cg.vertices()
        if u < w and cg.adjacent(u, w)
    }


def test_hexagon_reproduced(hexagon_one_chord):
    want = {
        frozenset({P, P1}),
        frozenset({P1, P2t}),
        frozenset({P2t, Pt}),
        frozenset({Pt, P1t}),
        frozenset({P1t, P2}),
        frozenset({P2, P}),
        frozenset({P2, P2t}),
    }
    assert edges(hexagon_one_chord) == want


def test_order3_skeleton_reproduced(order3_one_chord):
    basic = {
        frozenset({P, P1}), frozenset({P, P2}), frozenset({P, P3}),
        frozenset({P1, P2t}), frozenset({P1, P3t}),
        frozenset({P2, P1t}), frozenset({P2, P3t}),
        frozenset({P3, P1t}), frozenset({P3, P2t}),
        frozenset({Pt, P1t}), frozenset({Pt, P2t}), frozenset({Pt, P3t}),
    }
    assert edges(order3_one_chord) == basic | {frozenset({P3, P3t})}


@pytest.mark.parametrize("order,connected", [(1, set()), (2, set()), (3, set()), (4, set()), (5, set())])
def test_skeleton_bipartite_regular(order, connected):
    cg = ConnectionGraph(order, frozenset(connected))
    for v in cg.vertices():
        nbrs = neighbors(cg, v)
        assert len(nbrs) == order
        assert all(w.side != v.side for w in nbrs)


def test_chords_raise_degree_by_one():
    cg = ConnectionGraph(4, frozenset({0, 1, 2, 3, 4}))
    for v in cg.vertices():
        assert len(neighbors(cg, v)) == 5
        assert cg.epsilon_degree(v) == 5


def test_conjugation_is_an_automorphism():
    for order, connected in [(2, {2}), (3, {2, 3}), (4, {4}), (5, {3, 4, 5})]:
        cg = ConnectionGraph(order, frozenset(connected))
        for u in cg.vertices():
            for w in cg.vertices():
                assert cg.adjacent(u, w) == cg.adjacent(u.conjugate, w.conjugate)


def test_connected_pair_rule():
    assert build_connection_graph(GraphClass(3, 2, 0, (0, 1))).connected == {2}
    assert build_connection_graph(GraphClass(5, 2, 1, (0, 0))).connected == {0, 1, 2}
    assert build_connection_graph(GraphClass(4, 3, 0, (0, 0, 1))).connected == {3}
    for genus in range(2, 10):
        for gc in enumerate_classes(genus):
            # the graph's chords are the class's slice, which `test_params` checks against k
            cg = build_connection_graph(gc)
            assert cg.order == gc.order and cg.connected == set(gc.connected_pairs)


def test_epsilon_degrees(hexagon_one_chord, order3_one_chord):
    assert hexagon_one_chord.epsilon_degree(P) == 2
    assert hexagon_one_chord.epsilon_degree(P2) == 3
    assert order3_one_chord.epsilon_degree(P3) == 4
    assert order3_one_chord.epsilon_degree(P3t) == 4
    assert order3_one_chord.epsilon_degree(P1) == 3
    basic = ConnectionGraph(4, frozenset())
    assert all(basic.epsilon_degree(v) == 4 for v in basic.vertices())


def test_label_sets(hexagon_one_chord, order3_one_chord):
    assert hexagon_one_chord.label_classes(P) == (1, 2)
    assert hexagon_one_chord.label_classes(P2t) == (0, 1, 2)
    assert order3_one_chord.label_classes(P3) == (0, 1, 2, 3)
    assert order3_one_chord.label_classes(P1t) == (0, 2, 3)
    for cg in (hexagon_one_chord, order3_one_chord):
        for v in cg.vertices():
            labels = cg.label_classes(v)
            assert len(labels) == cg.epsilon_degree(v)
            assert {neighbor_of_class(cg, v, c).cls for c in labels} == set(labels)


def test_vertex_names_round_trip():
    for order in range(13):
        for v in ConnectionGraph(order, frozenset()).vertices():
            assert Vertex.parse(v.name) == v


@pytest.mark.parametrize("text", ["P0", "P01", "P+1", "P-1", "P 1", " P1", "P1 ", "P1~~", "P~~", "P_1", "P\u0661", "P\u00b2", "p1", "Q", "~", ""])
def test_names_no_vertex_prints_are_rejected(text):
    with pytest.raises(ValueError, match=r"^cannot parse vertex name "):
        Vertex.parse(text)


def test_edge_multiplicities_symmetric_class():
    # all sides 2, all diagonals 1 on the fully chorded genus-5 hexagon
    gc = GraphClass(5, 2, 1, (0, 0))
    mult = edge_multiplicities_r_le_2(gc)
    sides = [m for (u, w), m in mult.items() if u.cls != w.cls]
    diags = [m for (u, w), m in mult.items() if u.cls == w.cls]
    assert sorted(sides) == [2] * 6
    assert sorted(diags) == [1, 1, 1]


def test_edge_multiplicities_order_one_and_zero():
    gc = GraphClass(3, 1, 0, (2,))
    mult = edge_multiplicities_r_le_2(gc)
    assert mult == {
        (P, P1): 1,
        (Pt, P1t): 1,
        (P1, P1t): 2,
    }
    gc0 = list(enumerate_classes(2, 0))[0]
    mult0 = edge_multiplicities_r_le_2(gc0)
    assert mult0 == {(P, Pt): 2}  # the single pair carries the whole genus


def test_edge_multiplicities_are_new_per_call():
    # a caller's change to one result does not reach the next call
    gc = GraphClass(5, 2, 1, (0, 0))
    mult = edge_multiplicities_r_le_2(gc)
    mult[(P, Pt)] = 99
    del mult[(P, P1)]
    again = edge_multiplicities_r_le_2(gc)
    assert again is not mult
    assert (again[(P, Pt)], again[(P, P1)]) == (1, 2)


def test_edge_multiplicities_reject_high_order():
    with pytest.raises(UnsupportedOrderError):
        edge_multiplicities_r_le_2(GraphClass(4, 3, 0, (0, 0, 1)))
