"""Faces, cells, and the face-map atlas."""
from __future__ import annotations

import itertools

import pytest

from conftest import BASIC3_FACES, CHORD2_FACES, CHORD3_FACES, CELL3, F, P, P1, P2, P2t
from conftest import SAMPLE_GRAPHS, FaceKind, build_face_map, conjugate_face, face_classes, face_kind, pair_count
from conftest import reference_face_cycles, reference_images, top_slice_graphs
from lift_oracle import cell_frame, inverse_differences, lift_differences
from spinatlas import tables
from spinatlas.faces import Face, cells_containing, cells_of, direct_images, enumerate_faces, face_cycles, face_map
from spinatlas.faces import is_face, neighbour_ids, vertex_id
from spinatlas.graph import ConnectionGraph, Vertex


def test_face_counts(order3_one_chord, order3_two_chords, order3_three_chords, order3_full):
    # acceptance criterion 6 counts the chord-free order-3 graph's faces and the one- and two-chord hexagons'
    assert len(enumerate_faces(order3_one_chord)) == 12
    assert len(enumerate_faces(order3_two_chords)) == 19
    assert len(enumerate_faces(order3_three_chords)) == 27
    assert len(enumerate_faces(order3_full)) == 36
    assert len(enumerate_faces(ConnectionGraph(2, frozenset()))) == 0
    assert len(enumerate_faces(ConnectionGraph(1, frozenset({1})))) == 0
    assert len(enumerate_faces(ConnectionGraph(1, frozenset({0, 1})))) == 1


def test_is_face_accepts_exactly_the_enumerated_faces():
    # every 4-tuple of vertices, repeats and non-canonical orders included, on every graph of order <= 3;
    # class 4 stands for a vertex the graph lacks
    for order in range(4):
        verts = [Vertex(c, t) for c in range(order + 2) for t in (False, True)]
        for chords in itertools.chain.from_iterable(itertools.combinations(range(order + 1), n) for n in range(order + 2)):
            cg = ConnectionGraph(order, frozenset(chords))
            faces = set(enumerate_faces(cg))
            for cycle in itertools.product(verts, repeat=4):
                assert is_face(cg, Face(cycle)) == (Face(cycle) in faces), (cg, cycle)


def test_listed_faces_of_order3_graphs(order3_one_chord, order3_two_chords):
    assert set(enumerate_faces(ConnectionGraph(3, frozenset()))) == set(BASIC3_FACES.values())
    assert set(enumerate_faces(order3_one_chord)) == set(BASIC3_FACES.values()) | set(CHORD3_FACES.values())
    assert set(enumerate_faces(order3_two_chords)) == (
        set(BASIC3_FACES.values()) | set(CHORD3_FACES.values()) | set(CHORD2_FACES.values())
    )


@pytest.mark.parametrize(
    "order,connected", [(1, {0, 1}), (2, {2}), (3, set()), (3, {0, 1, 2, 3}), (4, {4}), (5, {3, 4, 5})]
)
def test_enumerate_faces_matches_brute_force(order, connected):
    # every closed walk through four distinct vertices, canonicalized, in sorted order
    cg = ConnectionGraph(order, frozenset(connected))
    cycles = {
        Face.from_cycle(seq)
        for seq in itertools.permutations(cg.vertices(), 4)
        if all(cg.adjacent(seq[k], seq[(k + 1) % 4]) for k in range(4))
    }
    assert enumerate_faces(cg) == tuple(sorted(cycles))


def test_from_cycle_takes_the_least_rotation_or_reflection():
    verts = ConnectionGraph(3, frozenset()).vertices()
    for cycle in itertools.permutations(verts, 4):
        spins = [seq[k:] + seq[:k] for seq in (cycle, cycle[::-1]) for k in range(4)]
        assert Face.from_cycle(cycle).cycle == min(spins)
    with pytest.raises(ValueError):
        Face.from_cycle((P, P1, P, P2))


def test_faces_closed_under_conjugation():
    for order, connected in [(2, {2}), (2, {1, 2}), (3, {3}), (3, {2, 3}), (4, {4}), (4, {3, 4})]:
        cg = ConnectionGraph(order, frozenset(connected))
        faces = set(enumerate_faces(cg))
        assert {conjugate_face(f) for f in faces} == faces
        assert all(conjugate_face(conjugate_face(f)) == f for f in faces)
    # the double-chord face is its own conjugate
    assert conjugate_face(CHORD2_FACES["F10"]) == CHORD2_FACES["F10"]


def test_face_kinds():
    assert face_kind(BASIC3_FACES["F1"]) is FaceKind.STANDARD
    assert face_kind(CHORD3_FACES["F4"]) is FaceKind.ONE_PAIR
    assert face_kind(CHORD2_FACES["F10"]) is FaceKind.TWO_PAIR


def test_two_pair_faces_have_maximal_degrees(order3_two_chords):
    for face in enumerate_faces(order3_two_chords):
        if face_kind(face) is FaceKind.TWO_PAIR:
            assert all(order3_two_chords.epsilon_degree(v) == 4 for v in face.cycle)


def brute_cell_count(order: int, face: Face) -> int:
    base = face_classes(face)
    return sum(1 for combo in itertools.combinations(range(order + 1), 4) if base <= set(combo))


@pytest.mark.parametrize("order,connected", [(4, {3, 4}), (5, {4, 5})])
def test_cell_counts(order, connected):
    cg = ConnectionGraph(order, frozenset(connected))
    kinds = {
        FaceKind.STANDARD: 1,
        FaceKind.ONE_PAIR: order - 2,
        FaceKind.TWO_PAIR: (order - 1) * (order - 2) // 2,
    }
    seen = set()
    for face in enumerate_faces(cg):
        cells = cells_containing(cg, face)
        assert len(cells) == kinds[face_kind(face)]
        assert len(cells) == brute_cell_count(order, face)
        assert all(face_classes(face) <= cell for cell in cells)
        seen.add(face_kind(face))
    assert seen == {FaceKind.STANDARD, FaceKind.ONE_PAIR, FaceKind.TWO_PAIR}


def test_order4_has_five_cells():
    cg = ConnectionGraph(4, frozenset({4}))
    cells = {cell for face in enumerate_faces(cg) for cell in cells_containing(cg, face)}
    assert cells == {frozenset(c) for c in itertools.combinations(range(5), 4)}
    assert len(cells) == 5


def test_cells_of_lists_the_sorted_cells_holding_a_class_set():
    # every set of 2 to 4 classes at every order to 15: the 4-subsets that hold it, in sorted order,
    # or below order 3 the one cell of all classes
    for order in range(16):
        every = range(order + 1)
        holding: dict[frozenset[int], list[frozenset[int]]] = {}
        for cell in itertools.combinations(every, 4):
            for size in (2, 3, 4):
                for classes in itertools.combinations(cell, size):
                    holding.setdefault(frozenset(classes), []).append(frozenset(cell))
        for size in (2, 3, 4):
            for classes in map(frozenset, itertools.combinations(every, size)):
                brute = [frozenset(every)] if order < 3 else holding[classes]
                assert list(cells_of(order, classes)) == brute
                if size == 4:
                    assert cells_of(order, classes) == (classes,)


def test_face_cycles_match_the_canonicalized_raw_cycles():
    # every ordered vertex pair, adjacent or not: the cycles canonical as built equal each raw cycle made canonical
    pairs = 0
    for order in range(12):
        for cg in (*top_slice_graphs(order), ConnectionGraph(order, frozenset())):
            near = neighbour_ids(cg)
            for a, b in itertools.permutations(range(len(near)), 2):
                assert face_cycles(near, a, b) == reference_face_cycles(near, a, b), (cg, a, b)
                pairs += 1
    assert pairs == 25_480


def test_direct_images_match_the_reference_rule():
    # every (cell, face, u, v) map of every slice graph of orders 0..6, the face's cycle read both ways round:
    # the closed forms per face kind against the generic rule of one end at a time
    compared, kinds = 0, set()
    for order in range(7):
        for cg in (*top_slice_graphs(order), ConnectionGraph(order, frozenset())):
            for face in enumerate_faces(cg):
                cycle = tuple(map(vertex_id, face.cycle))
                kinds.add(face_kind(face))
                for cell in cells_containing(cg, face):
                    for way in (cycle, cycle[::-1]):
                        for u, v in itertools.permutations(way, 2):
                            got = direct_images(order, cg.connected, cell, way, u, v)
                            assert got == reference_images(order, cg.connected, cell, way, u, v), (cg, cell, way, u, v)
                            compared += 1
    assert kinds == set(FaceKind) and compared == 202_008


def test_neighbour_ids_match_adjacency():
    for order in range(11):
        for cg in (*top_slice_graphs(order), ConnectionGraph(order, frozenset())):
            verts = cg.vertices()
            assert len(verts) == 2 * order + 2
            expected = [{vertex_id(w) for w in verts if cg.adjacent(v, w)} for v in verts]
            assert neighbour_ids(cg) == expected


def test_decorated_cell_renaming():
    # a cell's sorted classes, and its chords renamed into its order-3 graph
    for chords, cell, pattern in [
        ({3, 4}, {0, 1, 3, 4}, {2, 3}),
        ({4}, {0, 1, 2, 3}, set()),
        ({0, 1, 2, 3, 4}, {1, 2, 3, 4}, {0, 1, 2, 3}),
    ]:
        classes, renamed, _ = cell_frame(ConnectionGraph(4, frozenset(chords)), frozenset(cell))
        assert classes == tuple(sorted(cell)) and renamed == pattern
    # classes 0, 1, 3 and 4 renamed 0..3, class 2 off the cell
    assert cell_frame(ConnectionGraph(4, frozenset({3, 4})), frozenset({0, 1, 3, 4}))[2] == (0, 1, 2, 3, -1, -1, 4, 5, 6, 7)


def test_localization_preserves_structure():
    # each cell's id renaming is a bijection onto the vertices of its order-3 graph that keeps adjacency
    cg = ConnectionGraph(5, frozenset({4, 5}))
    verts = cg.vertices()
    for cell in map(frozenset, itertools.combinations(range(6), 4)):
        _, pattern, ids = cell_frame(cg, cell)
        local = ConnectionGraph(3, pattern)
        renamed = {v: local.vertices()[ids[vertex_id(v)]] for v in verts if v.cls in cell}
        assert sorted(renamed.values()) == list(local.vertices())
        assert all(ids[vertex_id(v)] == -1 for v in verts if v not in renamed)
        for u, w in itertools.permutations(renamed, 2):
            assert cg.adjacent(u, w) == local.adjacent(renamed[u], renamed[w])
    for bad in ({0, 1, 2}, {0, 1, 2, 6}):
        with pytest.raises(ValueError, match="^not a cell of an order-5 graph"):
            cell_frame(cg, frozenset(bad))


def all_cell_face_pairs(cg):
    for face in enumerate_faces(cg):
        for cell in cells_containing(cg, face):
            yield cell, face


@pytest.mark.parametrize("cg", SAMPLE_GRAPHS, ids=lambda g: f"r{g.order}-{''.join(map(str, sorted(g.connected)))}")
def test_face_maps_are_partial_bijections(cg):
    for cell, face in all_cell_face_pairs(cg):
        for u, w in itertools.permutations(face.cycle, 2):
            m = build_face_map(cg, cell, face, u, w)
            assert len(set(m.values())) == len(m)
            assert set(m) <= set(cg.label_classes(u))
            assert set(m.values()) <= set(cg.label_classes(w))
            # classes outside the cell never move
            for c in cg.label_classes(u):
                if c not in cell:
                    assert m[c] == c
            # two-pair faces induce total maps on the full label sets
            if face_kind(face) is FaceKind.TWO_PAIR:
                assert len(m) == len(cg.label_classes(u)) == len(cg.label_classes(w))


@pytest.mark.parametrize("cg", SAMPLE_GRAPHS, ids=lambda g: f"r{g.order}-{''.join(map(str, sorted(g.connected)))}")
def test_face_map_conjugation_symmetry(cg):
    for cell, face in all_cell_face_pairs(cg):
        for u, w in itertools.permutations(face.cycle, 2):
            m = build_face_map(cg, cell, face, u, w)
            m_conj = build_face_map(cg, cell, conjugate_face(face), u.conjugate, w.conjugate)
            assert m == m_conj


def test_basic_face_restriction_is_total_on_core_sets(order3_one_chord):
    # skeleton faces: after removing own-class labels the maps biject 3-element sets
    cg = order3_one_chord
    for face in BASIC3_FACES.values():
        for u, w in itertools.permutations(face.cycle, 2):
            m = build_face_map(cg, CELL3, face, u, w)
            dom = [c for c in cg.label_classes(u) if c != u.cls]
            img = [c for c in cg.label_classes(w) if c != w.cls]
            assert {m[c] for c in dom} == set(img)


def test_documented_one_pair_map(hexagon_one_chord):
    # the face P-P1-P2~-P2 carries P's labels onto P1's: 1 -> 2, 2 -> 0
    face = F(P, P1, P2t, P2)
    m = build_face_map(hexagon_one_chord, frozenset({0, 1, 2}), face, P, P1)
    assert m == {1: 2, 2: 0}


def test_face_map_is_the_built_map_and_names_a_pair_off_its_face(order3_two_chords):
    # `face_map`, which no run reads, is `build_face_map` behind a memo: on every (cell, face, u, v) of one
    # graph with faces of every kind, and it names a vertex pair that is not two corners of the face
    cg = order3_two_chords
    for cell, face in all_cell_face_pairs(cg):
        for u, w in itertools.permutations(face.cycle, 2):
            assert face_map(cg, cell, face, u, w) == build_face_map(cg, cell, face, u, w)
    face = CHORD2_FACES["F10"]
    for u, w in ((P2, P2), (P, P2), (P2, P)):
        with pytest.raises(ValueError, match=f"^{u.name}->{w.name} is not a vertex pair of face {face.name}$"):
            face_map(cg, CELL3, face, u, w)


def test_lookup_finds_each_entry_through_a_reversed_cycle():
    store = tables.compute_order3_tables()
    looked_up = 0
    for (pattern, cycle, u, v), pairs in store.entries.items():
        # reversed, so the lookup canonicalizes the cycle before it reads the entry
        assert store.lookup(pattern, cycle[::-1], u, v) == pairs
        looked_up += 1
    assert looked_up == len(store.entries) == 1200


def test_computed_store_rejects_keys_off_its_faces():
    store = tables.compute_order3_tables()
    chord_face = next(f for f in enumerate_faces(ConnectionGraph(3, frozenset({3}))) if pair_count(f))
    chord = tuple(map(vertex_id, chord_face.cycle))
    face = (0, 2, 5, 6)  # P-P1-P2~-P3
    assert store.lookup(frozenset({3}), chord, chord[0], chord[1])
    assert store.lookup(frozenset(), face, 0, 2)
    for pattern, cycle, u, v in [
        (frozenset(), chord, chord[0], chord[1]),  # the chord P3-P3~ is not in the chord-free graph
        (frozenset(), (0, 2, 4, 6), 0, 2),  # P1 and P2 are not adjacent
        (frozenset(), (0, 2, 5, -1), 0, 2),
        (frozenset(), face, 0, 1),
        (frozenset(), face, 2, 2),
        (frozenset({1}), face, 0, 2),  # not an order-3 cell pattern
    ]:
        with pytest.raises(tables.TableError, match="^no table entry for pattern"):
            store.lookup(pattern, cycle, u, v)


ORDER3_TABLES = tables.compute_order3_tables()


@pytest.mark.parametrize("order", [4, 5])
def test_direct_builder_matches_the_table_lift(order):
    # the map built from the face at order r against the one lifted from the order-3 tables
    compared = 0
    for cg in top_slice_graphs(order):
        count, diffs = lift_differences(cg, ORDER3_TABLES)
        assert diffs == []
        compared += count
    assert compared == {4: 6_840, 5: 24_120}[order]


def test_a_face_map_back_is_the_inverse_map():
    # every (vertex pair, face through it, cell holding the face) of every top-slice graph to order 6;
    # tests/lift_oracle.py runs the same check on orders 6..9
    checked = 0
    for order in range(7):
        for cg in top_slice_graphs(order):
            count, diffs = inverse_differences(cg)
            assert diffs == []
            checked += count
    assert checked == 48_486


def test_bad_tables_rejected():
    # tables without the entry a lookup asks for name the key they lack
    incomplete = tables.FaceTables({})
    with pytest.raises(tables.TableError, match=r"pattern \[\], face P-P1-P2~-P3, P->P1$"):
        incomplete.lookup(frozenset(), (0, 2, 5, 6), 0, 2)
