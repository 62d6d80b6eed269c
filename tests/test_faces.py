"""Faces, cells, and the face-map atlas."""
from __future__ import annotations

import itertools

import pytest

from conftest import BASIC3_FACES, CHORD2_FACES, CHORD3_FACES, CELL3, F, P, P1, P1t, P2, P2t, P3, P3t, Pt, V
from conftest import FaceKind, build_face_map, conjugate_face, decorated_cell, face_classes, face_kind, pair_count
from lift_oracle import cell_frame, lift_differences, top_slice_graphs
from spinatlas import tables
from spinatlas.faces import Face, cells_containing, enumerate_faces, face_map, is_face, vertex_id
from spinatlas.graph import ConnectionGraph, Vertex


def test_face_counts(hexagon_one_chord, hexagon_two_chords, order3_one_chord, order3_two_chords, order3_three_chords, order3_full):
    assert len(enumerate_faces(hexagon_one_chord)) == 2
    assert len(enumerate_faces(hexagon_two_chords)) == 5
    assert len(enumerate_faces(ConnectionGraph(3, frozenset()))) == 6
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


def test_every_face_lies_in_a_cell():
    for order, connected in [(4, {4}), (5, {4, 5})]:
        cg = ConnectionGraph(order, frozenset(connected))
        for face in enumerate_faces(cg):
            assert len(cells_containing(cg, face)) >= 1


def test_neighbour_ids_match_adjacency():
    from spinatlas.faces import neighbour_ids

    for order in range(11):
        for j in range(order + 2):
            cg = ConnectionGraph(order, frozenset(range(j, order + 1)))
            verts = cg.vertices()
            assert len(verts) == 2 * order + 2
            expected = [{vertex_id(w) for w in verts if cg.adjacent(v, w)} for v in verts]
            assert neighbour_ids(cg) == expected


def test_decorated_cell_renaming():
    cg = ConnectionGraph(4, frozenset({3, 4}))
    local, renaming = decorated_cell(cg, frozenset({0, 1, 3, 4}))
    assert local.order == 3
    assert local.connected == {2, 3}
    assert renaming == {0: 0, 1: 1, 3: 2, 4: 3}

    cg2 = ConnectionGraph(4, frozenset({4}))
    local2, _ = decorated_cell(cg2, frozenset({0, 1, 2, 3}))
    assert local2.connected == frozenset()

    full = ConnectionGraph(4, frozenset({0, 1, 2, 3, 4}))
    local3, _ = decorated_cell(full, frozenset({1, 2, 3, 4}))
    assert local3.connected == {0, 1, 2, 3}


def localize_vertex(cell_classes: tuple[int, ...], v: Vertex) -> Vertex:
    """Rename v into the order-3 graph of a cell; parity is adjusted so sides carry over."""
    local_cls = cell_classes.index(v.cls)
    tilded = bool(v.tilded ^ (v.cls == 0) ^ (local_cls == 0))
    return Vertex(local_cls, tilded)


def test_localization_preserves_structure():
    cg = ConnectionGraph(5, frozenset({4, 5}))
    for cell in map(frozenset, itertools.combinations(range(6), 4)):
        classes = tuple(sorted(cell))
        local, _ = decorated_cell(cg, cell)
        cell_verts = [v for v in cg.vertices() if v.cls in cell]
        for u in cell_verts:
            for w in cell_verts:
                lu, lw = localize_vertex(classes, u), localize_vertex(classes, w)
                assert cg.adjacent(u, w) == local.adjacent(lu, lw)
        # localization is a bijection onto the order-3 vertex set
        assert {localize_vertex(classes, v) for v in cell_verts} == set(local.vertices())
        # the frame the lift oracle looks maps up through renames by vertex id in the same way
        frame_classes, pattern, ids = cell_frame(cg, cell)
        assert frame_classes == classes and pattern == local.connected
        for v in cg.vertices():
            assert ids[vertex_id(v)] == (vertex_id(localize_vertex(classes, v)) if v.cls in cell else -1)
    with pytest.raises(ValueError):
        cell_frame(cg, frozenset({0, 1, 2}))


def all_cell_face_pairs(cg):
    for face in enumerate_faces(cg):
        for cell in cells_containing(cg, face):
            yield cell, face


SAMPLE_GRAPHS = [
    ConnectionGraph(2, frozenset({2})),
    ConnectionGraph(2, frozenset({1, 2})),
    ConnectionGraph(2, frozenset({0, 1, 2})),
    ConnectionGraph(3, frozenset({3})),
    ConnectionGraph(3, frozenset({2, 3})),
    ConnectionGraph(3, frozenset({1, 2, 3})),
    ConnectionGraph(3, frozenset({0, 1, 2, 3})),
    ConnectionGraph(4, frozenset({4})),
    ConnectionGraph(4, frozenset({3, 4})),
]


@pytest.mark.parametrize("cg", SAMPLE_GRAPHS, ids=lambda g: f"r{g.order}-{''.join(map(str, sorted(g.connected)))}")
def test_face_maps_are_partial_bijections(cg):
    for cell, face in all_cell_face_pairs(cg):
        for u, w in itertools.permutations(face.cycle, 2):
            m = face_map(cg, cell, face, u, w)
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
def test_face_map_cyclic_identity(cg):
    for cell, face in all_cell_face_pairs(cg):
        a, b, c, d = face.cycle
        composed = {}
        for src, val in face_map(cg, cell, face, a, b).items():
            for hop, nxt in ((b, c), (c, d), (d, a)):
                step = face_map(cg, cell, face, hop, nxt)
                if val not in step:
                    val = None
                    break
                val = step[val]
            if val is not None:
                composed[src] = val
        for src, val in composed.items():
            assert val == src


@pytest.mark.parametrize("cg", SAMPLE_GRAPHS, ids=lambda g: f"r{g.order}-{''.join(map(str, sorted(g.connected)))}")
def test_face_map_conjugation_symmetry(cg):
    for cell, face in all_cell_face_pairs(cg):
        for u, w in itertools.permutations(face.cycle, 2):
            m = face_map(cg, cell, face, u, w)
            m_conj = face_map(cg, cell, conjugate_face(face), u.conjugate, w.conjugate)
            assert m == m_conj


def test_face_map_inverse_pairs():
    cg = ConnectionGraph(3, frozenset({2, 3}))
    for cell, face in all_cell_face_pairs(cg):
        for u, w in itertools.permutations(face.cycle, 2):
            fwd = face_map(cg, cell, face, u, w)
            back = face_map(cg, cell, face, w, u)
            for src, val in fwd.items():
                if val in back:
                    assert back[val] == src


def test_basic_face_restriction_is_total_on_core_sets(order3_one_chord):
    # skeleton faces: after removing own-class labels the maps biject 3-element sets
    cg = order3_one_chord
    for face in BASIC3_FACES.values():
        for u, w in itertools.permutations(face.cycle, 2):
            m = face_map(cg, CELL3, face, u, w)
            dom = [c for c in cg.label_classes(u) if c != u.cls]
            img = [c for c in cg.label_classes(w) if c != w.cls]
            assert {m[c] for c in dom} == set(img)


def test_documented_one_pair_map(hexagon_one_chord):
    # the face P-P1-P2~-P2 carries P's labels onto P1's: 1 -> 2, 2 -> 0
    face = F(P, P1, P2t, P2)
    m = face_map(hexagon_one_chord, frozenset({0, 1, 2}), face, P, P1)
    assert m == {1: 2, 2: 0}


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


def test_table_lookup_path_agrees_with_direct_construction():
    for order, connected in [(4, {4}), (4, {3, 4}), (5, {5}), (5, {0, 1, 2, 3, 4, 5})]:
        cg = ConnectionGraph(order, frozenset(connected))
        for cell, face in itertools.islice(all_cell_face_pairs(cg), 120):
            for u, w in itertools.permutations(face.cycle, 2):
                assert face_map(cg, cell, face, u, w) == build_face_map(cg, cell, face, u, w)


ORDER3_TABLES = tables.compute_order3_tables()


def _table_lift(cg, cell, face, u, w):
    """A face map at order >= 4 as a dict: localize the cell, look it up in the computed tables, lift it back."""
    classes = tuple(sorted(cell))
    local_cg, _ = decorated_cell(cg, cell)
    local_face = Face.from_cycle(tuple(localize_vertex(classes, x) for x in face.cycle))
    local = ORDER3_TABLES.lookup(
        local_cg.connected,
        tuple(map(vertex_id, local_face.cycle)),
        vertex_id(localize_vertex(classes, u)),
        vertex_id(localize_vertex(classes, w)),
    )
    mapping = {classes[a]: classes[b] for a, b in local}
    mapping.update((c, c) for c in cg.label_classes(u) if c not in cell)
    return mapping


def test_face_map_equals_the_dict_construction():
    for cg, build in (
        (ConnectionGraph(3, frozenset({3})), build_face_map),
        (ConnectionGraph(4, frozenset({3, 4})), _table_lift),
    ):
        for cell, face in all_cell_face_pairs(cg):
            for u, w in itertools.permutations(face.cycle, 2):
                assert face_map(cg, cell, face, u, w) == build(cg, cell, face, u, w)


@pytest.mark.parametrize("order", [4, 5])
def test_direct_builder_matches_the_table_lift(order):
    # the map built from the face at order r against the one lifted from the order-3 tables
    compared = 0
    for cg in top_slice_graphs(order):
        count, diffs = lift_differences(cg, ORDER3_TABLES)
        assert diffs == []
        compared += count
    assert compared == {4: 6_840, 5: 24_120}[order]


def test_bad_tables_rejected():
    # tables without the entry a lookup asks for name the key they lack
    incomplete = tables.FaceTables({})
    with pytest.raises(tables.TableError, match=r"pattern \[\], face P-P1-P2~-P3, P->P1$"):
        incomplete.lookup(frozenset(), (0, 2, 5, 6), 0, 2)
