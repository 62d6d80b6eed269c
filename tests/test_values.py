"""The value types: plain tuples of their fields, with the hashing, ordering and checks the output relies on.

Every set and dict of these values iterates in an order fixed by their
hashes, so a value must hash as the tuple of its fields; that is also how the
frozen dataclasses they replace hashed, which keeps the output byte-identical.
"""
from __future__ import annotations

import importlib

import pytest

from conftest import CELL2, P, P1, P2, P2t, F, conjugate_face, mk_chain, run_python
from spinatlas import tables
from spinatlas.chains import ChainStep, is_admissible
from spinatlas.classify import spin_group_at, verify_class
from spinatlas.faces import enumerate_faces
from spinatlas.graph import ConnectionGraph, Vertex
from spinatlas.groups import GroupVerdict, symmetric
from spinatlas.params import GraphClass, InvalidClassError, enumerate_classes, genus_of

def sample_values() -> list[tuple]:
    """One value of every type, each from the code path that makes it."""
    cg = ConnectionGraph(2, frozenset({2}))
    face = F(P, P1, P2t, P2)
    chain = mk_chain(P2, (CELL2, face, P2t), (CELL2, conjugate_face(face), P2))
    report = verify_class(GraphClass(5, 2, 1, (0, 0)))
    return [
        GraphClass(5, 2, 1, (0, 0)),
        P2t,
        cg,
        face,
        symmetric(4),
        chain.steps[0],
        chain,
        is_admissible(cg, chain),
        spin_group_at(cg, P2),
        report,
        report.rows[0],
    ]


@pytest.mark.parametrize("value", sample_values(), ids=lambda v: type(v).__name__)
def test_values_hash_equal_and_iterate_as_their_field_tuples(value):
    fields = tuple(getattr(value, name) for name in value._fields)
    assert tuple(value) == fields
    assert value == fields
    assert hash(value) == hash(fields)


@pytest.mark.parametrize("value", sample_values(), ids=lambda v: type(v).__name__)
def test_values_are_immutable(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dict either


def test_value_reprs():
    assert repr(GraphClass(5, 2, 1, [0, 0])) == "GraphClass(genus=5, order=2, i=1, p=(0, 0))"
    assert repr(Vertex(2, True)) == "Vertex(cls=2, tilded=True)"
    assert repr(ConnectionGraph(1, [1])) == "ConnectionGraph(order=1, connected=frozenset({1}))"
    assert repr(symmetric(3)) == "GroupVerdict(kind='S', degree=3, order=6)"
    assert repr(ChainStep(CELL2, F(P, P1, P2t, P2), P)) == (
        "ChainStep(cell=frozenset({0, 1, 2}), face=Face(cycle=(Vertex(cls=0, tilded=False), "
        "Vertex(cls=1, tilded=False), Vertex(cls=2, tilded=True), Vertex(cls=2, tilded=False))), "
        "target=Vertex(cls=0, tilded=False))"
    )
    assert str(symmetric(3)) == "S3" and f"{symmetric(3)}" == "S3"


def test_value_ordering_is_field_by_field():
    cg = ConnectionGraph(3, frozenset({3}))
    assert list(cg.vertices()) == sorted(cg.vertices(), key=lambda v: (v.cls, v.tilded))
    assert Vertex(0, True) < Vertex(1, False) < Vertex(1, True)
    faces = enumerate_faces(cg)
    assert list(faces) == sorted(faces, key=lambda f: f.cycle)
    classes = [GraphClass(6, 2, 0, (1, 2)), GraphClass(5, 2, 1, (0, 0)), GraphClass(6, 2, 0, (0, 4))]
    assert sorted(classes) == sorted(classes, key=lambda gc: (gc.genus, gc.order, gc.i, gc.p))
    assert sorted([symmetric(4), GroupVerdict("C2", 0, 2), symmetric(3)]) == [
        GroupVerdict("C2", 0, 2),
        symmetric(3),
        symmetric(4),
    ]


def test_constructors_coerce_their_fields():
    gc = GraphClass(5, 2, 1, [0, 0])
    assert type(gc.p) is tuple and gc == GraphClass(5, 2, 1, (0, 0))
    cg = ConnectionGraph(2, [2, 2])
    assert type(cg.connected) is frozenset and cg.connected == {2}
    assert GraphClass(genus=5, order=2, i=1, p=(0, 0)) == gc


@pytest.mark.parametrize(
    "args,message",
    [
        ((1, 0, 0, ()), "genus must be >= 2, got 1"),
        ((3, 3, 0, (0, 0, 0)), "order must satisfy 0 <= r < genus, got r=3"),
        ((3, -1, 0, ()), "order must satisfy 0 <= r < genus, got r=-1"),
        ((5, 2, 0, [0, 0]), "(i=0, p=(0, 0)) does not produce genus 5 at order 2"),
        ((5, 2, 1, (0,)), "malformed parameters (order=2, i=1, p=(0,))"),
        ((5, 2, -1, (0, 0)), "malformed parameters (order=2, i=-1, p=(0, 0))"),
    ],
)
def test_graph_class_validation_messages(args, message):
    with pytest.raises(InvalidClassError) as err:
        GraphClass(*args)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "check,args,message",
    [
        (GraphClass, (1, 0, 1, ()), "genus must be >= 2, got 1"),  # its genus formula holds
        (genus_of, (2, 0, (0,)), "malformed parameters (order=2, i=0, p=(0,))"),
        (enumerate_classes, (1,), "genus must be >= 2, got 1"),
        (enumerate_classes, (5, 7), "order must satisfy 0 <= r < genus, got r=7"),
    ],
)
def test_class_validation_messages(check, args, message):
    with pytest.raises(InvalidClassError) as err:
        check(*args)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "args,message",
    [
        ((2, {3}), "bad connection data (order=2, connected=[3])"),
        ((-1, ()), "bad connection data (order=-1, connected=[])"),
        ((1, [1, -1]), "bad connection data (order=1, connected=[-1, 1])"),
    ],
)
def test_connection_graph_validation_messages(args, message):
    with pytest.raises(ValueError) as err:
        ConnectionGraph(*args)
    assert str(err.value) == message


def test_face_table_lookup_reads_a_loaded_store_and_changes_none():
    loaded = tables.compute_order3_tables()
    entries = dict(loaded.entries)
    assert loaded.lookup(frozenset(), (0, 6, 5, 2), 0, 2) == entries[(frozenset(), (0, 2, 5, 6), 0, 2)]
    assert loaded.entries == entries


def test_importing_the_cli_loads_no_heavy_modules():
    # a diff, not a membership test: the interpreter's site hooks may preload some of these
    probe = "import sys; before = set(sys.modules); import spinatlas.cli; print(*sorted(set(sys.modules) - before))"
    done = run_python("-c", probe)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "spinatlas.cli" in loaded
    heavy = {"dataclasses", "inspect", "typing", "concurrent.futures", "argparse", "gettext", "locale"}
    assert not loaded & heavy, sorted(loaded & heavy)
    # no run reads the order-3 tables
    assert "spinatlas.tables" not in loaded


# the names the package root once re-exported, each with the module that defines it
FORMER_ROOT_NAMES = (
    ("AdmissibilityVerdict", "chains"),
    ("ChainStep", "chains"),
    ("ChainStructureError", "chains"),
    ("ConnectionGraph", "graph"),
    ("Face", "faces"),
    ("GraphClass", "params"),
    ("GroupVerdict", "groups"),
    ("InvalidClassError", "params"),
    ("SpinChain", "chains"),
    ("UnsupportedOrderError", "graph"),
    ("Vertex", "graph"),
    ("build_connection_graph", "graph"),
    ("cells_containing", "faces"),
    ("edge_multiplicities_r_le_2", "graph"),
    ("enumerate_classes", "params"),
    ("enumerate_faces", "faces"),
    ("evaluate", "chains"),
    ("genus_of", "params"),
    ("heads", "params"),
    ("is_admissible", "chains"),
    ("k_tuple", "params"),
    ("predict_group", "classify"),
    ("recognize", "groups"),
    ("spin_group_at", "classify"),
    ("validate_structure", "chains"),
    ("verify_class", "classify"),
)


def test_each_name_has_one_import_path():
    # the package root binds only submodules, so a name is imported from the module that defines it
    probe = (
        "import types, spinatlas; "
        "print(*sorted(n for n, v in vars(spinatlas).items() "
        "if not n.startswith('_') and not isinstance(v, types.ModuleType)))"
    )
    done = run_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
    assert len({name for name, _ in FORMER_ROOT_NAMES}) == 26
    for name, module in FORMER_ROOT_NAMES:
        assert getattr(importlib.import_module(f"spinatlas.{module}"), name).__module__ == f"spinatlas.{module}", name


def test_close_out_checks_its_permutation_under_optimization():
    # `python -O` strips assert statements; the check must survive it
    # the search's closing step, through a last step that fixes every class
    probe = "from spinatlas.chains import close_out; close_out([0, 1, 2], (0, 1, 2), ((0, 1, 2), (0, 0, 2)), 3)"
    done = run_python("-O", "-c", probe)
    assert done.returncode == 1
    assert "AssertionError: ((0, 1, 2), (0, 0, 2)) does not close to a permutation through (0, 1, 2)" in done.stderr
