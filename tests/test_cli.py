"""Command-line behavior: records, fixtures, exit codes, determinism, DOT output."""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import python_env, run_python
from spinatlas import tables
from spinatlas.cli import _COMMANDS, _GLOBAL_OPTIONS, _read_args, build_parser, main
from spinatlas.cli import parse_list, parse_map, parse_record, render_record


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_record_round_trip():
    fields = {
        "kind": "atlas",
        "genus": "5",
        "order": "2",
        "i": "0",
        "p": "0,3",
        "k": "1,1,4",
        "connected": "2",
        "heads": "0,1",
        "degrees": "0:2,1:2,2:3",
        "predicted": "0:1,1:1,2:C3",
        "computed": "0:1,1:1,2:C3",
        "match": "true",
    }
    assert parse_record(render_record(fields)) == fields
    assert parse_list("0,3") == ["0", "3"]
    assert parse_list("-") == []
    assert parse_map("0:1,2:C3") == {"0": "1", "2": "C3"}


def test_atlas_genus5_order2(capsys):
    code, out, _ = run(capsys, "atlas", "--genus", "5", "--order", "2")
    assert code == 0
    records = [parse_record(line) for line in out.splitlines()]
    assert len(records) == 3
    assert {(r["i"], r["p"]) for r in records} == {("0", "0,3"), ("0", "1,1"), ("1", "0,0")}
    assert all(r["match"] == "true" for r in records)
    by_key = {(r["i"], r["p"]): r for r in records}
    assert by_key[("0", "0,3")]["predicted"] == "0:1,1:1,2:C3"
    assert by_key[("1", "0,0")]["computed"] == "0:S3,1:S3,2:S3"


class _FlushLog(io.StringIO):
    """A stdout that keeps what had been written at each flush."""

    def __init__(self):
        super().__init__()
        self.at_flush = []

    def flush(self):
        self.at_flush.append(self.getvalue())


def test_atlas_flushes_each_class_record(monkeypatch):
    # a run cut short keeps every record it has finished, as verify's do
    log = _FlushLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert main(["atlas", "--genus", "5"]) == 0
    lines = log.getvalue().splitlines(keepends=True)
    assert len(lines) == 10  # one record per class of genus 5
    assert log.at_flush == ["".join(lines[:k]) for k in range(1, len(lines) + 1)]


def test_atlas_genus2(capsys):
    code, out, _ = run(capsys, "atlas", "--genus", "2")
    assert code == 0
    records = [parse_record(line) for line in out.splitlines()]
    assert [r["order"] for r in records] == ["0", "1"]
    assert records[1]["i"] == "0" and records[1]["p"] == "1"


def test_atlas_genus4_order1(capsys):
    code, out, _ = run(capsys, "atlas", "--genus", "4", "--order", "1")
    records = [parse_record(line) for line in out.splitlines()]
    assert code == 0 and len(records) == 2
    assert {r["k"] for r in records} == {"1,4", "2,3"}


def test_atlas_passes_exhaustive_through(capsys, monkeypatch):
    from spinatlas import classify

    flags = set()
    search = classify.spin_group_at

    def recorded(cg, v, **kwargs):
        flags.add(kwargs["exhaustive"])
        return search(cg, v, **kwargs)

    monkeypatch.setattr(classify, "spin_group_at", recorded)
    _, plain, _ = run(capsys, "atlas", "--genus", "3")
    assert flags == {False}
    flags.clear()
    code, out, _ = run(capsys, "atlas", "--genus", "3", "--exhaustive")
    assert code == 0 and flags == {True} and out == plain


def test_atlas_checks_the_cap_before_any_search(capsys, monkeypatch):
    # the default cap is 12!, so the genus-20 graphs with a larger label set are skipped without a search;
    # each such graph cost every class of it a full search of its smaller orbit and a call that raised
    from spinatlas import classify

    calls = []
    search = classify.spin_group_at

    def counted(cg, v, **kwargs):
        calls.append(v)
        return search(cg, v, **kwargs)

    monkeypatch.setattr(classify, "spin_group_at", counted)
    code, out, _ = run(capsys, "--max-genus", "20", "atlas", "--genus", "20")
    assert code == 0 and len(calls) == 138
    assert hashlib.sha256(out.encode()).hexdigest().startswith("3736a25a")


def test_atlas_rejects_bad_genus(capsys):
    code, _, err = run(capsys, "atlas", "--genus", "1")
    assert code == 2 and "usage error" in err


def test_classify_single_vertex(capsys):
    code, out, _ = run(capsys, "classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--vertex", "P2")
    assert code == 0
    lines = out.splitlines()
    rec = parse_record(lines[0])
    assert rec["computed"] == "C3" and rec["match"] == "true"
    assert any(line.startswith("  witness") for line in lines[1:])


def test_classify_degree_split(capsys):
    # k = (1, 2, 2, 3) sits at genus 7; P and its conjugate keep degree 3, the rest get 4
    code, out, _ = run(capsys, "classify", "-g", "7", "-r", "3", "-i", "0", "-p", "1,0,1")
    assert code == 0
    records = [parse_record(line) for line in out.splitlines() if not line.startswith(" ")]
    verdicts = {r["vertex"]: (r["degree"], r["computed"]) for r in records}
    assert verdicts["P"] == ("3", "S3")
    assert verdicts["P~"] == ("3", "S3")
    for name in ("P1", "P1~", "P2", "P2~", "P3", "P3~"):
        assert verdicts[name] == ("4", "S4")
    # the same increments do not exist at genus 6
    code, _, err = run(capsys, "classify", "-g", "6", "-r", "3", "-i", "0", "-p", "1,0,1")
    assert code == 2 and "InvalidClass" in err


def test_classify_trivial_class(capsys):
    code, out, _ = run(capsys, "classify", "-g", "2", "-r", "0", "-i", "2", "-p", "-")
    assert code == 0
    records = [parse_record(line) for line in out.splitlines() if not line.startswith(" ")]
    assert len(records) == 2
    assert all(r["computed"] == "1" for r in records)
    # order 0 needs no -i; any other order does
    code, out, _ = run(capsys, "classify", "-g", "2", "-r", "0")
    assert code == 0 and "computed=1" in out
    code, _, err = run(capsys, "classify", "-g", "3", "-r", "2", "-p", "0,1")
    assert code == 2 and "usage error" in err


# stdout of the classify sweep below, taken before witnesses were printed from the
# kept generators: 2,233 lines, 1,535 of them witnesses
CLASSIFY_SWEEP_SHA256 = "0b2c4f765111841c88f6778c3ac05d1d97a8d96f142af6eaca7af352095c4e78"


def _classify_argv(gc) -> list[str]:
    return ["classify", "-g", str(gc.genus), "-r", str(gc.order), "-i", str(gc.i), "-p", ",".join(map(str, gc.p)) or "-"]


def test_classify_sweep_output_is_pinned(capsys, monkeypatch):
    """classify over every class of genus 2..8, then `--exhaustive --max-steps 4` over the
    order <= 3 classes of genus 2..5: byte-identical, and no witness is evaluated again."""
    from spinatlas import chains
    from spinatlas.params import enumerate_classes

    def evaluate(*args):
        raise AssertionError("classify evaluated a witness chain")

    monkeypatch.setattr(chains, "evaluate", evaluate)
    runs = [_classify_argv(gc) for genus in range(2, 9) for gc in enumerate_classes(genus)]
    runs += [
        _classify_argv(gc) + ["--exhaustive", "--max-steps", "4"]
        for genus in range(2, 6)
        for gc in enumerate_classes(genus)
        if gc.order <= 3
    ]
    out = []
    for argv in runs:
        code, text, err = run(capsys, *argv)
        assert code == 0 and err == ""
        out.append(text)
    text = "".join(out)
    assert len(text.splitlines()) == 2233 and text.count("\n  witness ") == 1535
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFY_SWEEP_SHA256


# stdout of `atlas --genus G` for G = 2..9, concatenated
ATLAS_SWEEP_SHA256 = "1f4d2160bddd0672deb858ea07c6dac58b3aca5114fd119ea09aad4e83e0f37d"
# stdout of `export-dot` over every class of genus 2..6, `--kind connection` for each and
# `--kind full` after it at order <= 2: 62 runs, concatenated
EXPORT_DOT_SWEEP_SHA256 = "eab5bddb300443e434b6a3d4d58470fb88b8d5e3ea09844062091169197c81ae"


def test_atlas_and_export_dot_sweeps_are_pinned(capsys):
    from spinatlas.params import enumerate_classes

    def sweep(runs) -> str:
        out = []
        for argv in runs:
            code, text, err = run(capsys, *argv)
            assert code == 0 and err == ""
            out.append(text)
        return "".join(out)

    atlas = sweep(["atlas", "--genus", str(genus)] for genus in range(2, 10))
    assert hashlib.sha256(atlas.encode()).hexdigest() == ATLAS_SWEEP_SHA256
    dots = [
        ["export-dot", *_classify_argv(gc)[1:], "--kind", kind]
        for genus in range(2, 7)
        for gc in enumerate_classes(genus)
        for kind in ("connection", "full")[: 2 if gc.order <= 2 else 1]
    ]
    assert len(dots) == 62
    assert hashlib.sha256(sweep(dots).encode()).hexdigest() == EXPORT_DOT_SWEEP_SHA256


def test_classify_invalid_class(capsys):
    code, _, err = run(capsys, "classify", "-g", "5", "-r", "2", "-i", "0", "-p", "0,0")
    assert code == 2 and "InvalidClass" in err


def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "2..6")
    assert code == 0
    lines = out.splitlines()
    summary = parse_record(lines[-1])
    assert summary == {"kind": "summary", "classes": "36", "mismatches": "0"}


def test_verify_genus10_under_default_flags(capsys):
    # label sets of up to 10 points: S10 must fit the default closure cap
    code, out, _ = run(capsys, "verify", "--genus", "10")
    assert code == 0
    assert parse_record(out.splitlines()[-1]) == {"kind": "summary", "classes": "55", "mismatches": "0"}


def test_verify_exhaustive_range_finishes(capsys):
    # stops at S_n wherever the prediction is the full symmetric group
    code, out, _ = run(capsys, "verify", "--genus", "2..7", "--exhaustive")
    assert code == 0
    assert out.splitlines()[-1] == "kind=summary classes=57 mismatches=0"


def test_cap_exceeded_exits_3(capsys):
    # S3 (6 elements) on the order-2 label sets does not fit a cap of 2
    for argv in (
        ["verify", "--genus", "3", "--closure-cap", "2"],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--closure-cap", "2"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3 and err.startswith("CapExceeded: "), argv
    code, out, _ = run(capsys, "atlas", "--genus", "3", "--closure-cap", "2")
    assert code == 0
    assert "skipped" in {parse_record(line)["match"] for line in out.splitlines()}


def test_max_steps_below_two_is_a_usage_error(capsys):
    for argv in (
        ["atlas", "--genus", "3", "--max-steps", "1"],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--max-steps", "1"],
        ["verify", "--genus", "3", "--max-steps", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "usage error" in err and "--max-steps" in err, argv
        assert out == ""


def test_bad_parameters_are_usage_errors(capsys):
    # a cap below 1, or orders no genus of the range has, would otherwise end
    # as a cap hit or an empty "success"
    for argv in (
        ["atlas", "--genus", "3", "--closure-cap", "0"],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--closure-cap", "0"],
        ["verify", "--genus", "3", "--closure-cap", "-5"],
        ["verify", "--genus", "2..3", "--orders", "5"],
        ["verify", "--genus", "2..3", "--orders", "-1"],
        ["verify", "--genus", "2..3", "--orders", "0,3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("usage error: ") and out == "", argv
    code, out, _ = run(capsys, "verify", "--genus", "2..3", "--orders", "2", "--closure-cap", "6")
    assert code == 0 and out.splitlines()[-1] == "kind=summary classes=1 mismatches=0"


def test_verify_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--genus", "2..6")
    code2, out2, _ = run(capsys, "verify", "--genus", "2..6")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_with_orders_filter(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "7..8", "--orders", "4,5")
    assert code == 0
    records = [parse_record(line) for line in out.splitlines()]
    assert all(r["order"] in ("4", "5") for r in records if r["kind"] == "verify")
    assert records[-1]["mismatches"] == "0"


def test_verify_rejects_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--genus", "6..2")
    assert code == 2 and "usage error" in err


def test_verify_streams_records_before_a_cap_hit(capsys):
    # label sets of orders 0 and 1 have at most 2 points, so their classes fit a
    # cap of 2; the first order-2 class (genus 3) needs 3! and stops the run
    code, out, err = run(capsys, "verify", "--genus", "2..3", "--closure-cap", "2")
    records = [parse_record(line) for line in out.splitlines()]
    assert code == 3 and err.startswith("CapExceeded: ")
    assert all(r["kind"] == "verify" and r["match"] == "true" for r in records)
    assert [(r["genus"], r["order"], r["i"], r["p"]) for r in records] == [
        ("2", "0", "2", "-"),
        ("2", "1", "0", "1"),
        ("3", "0", "3", "-"),
        ("3", "1", "0", "2"),
        ("3", "1", "1", "0"),
    ]


def test_bad_numbers_and_vertices_are_usage_errors(capsys):
    for argv in (
        ["verify", "--genus", "2..x"],
        ["verify", "--genus", "2", "--orders", "0,y"],
        # an empty value names no order; it must not mean every order
        ["verify", "--genus", "2", "--orders", ""],
        ["verify", "--genus", "2", "--orders="],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--vertex", "Q"],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--vertex", "Px"],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--vertex", "P-1"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("usage error: "), argv
    assert run(capsys, "verify", "--genus", "2", "--orders=") == (2, "", "usage error: --orders must be an integer, got ''\n")


@pytest.mark.parametrize("name", ["P0", "P01", "P+1", "P_1", "P1~~", "P 1"])
def test_vertex_names_the_graph_never_prints_are_usage_errors(capsys, name):
    code, out, err = run(capsys, "classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--vertex", name)
    assert code == 2 and out == ""
    assert err == f"usage error: cannot parse vertex name {name!r}\n"


def test_internal_value_error_propagates(monkeypatch):
    from spinatlas import classify

    def broken(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(classify, "verify_class", broken)
    with pytest.raises(ValueError, match="internal defect"):
        main(["verify", "--genus", "2"])


def test_malformed_values_exit_2(capsys):
    for argv in (
        ["verify", "--genus", "abc"],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,x"],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--vertex", "ZZZ"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "usage error" in err


CONNECTION_DOT = """graph spin_atlas {
  label="S(0,0,1) genus 3";
  node [shape=circle];
  "P";
  "P~";
  "P1";
  "P1~";
  "P2";
  "P2~";
  "P" -- "P1" [style=dashed];
  "P" -- "P2" [style=dashed];
  "P~" -- "P1~" [style=dashed];
  "P~" -- "P2~" [style=dashed];
  "P1" -- "P2~" [style=dashed];
  "P1~" -- "P2" [style=dashed];
  "P2" -- "P2~" [style=dashed];
}
"""

FULL_DOT = """graph spin_atlas {
  label="S(1,0,0) genus 5";
  node [shape=circle];
  "P";
  "P~";
  "P1";
  "P1~";
  "P2";
  "P2~";
  "P" -- "P~" [label="1"];
  "P" -- "P1" [label="2"];
  "P" -- "P2" [label="2"];
  "P~" -- "P1~" [label="2"];
  "P~" -- "P2~" [label="2"];
  "P1" -- "P1~" [label="1"];
  "P1" -- "P2~" [label="2"];
  "P1~" -- "P2" [label="2"];
  "P2" -- "P2~" [label="1"];
}
"""


def test_export_dot_connection(capsys):
    code, out, _ = run(capsys, "export-dot", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1")
    assert code == 0 and out == CONNECTION_DOT


def test_export_dot_full(capsys):
    code, out, _ = run(capsys, "export-dot", "-g", "5", "-r", "2", "-i", "1", "-p", "0,0", "--kind", "full")
    assert code == 0 and out == FULL_DOT


def test_export_dot_full_rejected_above_order2(capsys):
    code, _, err = run(capsys, "export-dot", "-g", "4", "-r", "3", "-i", "0", "-p", "0,0,1", "--kind", "full")
    assert code == 2 and "FullExportUnsupported" in err


def test_export_dot_deterministic(capsys):
    _, out1, _ = run(capsys, "export-dot", "-g", "6", "-r", "3", "-i", "0", "-p", "1,0,1")
    _, out2, _ = run(capsys, "export-dot", "-g", "6", "-r", "3", "-i", "0", "-p", "1,0,1")
    assert out1 == out2


def test_tables_flag(capsys):
    # no run loads a table file, so the option is gone: argparse rejects it, an empty path too, before any record
    for option in (["--tables", "x"], ["--tables", ""], ["--tables=x"]):
        with pytest.raises(SystemExit) as exit_:
            main([*option, "verify", "--genus", "2"])
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == "", option
        assert captured.err.startswith("usage: spin-atlas"), option


def test_verify_without_a_table_file_looks_up_no_table_entry(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a run used the order-3 tables")

    monkeypatch.setattr(tables, "compute_order3_tables", refuse)
    monkeypatch.setattr(tables.FaceTables, "lookup", refuse)
    # genus 9 has graphs up to order 8; every face map of them is built from its face
    code, out, _ = run(capsys, "verify", "--genus", "9")
    assert code == 0 and out.splitlines()[-1] == "kind=summary classes=41 mismatches=0"


def test_tables_env_var():
    # the variable that once named a table file is not read: a file that does not exist changes nothing
    argv = [sys.executable, "-m", "spinatlas.cli", "verify", "--genus", "2..9"]
    plain = subprocess.run(argv, capture_output=True, text=True, env=python_env(), timeout=120)
    named = subprocess.run(
        argv, capture_output=True, text=True, env={**python_env(), "SPIN_ATLAS_TABLES": "/nonexistent"}, timeout=120
    )
    assert plain.returncode == named.returncode == 0
    assert named.stdout == plain.stdout and named.stderr == plain.stderr == ""
    assert named.stdout.endswith("kind=summary classes=127 mismatches=0\n")


def test_usage_error_on_unknown_command():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# ---------------------------------------------------------------- command-line reader


def _argparse_reads(argv: list[str]) -> dict | None:
    """argparse's attributes for argv, or None where it exits (help or a usage error), its output dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--genus", "2..8"],
        ["verify", "--genus", "2..5", "--orders", "0,1,2,3", "--exhaustive", "--max-steps", "4"],
        ["--max-genus", "28", "--max-genus=20", "verify", "--genus=13..20", "--closure-cap", "51090942171709440000"],
        ["--max-genus=9", "atlas", "--genus", "9", "--no-compute", "--order", "3", "--order", "4"],
        ["classify", "-g", "12", "-r", "10", "-i", "0", "-p", "0,0,0,0,0,0,0,0,1,0", "--vertex", "P2~"],
        ["classify", "--genus", "3", "--order=2", "--i", "0", "--p=0,1", "--exhaustive", "--exhaustive"],
        ["export-dot", "-r", "2", "-g", "5", "-i", "1", "--kind", "full", "-p", "0,0"],
        ["export-dot", "--genus", " 6", "--order", "+3", "--kind=connection"],
        ["classify", "-g", "2", "-r", "0", "-p", "-"],
        ["export-dot", "--genus", "2", "--order", "0", "--p=-", "--i", "0"],
    ],
)
def test_reader_reads_plain_command_lines_as_argparse_does(argv):
    read = _read_args(argv)
    assert read is not None
    assert vars(read) == _argparse_reads(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["verify", "-h"],
        ["frobnicate"],
        ["verify", "--genus", "2", "x"],
        ["verify", "--genus", "3", "--tables", "t.txt"],
        ["verify", "--gen", "2..4"],
        ["--max", "9", "verify", "--genus", "9"],
        ["classify", "-g3", "-r", "2", "-i", "0", "-p", "0,1"],
        ["classify", "-g=3", "-r", "2", "-i", "0", "-p", "0,1"],
        ["verify", "--genus", "2", "--", "--orders", "1"],
        ["verify", "--genus", "2", "--closure-cap", "-5"],
        ["classify", "-g", "2", "-r", "0", "-p", "-1"],
        ["verify", "--orders", "1"],
        ["verify", "--genus"],
        ["atlas", "--genus", "x"],
        ["export-dot", "-g", "3", "-r", "2", "--kind", "dot"],
        ["atlas", "--genus", "3", "--exhaustive=1"],
        [],
    ],
)
def test_reader_leaves_help_errors_and_unusual_spellings_to_argparse(argv):
    assert _read_args(argv) is None


def _option_tokens(draw, options, plain: bool) -> list[str]:
    """One option of `options`: if `plain`, spelled in full with a valid value; else with a value of the
    wrong kind, or bare, abbreviated or joined to its value."""
    strings, keywords = draw(st.sampled_from(options))
    string = draw(st.sampled_from(strings))
    if "choices" in keywords:
        valid, invalid = keywords["choices"], ["dot", "Full"]
    elif "type" in keywords:
        valid, invalid = ["3", "12", "0", "+4", " 5", "1_0", "\u0663"], ["x", "3.0", "", "-2"]
    else:
        valid, invalid = ["2..4", "0,1", "P2~", "a=b", "", "verify", "-"], ["-x", "--", "-1"]
    form = "spaced" if plain else draw(st.sampled_from(["bad value", "bad value", "bare", "abbreviated", "joined"]))
    value = draw(st.sampled_from(invalid if form == "bad value" else valid))
    if form in ("spaced", "bad value") and string.startswith("--") and draw(st.booleans()):
        return [f"{string}={value}"]
    if form == "bare":
        return [string]
    if form == "abbreviated" and len(string) > 3:
        string = string[: draw(st.integers(3, len(string) - 1))]
    elif form == "joined":
        return [string + value]
    return [string] if keywords.get("action") == "store_true" else [string, value]


@st.composite
def _argvs(draw) -> list[str]:
    """A valid line (global options, a command, its required options, more of its options, repeats
    included) or one near miss of it: a stray token, one option spelled as `_option_tokens` may spell
    it, an unknown command or a required option left out."""
    near_miss = draw(st.sampled_from([None] * 4 + ["stray"] * 2 + ["option"] * 4 + ["command", "required"]))
    pieces = [_option_tokens(draw, _GLOBAL_OPTIONS, plain=True) for _ in range(draw(st.integers(0, 2)))]
    command = draw(st.sampled_from(list(_COMMANDS)))
    at_command = len(pieces)
    pieces.append(["frobnicate" if near_miss == "command" else command])
    options = _COMMANDS[command][2]
    required = [strings for strings, keywords in options if keywords.get("required")]
    dropped = draw(st.sampled_from(required)) if near_miss == "required" else None
    pieces += [[draw(st.sampled_from(strings)), "3"] for strings in required if strings is not dropped]
    pieces += [_option_tokens(draw, options, plain=True) for _ in range(draw(st.integers(0, 3)))]
    at = draw(st.integers(0, len(pieces)))
    if near_miss == "stray":
        pieces.insert(at, [draw(st.sampled_from(["-h", "--help", "--", "-", "x", "-g3", "--genus3", "-rx", "--tables"]))])
    elif near_miss == "option":
        pieces.insert(at, _option_tokens(draw, _GLOBAL_OPTIONS if at <= at_command else options, plain=False))
    return [token for piece in pieces for token in piece]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argv=_argvs())
def test_reader_agrees_with_argparse(argv):
    # the reader may leave a line argparse reads well to argparse, never read one argparse rejects
    read = _read_args(argv)
    if read is not None:
        assert vars(read) == _argparse_reads(argv)


# ---------------------------------------------------------------- entry point


@pytest.mark.parametrize(
    "argv,code",
    [
        (["verify", "--genus", "2..4"], 0),
        (["verify", "--genus", "1"], 2),
        (["verify", "--genus", "3", "--closure-cap", "2"], 3),
        # long outputs: classify's records leave the buffer only through `run`'s flush, atlas's a class at a time
        (["atlas", "--genus", "9"], 0),
        (["classify", "-g", "12", "-r", "10", "-i", "0", "-p", "0,0,0,0,0,0,0,0,1,0"], 0),
    ],
)
def test_module_entry_point_exits_with_the_code_and_output_of_main(capsys, argv, code):
    done = run_python("-m", "spinatlas.cli", *argv)
    assert done.returncode == code
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)


ARGPARSE_MODULES = {"argparse", "gettext", "locale"}
# stdout of these command lines, as argparse read them
ARGPARSE_STDOUT_SHA256 = {
    "verify --genus 2..4": "0160007ded54f222a9de8743a00d73648ff7a7be4f285e7750e7234ab07a2f9b",
    "classify -g 2 -r 0 -p -": "1864824ebce758af9cc56ce34da85484561af8230d26141dbf275781ecc3e9d6",
    "export-dot -g 2 -r 0 -p -": "1463a21b95f2686b85977ee89d11ea1862ae1221d383bb646f89b18c6cc72920",
}


def _imported(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """A fresh interpreter's run of args under `-X importtime`, and every module its log names."""
    done = run_python("-X", "importtime", *args)
    names = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    return done, names


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--genus", "2..4"],
        ["atlas", "--genus", "3"],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1"],
        ["export-dot", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1"],
        ["classify", "-g", "2", "-r", "0", "-p", "-"],
        ["export-dot", "-g", "2", "-r", "0", "-p", "-"],
    ],
)
def test_a_plain_command_line_loads_no_argparse(argv):
    # a diff against a bare start, as the interpreter's site hooks may load some of these themselves
    _, at_start = _imported("-c", "pass")
    done, names = _imported("-m", "spinatlas.cli", *argv)
    assert done.returncode == 0
    assert not (names - at_start) & ARGPARSE_MODULES, sorted((names - at_start) & ARGPARSE_MODULES)
    pinned = ARGPARSE_STDOUT_SHA256.get(" ".join(argv))
    if pinned is not None:
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == pinned


@pytest.mark.parametrize(
    "argv,code,stream,start",
    [
        (["--help"], 0, "stdout", "usage: spin-atlas [-h]"),
        (["verify", "--help"], 0, "stdout", "usage: spin-atlas verify [-h]"),
        (["frobnicate"], 2, "stderr", "usage: spin-atlas [-h]"),
    ],
)
def test_help_and_usage_errors_still_reach_argparse(argv, code, stream, start):
    done, names = _imported("-m", "spinatlas.cli", *argv)
    text = done.stdout if stream == "stdout" else "".join(
        line + "\n" for line in done.stderr.splitlines() if not line.startswith("import time:")
    )
    assert done.returncode == code and "argparse" in names
    assert text.startswith(start), text


def test_a_reader_that_closes_stdout_gets_exit_141_and_no_traceback():
    # as `| head -1` does; exit 1 would read as a verification mismatch
    child = subprocess.Popen(
        [sys.executable, "-m", "spinatlas.cli", "verify", "--genus", "2..12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=python_env(),
    )
    try:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    finally:
        child.kill()
        child.stderr.close()
    assert first.startswith(b"kind=verify genus=2 ")
    assert code == 141
    assert err == b"", err  # no traceback, no "Exception ignored" from the flush at exit


def test_main_leaves_the_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    code, out, _ = run(capsys, "verify", "--genus", "2..4")
    assert code == 0 and out.endswith("mismatches=0\n")
    assert gc.get_freeze_count() == before


def _run_with_main(*body: str) -> subprocess.CompletedProcess:
    """A fresh interpreter's `run()`, with `spinatlas.cli.main` replaced by a function of the body's lines."""
    code = ["import sys", "from spinatlas import cli", "def main():", *("    " + line for line in body)]
    return run_python("-c", "\n".join([*code, "cli.main = main", "cli.run()"]))


def test_run_ends_the_process_after_its_flushes():
    # the unflushed records leave, and no shutdown runs after them: atexit handlers are part of it
    done = _run_with_main(
        "import atexit",
        "atexit.register(print, 'shutdown ran', file=sys.stderr)",
        "print('kind=verify genus=2')",
        "return 1",
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "kind=verify genus=2\n", "")


@pytest.mark.parametrize("error,code", [("MemoryError", 3), ("AssertionError", 4)])
def test_an_uncaught_exception_exits_with_its_own_code_after_the_records(error, code):
    # exit 1 would read as a verification mismatch: out of memory is a resource limit, anything else a fault
    done = _run_with_main("print('kind=verify genus=2')", f"raise {error}('injected')")
    assert done.returncode == code
    assert done.stdout == "kind=verify genus=2\n"
    assert done.stderr.startswith("Traceback (most recent call last):\n"), done.stderr
    assert done.stderr.endswith(f"{error}: injected\n"), done.stderr


def test_console_script_is_the_exiting_entry_point():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["spin-atlas", "=", '"spinatlas.cli:run"']
