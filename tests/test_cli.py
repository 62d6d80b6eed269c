"""Command-line behavior: records, fixtures, exit codes, determinism, DOT output."""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_list, parse_map, parse_record, python_env, run_python, spy
from spinatlas import tables
from spinatlas.cli import _COMMANDS, _GLOBAL_OPTIONS, _read_args, build_parser, main, render_record


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


def test_verify_flushes_each_class_record(monkeypatch):
    # each class's records leave at their own flush, so a run cut short keeps every class it has finished;
    # the summary follows the last class, and leaves through `run`'s flush
    log = _FlushLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert main(["verify", "--genus", "2..5"]) == 0
    lines = log.getvalue().splitlines(keepends=True)
    assert len(lines) == 23 and lines[-1] == "kind=summary classes=22 mismatches=0\n"
    assert log.at_flush == ["".join(lines[:k]) for k in range(1, len(lines))]


def test_verify_and_atlas_stream_their_classes(monkeypatch):
    # a class's record leaves before the classes after it are enumerated, so a run's memory does not grow
    # with its range; and the summary counts the records that left
    from spinatlas import cli

    events = []
    enumerate_classes = cli.enumerate_classes

    def logged(genus, order=None):
        events.append(("enumerate", genus))
        classes = enumerate_classes(genus, order)

        def read():
            yield from classes
            events.append(("exhausted", genus))

        return read()

    class Stdout(io.StringIO):
        def write(self, text):
            events.append(("write", text))
            return super().write(text)

    def first_record(kind: str) -> int:
        return next(k for k, (what, text) in enumerate(events) if what == "write" and text.startswith(f"kind={kind} "))

    monkeypatch.setattr(cli, "enumerate_classes", logged)
    for argv in (["verify", "--genus", "2..6"], ["verify", "--genus", "2..6", "--orders", "1,3"]):
        events.clear()
        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(argv) == 0
        assert first_record("verify") < events.index(("enumerate", 6)), argv
        lines = sys.stdout.getvalue().splitlines()
        records = sum(line.startswith("kind=verify ") for line in lines)
        assert lines[-1] == f"kind=summary classes={records} mismatches=0", argv
    events.clear()
    assert main(["atlas", "--genus", "6"]) == 0
    assert first_record("atlas") < events.index(("exhausted", 6))


def test_atlas_accepts_exhaustive_and_changes_nothing(capsys, monkeypatch):
    # every search runs until S_n or its budget already, so the flag reaches no search
    from spinatlas import classify

    calls = spy(monkeypatch, classify, "spin_group_at")
    _, plain, _ = run(capsys, "atlas", "--genus", "3")
    searches = len(calls)
    code, out, _ = run(capsys, "atlas", "--genus", "3", "--exhaustive")
    assert code == 0 and out == plain and len(calls) == 2 * searches > 0
    assert all(call.kwargs.keys() == {"max_steps", "table"} for call in calls)


def test_atlas_computes_every_class_past_genus_12(capsys, monkeypatch):
    # label sets of up to 20 points, each searched once per orbit of its graph; while the closure cap was 12!,
    # the 66 classes of the graphs with a larger label set were skipped (`match=skipped`)
    from spinatlas import classify

    calls = spy(monkeypatch, classify, "spin_group_at")
    code, out, _ = run(capsys, "--max-genus", "20", "atlas", "--genus", "20")
    records = [parse_record(line) for line in out.splitlines()]
    assert code == 0 and len(calls) == 210
    assert len(records) == 791 and all(r["match"] == "true" for r in records)
    assert hashlib.sha256(out.encode()).hexdigest().startswith("c38d2dc9")


def test_classify_single_vertex(capsys):
    code, out, _ = run(capsys, "classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--vertex", "P2")
    assert code == 0
    lines = out.splitlines()
    rec = parse_record(lines[0])
    assert rec["computed"] == "C3" and rec["match"] == "true"
    assert any(line.startswith("  witness") for line in lines[1:])


# stdout of the classify sweep below, taken before witnesses were printed from the
# kept generators: 2,233 lines, 1,535 of them witnesses
CLASSIFY_SWEEP_SHA256 = "0b2c4f765111841c88f6778c3ac05d1d97a8d96f142af6eaca7af352095c4e78"


def _classify_argv(gc) -> list[str]:
    return ["classify", "-g", str(gc.genus), "-r", str(gc.order), "-i", str(gc.i), "-p", ",".join(map(str, gc.p)) or "-"]


def _sweep(capsys, runs) -> str:
    """The joined stdout of `main` over each command line, each of which must exit 0 with nothing on stderr."""
    out = []
    for argv in runs:
        code, text, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
        out.append(text)
    return "".join(out)


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
    text = _sweep(capsys, runs)
    assert len(text.splitlines()) == 2233 and text.count("\n  witness ") == 1535
    assert hashlib.sha256(text.encode()).hexdigest() == CLASSIFY_SWEEP_SHA256


# stdout of `atlas --genus G` for G = 2..9, concatenated
ATLAS_SWEEP_SHA256 = "1f4d2160bddd0672deb858ea07c6dac58b3aca5114fd119ea09aad4e83e0f37d"
# stdout of `export-dot` over every class of genus 2..6, `--kind connection` for each and
# `--kind full` after it at order <= 2: 62 runs, concatenated
EXPORT_DOT_SWEEP_SHA256 = "eab5bddb300443e434b6a3d4d58470fb88b8d5e3ea09844062091169197c81ae"


def test_atlas_and_export_dot_sweeps_are_pinned(capsys):
    from spinatlas.params import enumerate_classes

    atlas = _sweep(capsys, (["atlas", "--genus", str(genus)] for genus in range(2, 10)))
    assert hashlib.sha256(atlas.encode()).hexdigest() == ATLAS_SWEEP_SHA256
    dots = [
        ["export-dot", *_classify_argv(gc)[1:], "--kind", kind]
        for genus in range(2, 7)
        for gc in enumerate_classes(genus)
        for kind in ("connection", "full")[: 2 if gc.order <= 2 else 1]
    ]
    assert len(dots) == 62
    assert hashlib.sha256(_sweep(capsys, dots).encode()).hexdigest() == EXPORT_DOT_SWEEP_SHA256


def test_verify_with_orders_filter(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "7..8", "--orders", "4,5")
    assert code == 0
    records = [parse_record(line) for line in out.splitlines()]
    assert all(r["order"] in ("4", "5") for r in records if r["kind"] == "verify")
    assert records[-1]["mismatches"] == "0"


def test_internal_value_error_propagates(monkeypatch):
    from spinatlas import classify

    def broken(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(classify, "verify_class", broken)
    with pytest.raises(ValueError, match="internal defect"):
        main(["verify", "--genus", "2"])


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


# ---------------------------------------------------------------- refused command lines

CLASSIFY_3 = ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1"]
AT_GENUS_3 = (["atlas", "--genus", "3"], CLASSIFY_3, ["verify", "--genus", "3"])
# an option the program lacks, before the command and after global options if any: argparse alone reads its value
# as the command
UNKNOWN_FIRST = (
    ["--tables", "x", "verify"],
    ["--tables", "", "verify"],
    ["--closure-cap", "5", "verify"],
    ["--max-genus", "9", "--tables", "x", "atlas"],
    ["--max-genus", "9", "--tables", "x", "verify"],
    ["--max", "9", "--tables", "x", "verify"],
    ["--max=9", "--tables", "x", "verify"],
)

# Every command line the program refuses, each with exit 2, nothing on stdout and this text on stderr: its one home.
# A line the program refuses gets the text as its whole stderr; a line argparse refuses gets its usage, then the
# text as its last line, cut before " (choose from", whose quoting differs between Python releases.
REFUSED_LINES = [
    # `--max-genus` bounds every command, through one check before any record
    *(([*head, *command, str(bound + 1)], f"usage error: genus must lie within 2..{bound}, got {bound + 1}")
      for head, bound in (([], 12), (["--max-genus", "5"], 5))
      for command in (
          ["atlas", "--genus"], ["verify", "--genus"], ["classify", "-r", "0", "-g"], ["export-dot", "-r", "0", "-g"]
      )),
    (["--max-genus", "5", "verify", "--genus", "2..6"], "usage error: genus must lie within 2..5, got 2..6"),
    (["atlas", "--genus", "1"], "usage error: genus must lie within 2..12, got 1"),
    (["verify", "--genus", "6..2"], "usage error: genus must lie within 2..12, got 6..2"),
    *((["--max-genus", "1", *argv], "usage error: --max-genus must be >= 2, got 1")
      for argv in (
          ["atlas", "--genus", "2"],
          ["verify", "--genus", "2"],
          ["classify", "-g", "2", "-r", "0"],
          ["export-dot", "-g", "2", "-r", "0"],
      )),
    *(([*argv, "--max-steps", "1"], "usage error: --max-steps must be >= 2, got 1") for argv in AT_GENUS_3),
    # orders no genus of the range has would otherwise end as an empty "success"
    *((["verify", "--genus", "2..3", "--orders", orders],
       "usage error: --orders must lie within 0..2 for genus up to 3") for orders in ("5", "-1", "0,3")),
    (["verify", "--genus", "abc"], "usage error: --genus must be an integer, got 'abc'"),
    (["verify", "--genus", "2..x"], "usage error: --genus must be an integer, got 'x'"),
    (["verify", "--genus", "2", "--orders", "0,y"], "usage error: --orders must be an integer, got 'y'"),
    # an empty value names no order, and no vertex: it must not mean every one
    (["verify", "--genus", "2", "--orders", ""], "usage error: --orders must be an integer, got ''"),
    (["verify", "--genus", "2", "--orders="], "usage error: --orders must be an integer, got ''"),
    *(([*CLASSIFY_3, "--vertex", name], f"usage error: cannot parse vertex name {name!r}")
      for name in ("", "Q", "Px", "P-1", "ZZZ", "P0", "P01", "P+1", "P_1", "P1~~", "P 1")),
    ([*CLASSIFY_3, "--vertex", "P3"], "usage error: vertex P3 is not in an order-2 graph"),
    (["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,x"], "usage error: -p must be an integer, got 'x'"),
    (["classify", "-g", "3", "-r", "2", "-p", "0,1"], "usage error: -i is required for order >= 1"),
    # the class, or `enumerate_classes` for `atlas`, checks the order: one message for every command
    *((argv, f"InvalidClass: order must satisfy 0 <= r < genus, got r={order}")
      for order in ("7", "5", "-1")
      for argv in (
          ["atlas", "--genus", "5", "--order", order],
          ["classify", "-g", "5", "-r", order, "-i", "0"],
          ["export-dot", "-g", "5", "-r", order, "-i", "0"],
      )),
    (
        ["classify", "-g", "5", "-r", "2", "-i", "0", "-p", "0,0"],
        "InvalidClass: (i=0, p=(0, 0)) does not produce genus 5 at order 2",
    ),
    # the increments of a genus-7 class of order 3, at genus 6
    *(([command, "-g", "6", "-r", "3", "-i", "0", "-p", "1,0,1"],
       "InvalidClass: (i=0, p=(1, 0, 1)) does not produce genus 6 at order 3")
      for command in ("classify", "export-dot")),
    (
        ["export-dot", "-g", "4", "-r", "3", "-i", "0", "-p", "0,0,1", "--kind", "full"],
        "FullExportUnsupported: full-graph multiplicities are only tabulated for order <= 2, got 3",
    ),
    # argparse's: no search lists a group, so `--max-genus` is the one bound on a run, and no run reads a table file
    *(([*argv, "--closure-cap", "2"], "spin-atlas: error: unrecognized arguments: --closure-cap 2")
      for argv in AT_GENUS_3),
    *(([*argv, "--genus", "2"], f"spin-atlas: error: unrecognized arguments: {argv[-3]}") for argv in UNKNOWN_FIRST),
    (["--tables=x", "verify", "--genus", "2"], "spin-atlas: error: unrecognized arguments: --tables=x"),
    (["frobnicate"], "spin-atlas: error: argument command: invalid choice: 'frobnicate'"),
]


@pytest.mark.parametrize("argv,err", REFUSED_LINES, ids=[shlex.join(argv) for argv, _ in REFUSED_LINES])
def test_refused_command_lines(capsys, argv, err):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors leave `main` this way
        code = exc.code
    out, text = capsys.readouterr()
    assert (code, out) == (2, "")
    if err.startswith("spin-atlas: error: "):
        assert text.startswith("usage: spin-atlas") and text.splitlines()[-1].split(" (choose from")[0] == err
    else:
        assert text == err + "\n"


def test_lines_beside_the_refused_ones_run(capsys):
    # argparse's abbreviations of the program's own options read as those options, and `--he` asks for help
    assert run(capsys, "--max", "3", "verify", "--genus", "3")[:2] == (0, run(capsys, "verify", "--genus", "3")[1])
    with pytest.raises(SystemExit) as exit_:
        main(["--he", "x", "verify"])
    assert exit_.value.code == 0 and capsys.readouterr().out.startswith("usage: spin-atlas [-h]")
    # a raised bound admits its genus, and an order the range has runs
    code, out, err = run(capsys, "--max-genus", "13", "classify", "-g", "13", "-r", "0")
    assert code == 0 and err == "" and out.splitlines()[0].startswith("kind=vertex vertex=P degree=1 ")
    code, out, err = run(capsys, "--max-genus", "13", "export-dot", "-g", "13", "-r", "0")
    assert code == 0 and err == "" and out.startswith("graph spin_atlas {")
    code, out, _ = run(capsys, "verify", "--genus", "2..3", "--orders", "2")
    assert code == 0 and out.splitlines()[-1] == "kind=summary classes=1 mismatches=0"


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
        ["--max-genus", "28", "--max-genus=20", "verify", "--genus=13..20", "--max-steps", "51090942171709440000"],
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
        ["verify", "--genus", "2", "--max-steps", "-5"],
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
        (["verify", "--genus", "3", "--closure-cap", "2"], 2),
        # long outputs: classify's records leave the buffer only through `run`'s flush, atlas's a class at a time
        (["atlas", "--genus", "9"], 0),
        (["classify", "-g", "12", "-r", "10", "-i", "0", "-p", "0,0,0,0,0,0,0,0,1,0"], 0),
    ],
)
def test_module_entry_point_exits_with_the_code_and_output_of_main(capsys, argv, code):
    done = run_python("-m", "spinatlas.cli", *argv)
    assert done.returncode == code
    try:
        ours = run(capsys, *argv)
    except SystemExit as exc:  # argparse's usage errors leave `main` this way
        ours = (exc.code, *capsys.readouterr())
    assert (done.returncode, done.stdout, done.stderr) == ours


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
