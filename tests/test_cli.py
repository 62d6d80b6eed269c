"""Command-line behavior: records, fixtures, exit codes, determinism, DOT output."""
from __future__ import annotations

import gc
import hashlib
import sys
from pathlib import Path

import pytest

from conftest import run_python
from spinatlas import tables
from spinatlas.cli import main, parse_list, parse_map, parse_record, render_record, run as run_entry


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
    # a cap below 1, a pool below one worker, or orders no genus of the range has
    # would otherwise end as a cap hit, a silent serial run, or an empty "success"
    for argv in (
        ["atlas", "--genus", "3", "--closure-cap", "0"],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--closure-cap", "0"],
        ["verify", "--genus", "3", "--closure-cap", "-5"],
        ["verify", "--genus", "3", "--jobs", "0"],
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


def test_verify_jobs_flag_keeps_output(capsys):
    _, serial, _ = run(capsys, "verify", "--genus", "2..5")
    _, parallel, _ = run(capsys, "verify", "--genus", "2..5", "--jobs", "4")
    assert serial == parallel


def test_verify_rejects_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--genus", "6..2")
    assert code == 2 and "usage error" in err


def test_verify_streams_records_before_a_cap_hit(capsys):
    # label sets of orders 0 and 1 have at most 2 points, so their classes fit a
    # cap of 2; the first order-2 class (genus 3) needs 3! and stops the run
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "verify", "--genus", "2..3", "--closure-cap", "2", "--jobs", jobs)
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
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--vertex", "Q"],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--vertex", "Px"],
        ["classify", "-g", "3", "-r", "2", "-i", "0", "-p", "0,1", "--vertex", "P-1"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("usage error: "), argv


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


def test_tables_flag(tmp_path, capsys):
    path = tmp_path / "tables.txt"
    path.write_text(tables.render_tables(tables.compute_order3_tables()), encoding="utf-8")
    try:
        code, out, _ = run(capsys, "--tables", str(path), "verify", "--genus", "6", "--orders", "4")
        assert code == 0
        assert parse_record(out.splitlines()[-1])["mismatches"] == "0"
    finally:
        tables.set_active_tables(None)


def test_tables_flag_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a table file\n", encoding="utf-8")
    code, _, err = run(capsys, "--tables", str(path), "verify", "--genus", "2")
    assert code == 2 and "error" in err


def test_tables_flag_rejects_a_partial_map(tmp_path, capsys):
    lines = tables.render_tables(tables.compute_order3_tables()).splitlines()
    at = next(k for k, line in enumerate(lines) if line.startswith("pair "))
    lines[at] = lines[at].rsplit(" ", 1)[0]  # drop the last a>b token
    path = tmp_path / "partial.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "--tables", str(path), "verify", "--genus", "5..7", "--orders", "4,5")
    assert code == 2 and out == ""
    assert f"line {at + 1}: the map" in err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661"], ids=["superscript-two", "arabic-indic-one"])
@pytest.mark.parametrize(
    "kind,old,new",
    [("vertex", "pair 0+ 1+ ", "pair 0+ {}+ "), ("pattern", "pattern 3\n", "pattern {}\n"), ("map", " 1>2 ", " {}>2 ")],
    ids=["vertex", "pattern", "map"],
)
def test_table_tokens_take_ascii_digits_only(tmp_path, capsys, digit, kind, old, new):
    # `int` rejects '²' and reads '١' as 1; either way the token is not the format's
    text = tables.render_tables(tables.compute_order3_tables())
    assert old in text
    path = tmp_path / "tables.txt"
    path.write_text(text.replace(old, new.format(digit), 1), encoding="utf-8")
    try:
        code, out, err = run(capsys, "--tables", str(path), "verify", "--genus", "2")
    finally:
        tables.set_active_tables(None)
    assert code == 2 and out == ""
    assert err.startswith("error: line ") and f"bad {kind} token" in err


def test_verify_builds_only_the_table_entries_it_looks_up(capsys, monkeypatch):
    from spinatlas import classify

    def refuse():
        raise AssertionError("the full order-3 tables were built")

    monkeypatch.setattr(tables, "compute_order3_tables", refuse)
    # a fresh computed store, and no face map left over from another test
    tables.computed_tables.cache_clear()
    classify.clear_caches()
    code, out, _ = run(capsys, "verify", "--genus", "9")
    assert code == 0 and out.splitlines()[-1] == "kind=summary classes=41 mismatches=0"
    assert sum(map(len, tables.computed_tables()._index.values())) == 30


def test_tables_env_var(tmp_path, monkeypatch):
    path = tmp_path / "tables.txt"
    path.write_text(tables.render_tables(tables.compute_order3_tables()), encoding="utf-8")
    monkeypatch.setenv(tables.ENV_VAR, str(path))
    try:
        tables.set_active_tables(None)
        assert tables.active_tables() == tables.compute_order3_tables()
    finally:
        monkeypatch.delenv(tables.ENV_VAR)
        tables.set_active_tables(None)


@pytest.mark.parametrize("source", ["--tables", "env"])
@pytest.mark.parametrize("genus", ["2..3", "5..6"])
def test_unreadable_or_bad_table_files_fail_before_any_record(tmp_path, monkeypatch, capsys, source, genus):
    # orders 2..3 never look a table up, and 5..6 print order <= 3 records before their first lookup
    bad = tmp_path / "bad.txt"
    bad.write_text("not a table file\n", encoding="utf-8")
    for path, message in ((tmp_path / "missing.txt", "No such file or directory"), (bad, "missing header line")):
        if source == "env":
            monkeypatch.setenv(tables.ENV_VAR, str(path))
            argv = ["verify", "--genus", genus]
        else:
            argv = ["--tables", str(path), "verify", "--genus", genus]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err


def test_usage_error_on_unknown_command():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# ---------------------------------------------------------------- entry point


@pytest.mark.parametrize(
    "argv,code",
    [
        (["verify", "--genus", "2..4"], 0),
        (["verify", "--genus", "1"], 2),
        (["verify", "--genus", "3", "--closure-cap", "2"], 3),
    ],
)
def test_module_entry_point_exits_with_the_code_and_output_of_main(capsys, argv, code):
    done = run_python("-m", "spinatlas.cli", *argv)
    assert done.returncode == code
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)


def test_main_leaves_the_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    code, out, _ = run(capsys, "verify", "--genus", "2..4")
    assert code == 0 and out.endswith("mismatches=0\n")
    assert gc.get_freeze_count() == before


def test_run_freezes_the_heap_and_exits_with_the_code_of_main(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["spin-atlas", "verify", "--genus", "1"])
    try:
        with pytest.raises(SystemExit) as exited:
            run_entry()
        assert exited.value.code == 2
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert capsys.readouterr().err.startswith("usage error: ")


def test_console_script_is_the_exiting_entry_point():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["spin-atlas", "=", '"spinatlas.cli:run"']
