"""The oracle scripts' one runner: its exit codes, each oracle's accepted range, and the ranges CI runs."""
from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from conftest import read_range, run_oracle, spy

TESTS = Path(__file__).resolve().parent
ORACLES = sorted(path.stem.removesuffix("_oracle") for path in TESTS.glob("*_oracle.py"))


def test_the_runner_prints_its_counts_and_exits_0_1_or_for_a_fault_3_or_4(capsys):
    assert run_oracle([], "2..4", 2, lambda lo, hi: ({"orders": hi - lo + 1, "graphs": 0}, [])) == 0
    assert capsys.readouterr().out.startswith("3 orders, 0 graphs, 0 differences, ")
    assert run_oracle(["5"], "2", 2, lambda lo, hi: ({"orders": hi - lo + 1}, ["one", "two"])) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["one", "two"] and len(lines) == 3 and lines[2].startswith("1 orders, 2 differences, ")
    for error, code in ((MemoryError(), 3), (KeyError("lost"), 4)):

        def sweep(lo, hi, error=error):
            raise error

        assert run_oracle(["2"], "2", 2, sweep) == code
        out, err = capsys.readouterr()
        assert out == "" and type(error).__name__ in err


@pytest.mark.parametrize("name", ORACLES)
def test_a_bad_range_exits_2_without_running_the_sweep(name, capsys, monkeypatch):
    oracle = importlib.import_module(f"{name}_oracle")
    sweeps = spy(monkeypatch, oracle, "sweep")
    accepted = f"one argument, lo..hi or one integer, with {oracle.LOWEST} <= lo <= hi"
    for argv in (["9..3"], ["5.."], ["..4"], ["x"], [str(oracle.LOWEST - 1)], ["5..6", "7"]):
        assert oracle.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"usage error: the range must be {accepted}, got {' '.join(argv)!r}\n"
    assert sweeps == []
    # the range run when none is given is one the oracle accepts
    read_range([], oracle.DEFAULT, oracle.LOWEST)


def test_every_oracle_range_ci_runs_is_accepted():
    # each run of tests/<name>_oracle.py in the workflow, read as the oracle reads its command line
    runs = []
    for line in (TESTS.parent / ".github" / "workflows" / "tests.yml").read_text().splitlines():
        if not line.lstrip().startswith("#"):
            runs += re.findall(r"\btests/(\w+)_oracle\.py\b([^#;&|<>]*)", line)
    for name, args in runs:
        oracle = importlib.import_module(f"{name}_oracle")
        read_range(args.split(), oracle.DEFAULT, oracle.LOWEST)
    # the seven runs: orbit 10..12 and 13..14, witness 3..28, 29..30 and 31..32, enumeration 2..40, lift 6..9
    assert sorted({name for name, _ in runs}) == ORACLES and len(runs) == 7
