"""The pinned command lines: each run in a fresh interpreter must exit 0 with stdout whose sha256 is its pin.

The benchmark's three workloads are read from `perfbench/run.py`, which holds their pins; the
others are pinned here, and nowhere else.  The short lines also run under `python -O`, which
strips assert statements, and under two more hash seeds, since sets of classes are everywhere:
their bytes must not change.
"""
from __future__ import annotations

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import python_env


def _benchmark_workloads() -> dict:
    """`WORKLOADS` of `perfbench/run.py`, imported from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


# per name: the command line, the classes its `verify` summary counts (None for no `verify`), and its sha256
PINS = {
    **{name: (w.args, w.classes, w.stdout_sha256) for name, w in _benchmark_workloads().items()},
    # the witnesses are read back from the search paths, which are choice indices of the step table
    "classify-witnesses": (
        ("classify", "-g", "12", "-r", "10", "-i", "0", "-p", "0,0,0,0,0,0,0,0,1,0"),
        None,
        "11cdc51c86a305aa5a3116dafe39564a5e90a6420beaa6f3df22237e284c80dc",
    ),
    # every class of one genus, with its degrees, predictions and computed groups
    "atlas-g9": (
        ("atlas", "--genus", "9"),
        None,
        "90b6a64aeb68e7e54d43d2727325ef550bf40065cfa247655fd5a5f294df0dce",
    ),
    # every class to the default genus bound that the benchmark's lines do not reach
    "verify-10..12": (
        ("verify", "--genus", "10..12"),
        231,
        "202733e5147970515cee3bf424c325edbe619123fbf19873469e36a851eea080",
    ),
    # label sets up to 20 points, each S_n verdict decided by the 2- and 3-cycle certificate
    "verify-13..20": (
        ("--max-genus", "20", "verify", "--genus", "13..20"),
        3125,
        "91f7b2aae2c9232dbcb10022a4b8bb32d6a28e96e78bc2fa9ca82bc0d87cff1e",
    ),
    # label sets up to 28 points: the lifetime of each graph's step table and walk state sets the memory
    "verify-25..28": (
        ("--max-genus", "28", "verify", "--genus", "25..28"),
        13725,
        "cf0d26c36740c4a49727ea6c2642ae9931c4aca9b4afe58a705f2e67e137548d",
    ),
    # two-pair faces at orders up to 31, each in C(r-1, 2) cells, which 25..28 does not reach
    "verify-29..32": (
        ("--max-genus", "32", "verify", "--genus", "29..32"),
        30934,
        "5ac57c704eb944a3ddac8539382155b0209df5ce7f82699ed3c5ed5842520a5c",
    ),
}


# per extra run of each short line: the interpreter's flags and PYTHONHASHSEED
VARIANTS = {"optimized-seed-1": (("-O",), "1"), "seed-123": ((), "123")}
SHORT = ["verify-small", "verify-g9", "exhaustive-small", "classify-witnesses", "atlas-g9", "verify-10..12"]


def check_pin(name: str, flags: tuple[str, ...] = (), env: dict[str, str] | None = None) -> None:
    args, classes, pin = PINS[name]
    argv = [sys.executable, *flags, "-m", "spinatlas.cli", *args]
    child = subprocess.run(argv, capture_output=True, env={**python_env(), **(env or {})}, timeout=120)
    assert child.returncode == 0, child.stderr.decode()
    if classes is not None:
        assert child.stdout.splitlines()[-1] == f"kind=summary classes={classes} mismatches=0".encode()
    assert hashlib.sha256(child.stdout).hexdigest() == pin


@pytest.mark.parametrize("name", PINS)
def test_stdout_matches_its_pin(name):
    check_pin(name)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", SHORT)
def test_stdout_holds_its_pin_optimized_and_under_other_hash_seeds(name, variant):
    flags, seed = VARIANTS[variant]
    check_pin(name, flags, {"PYTHONHASHSEED": seed})


# per benchmark workload, the search work its run does: (searches, chains tried, distinct permutations met)
SEARCH_WORK = {"verify-small": (36, 575, 186), "verify-g9": (45, 711, 306), "exhaustive-small": (13, 70, 14)}


@pytest.mark.parametrize("name", SEARCH_WORK)
def test_each_benchmark_workload_does_its_pinned_search_work(name, monkeypatch, capsys):
    # a faster run must come from cheaper searches, not from fewer of them or from less search
    from spinatlas import classify, cli

    results = []
    real = classify.spin_group_at

    def recorded(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(classify, "spin_group_at", recorded)
    args, _, _ = PINS[name]
    assert cli.main(list(args)) == 0
    capsys.readouterr()
    work = (len(results), sum(r.chains_tried for r in results), sum(len(r.distinct) for r in results))
    assert work == SEARCH_WORK[name]
