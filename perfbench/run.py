"""Benchmark of the `spin-atlas verify` command.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Each workload is one fixed `spin-atlas verify` invocation, run closed-loop:
one command at a time, each in a fresh interpreter, none with `--jobs`.  The
workloads take no random input, so every seed gives the same inputs; the seed
is recorded with the result.

`--trace 0` times the command with nothing traced.  It repeats the command
until `--seconds` have passed (at least once) and reports medians of the
per-child figures from `os.wait4`, plus the median of several fresh set-up
starts.  `--trace 1` runs the command once untraced and once under
`probe.py`, which wraps the calls between modules, and reports the per-layer
split and the tracing overhead: traced minus untraced wall time, leaving out
the time the traced child spends writing its spans after the run.

Times are reported at a reference speed.  On a shared host the speed of a
CPU changes by up to 2x for seconds to minutes at a time, which moves every
run alike.  So the benchmark pins itself and its children to one CPU, stops
the running child every SLICE_S to time a fixed pure-Python kernel
(`calibrate`), and scales each slice of the child's time by REF_KERNEL_S over
the kernel times at its ends.  Wall time counts only the slices the child
ran.  The unscaled times and the scale of every child are kept in the record.

Every run is checked: exit code 0, a last record `kind=summary classes=<n>
mismatches=0`, and stdout whose sha256 equals the one pinned for the
workload.  A run that breaks any of these fails all its classes.  The traced
stdout must also equal the untraced stdout byte for byte.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The run context, the samples and the
spans go to `.bench_build/perfbench/` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
PROBE = Path(__file__).resolve().parent / "probe.py"

# The whole invocation must end within 180 s; children are killed past this.
BUDGET_S = 165.0
SETUP_STARTS = 21
TRACED_SETUP_STARTS = 3
SETUP_CODE = "import spinatlas.cli\nfrom spinatlas import tables\ntables.active_tables()\n"
# the kernel time that defines the reference speed: about what `calibrate`
# takes on the machine the baseline was measured on, when its host is quiet
REF_KERNEL_S = 0.015
SLICE_S = 0.25


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    classes: int
    stdout_sha256: str
    # counts of the traced run at the commit that defined the benchmark
    seed_counts: dict[str, int]


WORKLOADS = {
    # many small classes sharing 20 graphs: per-class overhead, result reuse,
    # small-group closure and the order-3 table path (orders 4..7)
    "verify-small": Workload(
        ("verify", "--genus", "2..8"),
        86,
        "38313bbe645e312a19f30851f1b1961efd8648142b4d985d67b57ae289345d79",
        {"chains.tried": 13443, "groups.closure_calls": 608, "tables.lookups": 2819, "classify.vertex_calls": 598},
    ),
    # the largest label sets that finish today: one order-8 class closes S9,
    # so the group engine dominates wall time and peak memory
    "verify-g9": Workload(
        ("verify", "--genus", "9"),
        41,
        "a900637550caff637a11029fb3ac72c9e6f1f61003db339efefba1f9cd5cce5c",
        {"chains.tried": 32182, "groups.closure_calls": 987, "tables.lookups": 5495, "classify.vertex_calls": 364},
    ),
    # no early stop and the whole chain budget: chain search and face maps
    # dominate, with almost no closure and no table lookups
    "exhaustive-small": Workload(
        ("verify", "--genus", "2..5", "--orders", "0,1,2,3", "--exhaustive", "--max-steps", "4"),
        21,
        "aea0cd6a172df1ec832d28e3d3203740082e2257aed59bd6a45b46eb504cf873",
        {"chains.tried": 563760, "groups.closure_calls": 60, "tables.lookups": 0, "classify.vertex_calls": 100},
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "classes_per_s": "classes/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "params.classes": "count",
    "graph.distinct_graphs": "count",
    "tables.build_s": "s",
    "tables.lookups": "count",
    "faces.face_map_calls": "count",
    "faces.face_map_s": "s",
    "faces.face_map_hit_ratio": "ratio",
    "chains.tried": "count",
    "chains.kept_ratio": "ratio",
    "chains.search_s": "s",
    "groups.closure_calls": "count",
    "groups.closure_s": "s",
    "groups.closure_elements": "count",
    "groups.max_order": "count",
    "groups.recognize_s": "s",
    "classify.vertex_calls": "count",
    "classify.result_hit_ratio": "ratio",
    "classify.slowest_class_s": "s",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    returncode: int | None
    stdout: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    # reference over actual speed while the child ran: multiply its times by it
    scale: float


def child_env() -> dict[str, str]:
    # No PYTHON* setting of the caller (unbuffered output, no bytecode cache)
    # and no table override reach the program: it runs as a plain install does.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "SPIN_ATLAS_TABLES"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _walks(v: int, carried: dict[int, int], depth: int):
    if depth == 0:
        yield tuple(sorted(carried.items()))
        return
    for w in ((v + 1) % 8, (v + 3) % 8, (v + 5) % 8):
        yield from _walks(w, {k: (x * 3 + w) % 7 for k, x in carried.items()}, depth - 1)


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python kernel.

    Half is like group closure (close S7 by breadth-first products of tuples),
    half like chain search (recursive generators carrying a dict along walks).
    It is the benchmark's own code, so no change to the program moves it.
    """
    n = 7
    gens = ((1, 0, *range(2, n)), (*range(1, n), 0))
    start = time.perf_counter()
    elems = {tuple(range(n))}
    frontier = list(elems)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = tuple(g[x] for x in a)
                if b not in elems:
                    elems.add(b)
                    fresh.append(b)
        frontier = fresh
    ends = set(_walks(0, {k: k for k in range(6)}, 7))
    elapsed = time.perf_counter() - start
    if len(elems) != 5040 or len(ends) != 7:
        raise RuntimeError("calibration kernel computed a wrong result")
    return elapsed


class Runner:
    """Runs fresh processes one at a time on this process's CPU and scales their times.

    Every SLICE_S the child is stopped while `calibrate` runs, and each slice
    of the child's wall time is scaled by REF_KERNEL_S over the mean kernel
    time at its two ends.  Wall time counts only the slices the child ran.
    """

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.kernel_s = calibrate()
        OUT.mkdir(parents=True, exist_ok=True)

    def run(self, argv: list[str]) -> Child:
        with open(OUT / "child.stdout", "w+b") as sink:
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=sink)
            pidfd = os.pidfd_open(proc.pid)
            try:
                raw = scaled = 0.0
                started = time.perf_counter()
                while True:
                    exited = bool(select.select([pidfd], [], [], SLICE_S)[0])
                    ran = time.perf_counter() - started
                    if not exited and time.perf_counter() > self.deadline:
                        proc.kill()
                        exited = True
                    elif not exited:
                        os.kill(proc.pid, signal.SIGSTOP)
                    after = calibrate()
                    raw += ran
                    scaled += ran * REF_KERNEL_S * 2 / (self.kernel_s + after)
                    self.kernel_s = after
                    if exited:
                        break
                    os.kill(proc.pid, signal.SIGCONT)
                    started = time.perf_counter()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
            proc.returncode = os.waitstatus_to_exitcode(status)
            sink.seek(0)
            out = sink.read()
        cpu = usage.ru_utime + usage.ru_stime
        return Child(proc.returncode, out, raw, cpu, usage.ru_maxrss / 1024, scaled / raw)


def output_ok(workload: Workload, child: Child) -> bool:
    lines = child.stdout.decode("utf-8", "replace").splitlines()
    summary = f"kind=summary classes={workload.classes} mismatches=0"
    return (
        child.returncode == 0
        and bool(lines)
        and lines[-1] == summary
        and hashlib.sha256(child.stdout).hexdigest() == workload.stdout_sha256
    )


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def measure(workload: Workload, seconds: int, deadline: float) -> tuple[dict[str, float], list[Child], dict]:
    """Untraced: set up SETUP_STARTS times, then repeat the command for `seconds`; report medians."""
    runner = Runner(deadline)
    setup = [sys.executable, "-c", SETUP_CODE]
    runner.run(setup)  # untimed: writes the bytecode cache
    setups = [runner.run(setup) for _ in range(SETUP_STARTS)]
    argv = [sys.executable, "-m", "spinatlas.cli", *workload.args]
    runs: list[Child] = []
    begin = time.perf_counter()
    while not runs or time.perf_counter() - begin < seconds:
        if runs and time.perf_counter() + runs[-1].wall_s > deadline:
            break
        runs.append(runner.run(argv))
    metrics = {
        "wall_s": statistics.median(c.wall_s * c.scale for c in runs),
        "cpu_s": statistics.median(c.cpu_s * c.scale for c in runs),
        "classes_per_s": statistics.median(workload.classes / (c.wall_s * c.scale) for c in runs),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in runs),
        "setup_s": statistics.median(c.wall_s * c.scale for c in setups),
    }
    samples = {
        "runs": [sample(c) for c in runs],
        "setups": [sample(c) for c in setups],
        "raw_wall_s": statistics.median(c.wall_s for c in runs),
        "probes_ok": all(c.returncode == 0 for c in setups),
    }
    return metrics, runs, samples


def trace(workload: Workload, name: str, deadline: float) -> tuple[dict[str, float], list[Child], dict]:
    """Traced: traced set-up starts, then one untraced and one traced fresh run of the command."""
    runner = Runner(deadline)
    setup_json = OUT / "setup-metrics.json"
    build_s = []
    for _ in range(TRACED_SETUP_STARTS):
        setup_json.unlink(missing_ok=True)
        started = runner.run([sys.executable, str(PROBE), "setup", str(setup_json)])
        if started.returncode == 0:
            build_s.append(json.loads(setup_json.read_text())["tables.build_s"] * started.scale)
    plain = runner.run([sys.executable, "-m", "spinatlas.cli", *workload.args])
    metrics_json = OUT / f"{name}-trace-metrics.json"
    metrics_json.unlink(missing_ok=True)
    spans = OUT / f"{name}-spans.tsv"
    traced = runner.run([sys.executable, str(PROBE), "verify", str(metrics_json), str(spans), "--", *workload.args])
    layer = json.loads(metrics_json.read_text()) if metrics_json.exists() else {}
    probes_ok = bool(layer) and len(build_s) == TRACED_SETUP_STARTS
    counts = {key: layer.get(key) for key in workload.seed_counts}
    if probes_ok:
        for key in layer:
            if key.endswith("_s"):
                layer[key] *= traced.scale
        layer["tables.build_s"] = statistics.median(build_s)
        layer["trace.overhead_s"] = traced.wall_s * traced.scale - layer["post_s"] - plain.wall_s * plain.scale
    # a failed probe leaves zeros, and the run is reported as not correct
    metrics = {key: layer.get(key, 0) for key in PER_LAYER_UNITS}
    samples = {
        "untraced": sample(plain),
        "traced": sample(traced),
        # implied when both runs pass the output gate; recorded for when they do not
        "traced_stdout_identical": traced.stdout == plain.stdout,
        "spans": layer.get("spans"),
        "spans_file": str(spans.relative_to(ROOT)),
        "counts": counts,
        "counts_equal_seed": counts == workload.seed_counts,
        "probes_ok": probes_ok,
    }
    return metrics, [plain, traced], samples


def sample(child: Child) -> dict:
    return {
        "returncode": child.returncode,
        "wall_s": child.wall_s,
        "cpu_s": child.cpu_s,
        "peak_rss_mb": child.peak_rss_mb,
        "scale": child.scale,
        "stdout_sha256": hashlib.sha256(child.stdout).hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: int, traced: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]
    load_before = os.getloadavg()
    if traced:
        metrics, runs, samples = trace(workload, name, deadline)
        units = PER_LAYER_UNITS
    else:
        metrics, runs, samples = measure(workload, seconds, deadline)
        units = END_TO_END_UNITS
    failed = sum(workload.classes for c in runs if not output_ok(workload, c))
    attempted = workload.classes * len(runs)
    correct = failed == 0 and samples["probes_ok"]
    record = {
        "workload": name,
        "args": list(workload.args),
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "samples": samples,
    }
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    name = record["workload"]
    print(
        f"{name}: spin-atlas {' '.join(record['args'])} | git {record['git_sha']} | python {record['python']}"
        f" | nproc {record['nproc']} | load {record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}"
    )
    for key, metric in record["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_share = {record['failed_share']:.6g} ratio ({record['failed']} of {record['attempted']} classes)")
    samples = record["samples"]
    if record["trace"]:
        print(f"  traced stdout identical: {samples['traced_stdout_identical']}; {samples['spans']} spans")
        print(f"  counts equal the seed values: {samples['counts_equal_seed']} {samples['counts']}")
        if not samples["counts_equal_seed"]:
            print(f"warning: {name}: traced counts differ from the seed values", file=sys.stderr)
    else:
        scales = [run["scale"] for run in samples["runs"]]
        print(
            f"  runs: {len(scales)}; set-up starts: {len(samples['setups'])};"
            f" unscaled wall_s {samples['raw_wall_s']:.6g} s; scale {min(scales):.3f}..{max(scales):.3f}"
        )
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinatlas" / "cli.py").is_file():
        print(f"error: no spin-atlas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the calibration kernel tracks the speed of the CPU it runs on, so the
    # children must run on that same CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        deadline = time.perf_counter() + BUDGET_S
        records.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
        report(records[-1])
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{key}": m for r in records for key, m in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
