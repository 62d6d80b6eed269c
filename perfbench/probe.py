"""Traced child process of the spin-atlas benchmark.

Run from the root of a checkout, with `src` on PYTHONPATH:

    python3 perfbench/probe.py setup <metrics.json>
    python3 perfbench/probe.py verify <metrics.json> <spans.tsv> -- <cli args>

`setup` imports `spinatlas.cli` and builds the active order-3 tables, timing
`tables.compute_order3_tables`.  `verify` wraps the public functions through
which one module calls the next, runs `spinatlas.cli.main(<cli args>)` with its
records on this process's stdout, and exits with its return code.

Each wrapper keeps one span in memory (name, start, end, parent span); the
spans are written to <spans.tsv> at the end, one `name start end parent` line
each, where parent is the line number (from 0) of the enclosing span or -1.
Span times are this process's CPU time (`time.process_time`), because the
benchmark stops the process now and then to time its calibration kernel and
a wall clock would count those stops.
The per-layer numbers derived from the spans and from the returned objects go
to <metrics.json>.
"""
from __future__ import annotations

import json
import sys
import time
from array import array


class Tracer:
    """Spans in parallel arrays, so a million short calls stay cheap to record."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def wrap(self, label: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.process_time

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, label: str, on_result=None) -> None:
        setattr(owner, attr, self.wrap(label, getattr(owner, attr), on_result))

    def durations(self, label: str) -> list[float]:
        nid = self.names.index(label)
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == nid]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part its child spans cover."""
        covered = [0.0] * len(self.start)
        for p, s, e in zip(self.parent, self.start, self.end):
            if p >= 0:
                covered[p] += e - s
        totals = dict.fromkeys(self.names, 0.0)
        for n, s, e, c in zip(self.name, self.start, self.end, covered):
            totals[self.names[n]] += e - s - c
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent):
                fh.write(f"{self.names[n]}\t{s!r}\t{e!r}\t{p}\n")


def setup(metrics_path: str) -> int:
    import spinatlas.cli  # noqa: F401  (the import is part of what set-up costs)
    from spinatlas import tables

    tracer = Tracer()
    tracer.patch(tables, "compute_order3_tables", "tables.compute_order3_tables")
    tables.active_tables()
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump({"tables.build_s": sum(tracer.durations("tables.compute_order3_tables"))}, fh)
    return 0


def verify(metrics_path: str, spans_path: str, cli_args: list[str]) -> int:
    from spinatlas import classify, cli, faces, graph, groups, tables

    tracer = Tracer()
    reports: list = []
    results: list = []
    closure_sizes = array("q")
    tracer.patch(cli, "enumerate_classes", "params.enumerate_classes")
    tracer.patch(classify, "verify_class", "classify.verify_class", reports.append)
    tracer.patch(classify, "spin_group_at", "classify.spin_group_at", results.append)
    tracer.patch(classify, "face_map", "faces.face_map")
    tracer.patch(groups, "closure", "groups.closure", lambda elems: closure_sizes.append(len(elems)))
    tracer.patch(groups, "recognize", "groups.recognize")
    tracer.patch(tables, "compute_order3_tables", "tables.compute_order3_tables")
    tracer.patch(tables.FaceTables, "lookup", "tables.lookup")
    main = tracer.wrap("cli.main", cli.main)

    rc = main(cli_args)
    sys.stdout.flush()
    done = time.process_time()

    self_s = tracer.self_times()
    distinct = list({id(r): r for r in results}.values())
    tried = sum(r.chains_tried for r in distinct)
    kept = sum(len(r.witnesses) for r in distinct)
    memo = faces._face_map_pairs.cache_info()
    graphs = {(cg.order, cg.connected) for cg in (graph.build_connection_graph(r.graph_class) for r in reports)}
    metrics = {
        "params.classes": len(reports),
        "graph.distinct_graphs": len(graphs),
        "tables.lookups": len(tracer.durations("tables.lookup")),
        "faces.face_map_calls": len(tracer.durations("faces.face_map")),
        "faces.face_map_s": self_s["faces.face_map"],
        "faces.face_map_hit_ratio": memo.hits / max(1, memo.hits + memo.misses),
        "chains.tried": tried,
        "chains.kept_ratio": kept / max(1, tried),
        "chains.search_s": self_s["classify.spin_group_at"],
        "groups.closure_calls": len(closure_sizes),
        "groups.closure_s": self_s["groups.closure"],
        "groups.closure_elements": sum(closure_sizes),
        "groups.max_order": max(closure_sizes, default=0),
        "groups.recognize_s": self_s["groups.recognize"],
        "classify.vertex_calls": len(results),
        "classify.result_hit_ratio": 1 - len(distinct) / max(1, len(results)),
        "classify.slowest_class_s": max(tracer.durations("classify.verify_class"), default=0.0),
        "cli.main_s": sum(tracer.durations("cli.main")),
        "spans": len(tracer.start),
    }
    tracer.write(spans_path)
    # the time spent here after the run, which the tracing overhead excludes
    metrics["post_s"] = time.process_time() - done
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    return rc


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(*rest))
    metrics_file, spans_file, sep, *argv = rest
    if mode != "verify" or sep != "--":
        sys.exit("usage: probe.py setup <metrics.json> | verify <metrics.json> <spans.tsv> -- <cli args>")
    sys.exit(verify(metrics_file, spans_file, argv))
