"""Command-line front end: enumerate classes, classify vertices, verify, export DOT.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parameter error,
3 closure cap exceeded (`atlas` records the class as `match=skipped` instead),
141 stdout closed by its reader (as `| head` does), the shell's code for SIGPIPE.
All output is deterministic for fixed flags.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys

from . import classify as _classify
from . import tables as _tables
from .chains import StepTable
from .groups import CapExceededError, cycles_str
from .graph import UnsupportedOrderError, Vertex, build_connection_graph, edge_multiplicities_r_le_2
from .params import GraphClass, InvalidClassError, enumerate_classes, heads

MAX_GENUS_DEFAULT = 12
# the exit code of `run` when stdout's reader has closed it: 128 + SIGPIPE, as a shell reports it
BROKEN_PIPE_EXIT = 141


class UsageError(Exception):
    pass


# ---------------------------------------------------------------- records

def _fmt_list(values) -> str:
    vals = [str(x) for x in values]
    return ",".join(vals) if vals else "-"


def _fmt_map(pairs) -> str:
    return ",".join(f"{k}:{v}" for k, v in pairs) or "-"


def render_record(fields: dict[str, str]) -> str:
    return " ".join(f"{key}={value}" for key, value in fields.items())


def parse_record(line: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if sep != "=" or not key:
            raise ValueError(f"bad record token {token!r}")
        out[key] = value
    return out


def parse_list(value: str) -> list[str]:
    return [] if value == "-" else value.split(",")


def parse_map(value: str) -> dict[str, str]:
    if value == "-":
        return {}
    return dict(item.split(":", 1) for item in value.split(","))


# ---------------------------------------------------------------- rows

def atlas_record(gc: GraphClass, report: _classify.ClassReport | None) -> dict[str, str]:
    cg = build_connection_graph(gc)
    degrees = [(c, cg.epsilon_degree(Vertex(c, False))) for c in cg.classes]
    predicted = [(c, _classify.predict_group(cg, Vertex(c, False))) for c in cg.classes]
    fields = {
        "kind": "atlas",
        "genus": str(gc.genus),
        "order": str(gc.order),
        "i": str(gc.i),
        "p": _fmt_list(gc.p),
        "k": _fmt_list(gc.k),
        "connected": _fmt_list(sorted(gc.connected_pairs)),
        "heads": _fmt_list(sorted(heads(gc))),
        "degrees": _fmt_map(degrees),
        "predicted": _fmt_map((c, str(v)) for c, v in predicted),
    }
    if report is None:
        fields["computed"] = "-"
        fields["match"] = "skipped"
    else:
        by_class = {row.vertex.cls: row.computed for row in report.rows if not row.vertex.tilded}
        fields["computed"] = _fmt_map((c, str(by_class[c])) for c in cg.classes)
        fields["match"] = "true" if report.match_all else "false"
    return fields


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _class_from_args(args) -> GraphClass:
    p = tuple(_int(x, "-p") for x in args.p.split(",")) if args.p not in (None, "", "-") else ()
    i = args.i
    if i is None:
        if args.order == 0:
            i = args.genus  # the only order-0 class: the conjugate point carries everything
        else:
            raise UsageError("-i is required for order >= 1")
    return GraphClass(args.genus, args.order, i, p)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return _int(lo, "--genus"), _int(hi, "--genus")
    value = _int(text, "--genus")
    return value, value


# ---------------------------------------------------------------- commands

def cmd_atlas(args, engine: _classify.Engine) -> int:
    if not 2 <= args.genus <= args.max_genus:
        raise UsageError(f"genus must be within 2..{args.max_genus}")
    if args.order is not None and not 0 <= args.order < args.genus:
        raise UsageError(f"order must satisfy 0 <= r < genus")
    for gc in enumerate_classes(args.genus, args.order):
        report = None
        if not args.no_compute:
            try:
                report = _classify.verify_class(gc, engine=engine)
            except CapExceededError:
                report = None
        print(render_record(atlas_record(gc, report)))
    return 0


def cmd_classify(args, engine: _classify.Engine) -> int:
    gc = _class_from_args(args)
    cg = build_connection_graph(gc)
    try:
        wanted = Vertex.parse(args.vertex) if args.vertex else None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if wanted is not None and not 0 <= wanted.cls <= gc.order:
        raise UsageError(f"vertex {args.vertex} is not in an order-{gc.order} graph")
    table = StepTable(cg, engine.store)
    for res in engine.search(cg, [v for v in cg.vertices() if wanted in (None, v)], table):
        print(
            render_record(
                {
                    "kind": "vertex",
                    "vertex": res.vertex.name,
                    "degree": str(cg.epsilon_degree(res.vertex)),
                    "predicted": str(res.predicted),
                    "computed": str(res.verdict),
                    "match": "true" if res.match else "false",
                }
            )
        )
        # each witness evaluates to the generator kept with it
        for path, perm in res.kept():
            print(f"  witness {cycles_str(perm)}: {table.chain(res.vertex, path).describe()}")
    return 0


def _print_verify(reports) -> int:
    """Print each class's records as its report arrives; the number of mismatched classes."""
    mismatches = 0
    for report in reports:
        gc, ok = report.graph_class, report.match_all
        mismatches += 0 if ok else 1
        print(
            render_record(
                {
                    "kind": "verify",
                    "genus": str(gc.genus),
                    "order": str(gc.order),
                    "i": str(gc.i),
                    "p": _fmt_list(gc.p),
                    "match": "true" if ok else "false",
                }
            )
        )
        for row in report.rows:
            if not row.match:
                print(f"  mismatch {row.vertex.name}: predicted {row.predicted}, computed {row.computed}")
        # each class's records leave as it finishes, so a run cut short keeps them
        sys.stdout.flush()
    return mismatches


def cmd_verify(args, engine: _classify.Engine) -> int:
    lo, hi = _parse_range(args.genus)
    if lo < 2 or hi > args.max_genus or lo > hi:
        raise UsageError(f"genus range must lie within 2..{args.max_genus}")
    orders = None
    if args.orders:
        orders = sorted({_int(x, "--orders") for x in args.orders.split(",")})
        if orders[0] < 0 or orders[-1] >= hi:
            raise UsageError(f"--orders must lie within 0..{hi - 1} for genus up to {hi}")
    targets = []
    for genus in range(lo, hi + 1):
        for gc in enumerate_classes(genus):
            if orders is None or gc.order in orders:
                targets.append(gc)

    mismatches = _print_verify(_classify.verify_class(gc, engine=engine) for gc in targets)
    print(render_record({"kind": "summary", "classes": str(len(targets)), "mismatches": str(mismatches)}))
    return 0 if mismatches == 0 else 1


def _dot_quote(name: str) -> str:
    return f'"{name}"'


def cmd_export_dot(args, engine: _classify.Engine) -> int:
    gc = _class_from_args(args)
    cg = build_connection_graph(gc)
    lines = [f"graph spin_atlas {{", f'  label="{gc.label()} genus {gc.genus}";', "  node [shape=circle];"]
    for v in cg.vertices():
        lines.append(f"  {_dot_quote(v.name)};")
    if args.kind == "connection":
        for u in cg.vertices():
            for w in cg.vertices():
                if u < w and cg.adjacent(u, w):
                    lines.append(f"  {_dot_quote(u.name)} -- {_dot_quote(w.name)} [style=dashed];")
    else:
        try:
            mults = edge_multiplicities_r_le_2(gc)
        except UnsupportedOrderError as exc:
            print(f"FullExportUnsupported: {exc}", file=sys.stderr)
            return 2
        for (u, w), mult in sorted(mults.items()):
            lines.append(f'  {_dot_quote(u.name)} -- {_dot_quote(w.name)} [label="{mult}"];')
    lines.append("}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------- entry

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spin-atlas", description=__doc__)
    parser.add_argument("--tables", help="path to an order-3 face-map table file to lift maps through from order 4 on")
    parser.add_argument("--max-genus", type=int, default=MAX_GENUS_DEFAULT)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-steps", type=int, default=_classify.DEFAULT_MAX_STEPS)
        p.add_argument("--closure-cap", type=int, default=_classify.DEFAULT_CLOSURE_CAP)
        p.add_argument("--exhaustive", action="store_true", help="consume the whole chain budget until the group is S_n")

    p_atlas = sub.add_parser("atlas", help="one row per class of a genus")
    p_atlas.add_argument("--genus", type=int, required=True)
    p_atlas.add_argument("--order", type=int)
    p_atlas.add_argument("--no-compute", action="store_true", help="skip group computation")
    common(p_atlas)
    p_atlas.set_defaults(func=cmd_atlas)

    p_cls = sub.add_parser("classify", help="group verdicts for one class")
    p_cls.add_argument("--genus", "-g", type=int, required=True)
    p_cls.add_argument("--order", "-r", type=int, required=True)
    p_cls.add_argument("--i", "-i", type=int)
    p_cls.add_argument("--p", "-p", default="-", help="comma-separated increments, '-' for none")
    p_cls.add_argument("--vertex", help="restrict to one vertex, e.g. P2 or P2~")
    common(p_cls)
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="verify predictions over a genus range")
    p_ver.add_argument("--genus", required=True, help="a genus or a range like 2..6")
    p_ver.add_argument("--orders", help="comma-separated orders to include")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_dot = sub.add_parser("export-dot", help="emit a DOT rendering of one class")
    p_dot.add_argument("--genus", "-g", type=int, required=True)
    p_dot.add_argument("--order", "-r", type=int, required=True)
    p_dot.add_argument("--i", "-i", type=int)
    p_dot.add_argument("--p", "-p", default="-")
    p_dot.add_argument("--kind", choices=["connection", "full"], default="connection")
    p_dot.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k in ("max_steps", "closure_cap", "exhaustive")}
    try:
        # the table file named by --tables or the environment, then the search flags, are checked before any record
        engine = _classify.Engine(_tables.load_tables(args.tables) if args.tables else _tables.active_tables(), **flags)
    except (OSError, _tables.TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a search setting; after TableError, which is a ValueError too
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, engine)
    except CapExceededError as exc:
        print(f"CapExceeded: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InvalidClassError as exc:
        print(f"InvalidClass: {exc}", file=sys.stderr)
        return 2
    except _tables.TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The entry point of `spin-atlas` and `python -m spinatlas.cli`: `main`, then exit with its code."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = BROKEN_PIPE_EXIT
    # The collections at exit walk every tracked object, the start-up heap too, to free memory that
    # exit frees anyway; they skip frozen objects. Not in `main`: in-process callers keep a collectable heap.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
