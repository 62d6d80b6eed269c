"""Command-line front end: enumerate classes, classify vertices, verify, export DOT.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parameter error,
3 closure cap exceeded (`atlas` records the class as `match=skipped` instead).
All output is deterministic for fixed flags.
"""
from __future__ import annotations

import argparse
import gc
import sys

from . import classify as _classify
from . import tables as _tables
from .groups import CapExceededError, cycles_str
from .graph import UnsupportedOrderError, Vertex, build_connection_graph, edge_multiplicities_r_le_2
from .params import GraphClass, InvalidClassError, enumerate_classes, heads

MAX_GENUS_DEFAULT = 12


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

def cmd_atlas(args) -> int:
    if not 2 <= args.genus <= args.max_genus:
        raise UsageError(f"genus must be within 2..{args.max_genus}")
    if args.order is not None and not 0 <= args.order < args.genus:
        raise UsageError(f"order must satisfy 0 <= r < genus")
    for gc in enumerate_classes(args.genus, args.order):
        report = None
        if not args.no_compute:
            try:
                report = _classify.verify_class(
                    gc, max_steps=args.max_steps, closure_cap=args.closure_cap, exhaustive=args.exhaustive
                )
            except CapExceededError:
                report = None
        print(render_record(atlas_record(gc, report)))
    return 0


def cmd_classify(args) -> int:
    gc = _class_from_args(args)
    cg = build_connection_graph(gc)
    try:
        wanted = Vertex.parse(args.vertex) if args.vertex else None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if wanted is not None and not 0 <= wanted.cls <= gc.order:
        raise UsageError(f"vertex {args.vertex} is not in an order-{gc.order} graph")
    rows = []
    for v in cg.vertices():
        if wanted is not None and v != wanted:
            continue
        res = _classify.spin_group_at(
            cg, v, max_steps=args.max_steps, closure_cap=args.closure_cap, exhaustive=args.exhaustive
        )
        rows.append(res)
    for res in rows:
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
        for chain, perm in zip(res.witnesses, res.generators):
            print(f"  witness {cycles_str(perm)}: {chain.describe()}")
    return 0


def _print_verify(targets: list[GraphClass], reports) -> int:
    """Print each class's records as its report arrives; the number of mismatched classes."""
    mismatches = 0
    for gc, report in zip(targets, reports):
        ok = report.match_all
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


def cmd_verify(args) -> int:
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

    def run(gc: GraphClass) -> _classify.ClassReport:
        return _classify.verify_class(
            gc, max_steps=args.max_steps, closure_cap=args.closure_cap, exhaustive=args.exhaustive
        )

    if args.jobs > 1:
        # imported only here: the import costs every serial run several milliseconds
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            mismatches = _print_verify(targets, pool.map(run, targets))
    else:
        mismatches = _print_verify(targets, map(run, targets))
    print(render_record({"kind": "summary", "classes": str(len(targets)), "mismatches": str(mismatches)}))
    return 0 if mismatches == 0 else 1


def _dot_quote(name: str) -> str:
    return f'"{name}"'


def cmd_export_dot(args) -> int:
    gc = _class_from_args(args)
    cg = build_connection_graph(gc)
    lines = [f"graph spin_atlas {{", f'  label="{gc.label()} genus {gc.genus}";', "  node [shape=circle];"]
    for v in cg.vertices():
        lines.append(f"  {_dot_quote(v.name)};")
    if args.kind == "connection":
        seen = set()
        for u in cg.vertices():
            for w in cg.vertices():
                if u < w and cg.adjacent(u, w) and (u, w) not in seen:
                    seen.add((u, w))
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
    parser.add_argument("--tables", help="path to a face-map table file (overrides the computed tables)")
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
    p_ver.add_argument("--jobs", type=int, default=1)
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
    try:
        # a table file named by --tables or the environment is checked here, before any record
        _tables.install_configured(args.tables)
    except (OSError, _tables.TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if "max_steps" in vars(args) and args.max_steps < 2:
            raise UsageError(f"--max-steps must be >= 2, got {args.max_steps}")
        if "closure_cap" in vars(args) and args.closure_cap < 1:
            raise UsageError(f"--closure-cap must be >= 1, got {args.closure_cap}")
        if "jobs" in vars(args) and args.jobs < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
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
    code = main()
    # The collections at exit walk every tracked object, the start-up heap too, to free memory that
    # exit frees anyway; they skip frozen objects. Not in `main`: in-process callers keep a collectable heap.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
