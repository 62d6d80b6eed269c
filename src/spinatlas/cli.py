"""Command-line front end: enumerate classes, classify vertices, verify, export DOT.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parameter error,
3 resource limit: the closure cap (`atlas` records the class as `match=skipped` instead) or memory,
4 internal error (its traceback on stderr),
141 stdout closed by its reader (as `| head` does), the shell's code for SIGPIPE.
All output is deterministic for fixed flags.
"""
from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import classify as _classify
from .chains import StepTable
from .groups import CapExceededError, cycles_str
from .graph import UnsupportedOrderError, Vertex, build_connection_graph, edge_multiplicities_r_le_2
from .params import GraphClass, InvalidClassError, enumerate_classes, heads

MAX_GENUS_DEFAULT = 12
INTERNAL_ERROR_EXIT = 4  # the exit code of `run` for an uncaught exception
BROKEN_PIPE_EXIT = 141  # the exit code of `run` when stdout's reader has gone: 128 + SIGPIPE, as a shell reports it


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
        sys.stdout.flush()  # each class's record leaves as it finishes, so a run cut short keeps it
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
    table = StepTable(cg)
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
    if args.orders is not None:  # an empty value names no order: it fails as a bad integer, not as "every order"
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


def cmd_export_dot(args, engine: _classify.Engine) -> int:
    gc = _class_from_args(args)
    cg = build_connection_graph(gc)
    lines = [f"graph spin_atlas {{", f'  label="{gc.label()} genus {gc.genus}";', "  node [shape=circle];"]
    for v in cg.vertices():
        lines.append(f'  "{v.name}";')
    if args.kind == "connection":
        for u in cg.vertices():
            for w in cg.vertices():
                if u < w and cg.adjacent(u, w):
                    lines.append(f'  "{u.name}" -- "{w.name}" [style=dashed];')
    else:
        try:
            mults = edge_multiplicities_r_le_2(gc)
        except UnsupportedOrderError as exc:
            print(f"FullExportUnsupported: {exc}", file=sys.stderr)
            return 2
        for (u, w), mult in sorted(mults.items()):
            lines.append(f'  "{u.name}" -- "{w.name}" [label="{mult}"];')
    lines.append("}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------- entry

# Every option of the program, declared once: per option its strings and the keywords of its `add_argument`.
# `build_parser` makes argparse's parser of them; `_read_args` reads the plain command lines without argparse.
_GLOBAL_OPTIONS = (
    (("--max-genus",), {"type": int, "default": MAX_GENUS_DEFAULT}),
)
_SEARCH_OPTIONS = (
    (("--max-steps",), {"type": int, "default": _classify.DEFAULT_MAX_STEPS}),
    (("--closure-cap",), {"type": int, "default": _classify.DEFAULT_CLOSURE_CAP}),
    (("--exhaustive",), {"action": "store_true", "help": "consume the whole chain budget until the group is S_n"}),
)
# per command: its help, its `func` default and its options, in the order `--help` lists them
_COMMANDS = {
    "atlas": (
        "one row per class of a genus",
        cmd_atlas,
        (
            (("--genus",), {"type": int, "required": True}),
            (("--order",), {"type": int}),
            (("--no-compute",), {"action": "store_true", "help": "skip group computation"}),
            *_SEARCH_OPTIONS,
        ),
    ),
    "classify": (
        "group verdicts for one class",
        cmd_classify,
        (
            (("--genus", "-g"), {"type": int, "required": True}),
            (("--order", "-r"), {"type": int, "required": True}),
            (("--i", "-i"), {"type": int}),
            (("--p", "-p"), {"default": "-", "help": "comma-separated increments, '-' for none"}),
            (("--vertex",), {"help": "restrict to one vertex, e.g. P2 or P2~"}),
            *_SEARCH_OPTIONS,
        ),
    ),
    "verify": (
        "verify predictions over a genus range",
        cmd_verify,
        (
            (("--genus",), {"required": True, "help": "a genus or a range like 2..6"}),
            (("--orders",), {"help": "comma-separated orders to include"}),
            *_SEARCH_OPTIONS,
        ),
    ),
    "export-dot": (
        "emit a DOT rendering of one class",
        cmd_export_dot,
        (
            (("--genus", "-g"), {"type": int, "required": True}),
            (("--order", "-r"), {"type": int, "required": True}),
            (("--i", "-i"), {"type": int}),
            (("--p", "-p"), {"default": "-"}),
            (("--kind",), {"choices": ["connection", "full"], "default": "connection"}),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """argparse's parser of the declared options: the reader of help requests, errors and unusual spellings."""
    import argparse  # only here: a plain command line never loads it, nor the gettext and locale it imports

    parser = argparse.ArgumentParser(prog="spin-atlas", description=__doc__)
    for strings, keywords in _GLOBAL_OPTIONS:
        parser.add_argument(*strings, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for strings, keywords in options:
            command.add_argument(*strings, **keywords)
        command.set_defaults(func=func)
    return parser


def _dest(strings: tuple[str, ...]) -> str:
    """argparse's attribute name for an option: its first long string without the dashes, '-' made '_'."""
    return next(s for s in strings if s.startswith("--"))[2:].replace("-", "_")


def _read_options(options, argv: list[str], k: int, values: dict) -> int | None:
    """Read the option tokens of argv from index k into values, defaults first; the index of the first
    token that starts no option, or None where argparse must read the line."""
    by_string = {}
    for strings, keywords in options:
        dest, flag = _dest(strings), keywords.get("action") == "store_true"
        values[dest] = keywords.get("default", False if flag else None)
        by_string.update(dict.fromkeys(strings, (dest, keywords, flag)))
    seen = set()
    while k < len(argv) and argv[k].startswith("-"):
        # only a long option takes its value after "="; "-g=3" and "-g3" are argparse's
        name, eq, value = argv[k].partition("=") if argv[k].startswith("--") else (argv[k], "", "")
        if name not in by_string:
            return None
        dest, keywords, flag = by_string[name]
        if flag:
            if eq:
                return None
            value = True
        else:
            if not eq:
                k += 1
                if k == len(argv):
                    return None
                value = argv[k]
            if value.startswith("-") and value != "-":  # argparse reads a lone "-" as a value, always
                return None
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except ValueError:
                    return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        values[dest] = value
        seen.add(dest)
        k += 1
    if any(keywords.get("required") and _dest(strings) not in seen for strings, keywords in options):
        return None
    return k


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The attributes `build_parser().parse_args(argv)` gives, read without argparse; None unless argv is
    global options, then a command and its options, each option spelled in full and each value valid.

    Help, an unknown command or token, an abbreviation, joined short options, "--", a value other than "-"
    that starts with "-", a missing required option and a bad int or choice all give None: argparse reads
    those lines, and prints their help or usage error.
    """
    values: dict = {}
    k = _read_options(_GLOBAL_OPTIONS, argv, 0, values)
    if k is None or k == len(argv) or argv[k] not in _COMMANDS:
        return None
    values["command"] = argv[k]
    _, values["func"], options = _COMMANDS[argv[k]]
    if _read_options(options, argv, k + 1, values) != len(argv):
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv) or build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k in ("max_steps", "closure_cap", "exhaustive")}
    try:
        engine = _classify.Engine(**flags)  # the search flags are checked before any record
    except ValueError as exc:
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


def run() -> None:
    """The entry point of `spin-atlas` and `python -m spinatlas.cli`: `main`, the flushes, then `os._exit`."""
    try:
        try:
            code = main()
        finally:
            sys.stdout.flush()  # the records printed leave before any traceback
    except SystemExit as exc:  # argparse's help (0) and usage errors (2)
        code = exc.code
    except BrokenPipeError:
        code = BROKEN_PIPE_EXIT
    except Exception as exc:  # out of memory is a resource limit, as the closure cap is; the rest are faults
        code = 3 if isinstance(exc, MemoryError) else INTERNAL_ERROR_EXIT
        sys.excepthook(type(exc), exc, exc.__traceback__)
    sys.stderr.flush()
    os._exit(code)  # no shutdown: its collections would walk the whole heap, and its flush could fail again


if __name__ == "__main__":
    run()
