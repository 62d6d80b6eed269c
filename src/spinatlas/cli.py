"""Command-line front end: enumerate classes, classify vertices, verify, export DOT.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parameter error,
3 out of memory, 4 internal error (its traceback on stderr),
141 stdout closed by its reader (as `| head` does), the shell's code for SIGPIPE.
All output is deterministic for fixed flags.  Every search runs until its
chains prove S_n on the label set or spend the `--max-steps` budget, whatever
the prediction; `--exhaustive` is accepted and changes nothing.
"""
from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import classify as _classify
from .chains import StepTable
from .groups import cycles_str
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


# ---------------------------------------------------------------- rows

def atlas_record(gc: GraphClass, report: _classify.ClassReport | None) -> dict[str, str]:
    """The class's `kind=atlas` record, read from its report's untilded rows, or from rows of no verdict."""
    if report is None:
        cg = build_connection_graph(gc)
        rows = [_classify.vertex_row(cg, v, None) for v in cg.vertices() if not v.tilded]
    else:
        rows = [row for row in report.rows if not row.vertex.tilded]
    return {
        "kind": "atlas",
        "genus": str(gc.genus),
        "order": str(gc.order),
        "i": str(gc.i),
        "p": _fmt_list(gc.p),
        "k": _fmt_list(gc.k),
        "connected": _fmt_list(sorted(gc.connected_pairs)),
        "heads": _fmt_list(sorted(heads(gc))),
        "degrees": _fmt_map((row.vertex.cls, row.degree) for row in rows),
        "predicted": _fmt_map((row.vertex.cls, row.predicted) for row in rows),
        "computed": "-" if report is None else _fmt_map((row.vertex.cls, row.computed) for row in rows),
        "match": "skipped" if report is None else ("true" if report.match_all else "false"),
    }


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _genera(args) -> range:
    """The genera `--genus` names, one or verify's range `lo..hi`: every command's check against `--max-genus`."""
    if args.max_genus < 2:
        raise UsageError(f"--max-genus must be >= 2, got {args.max_genus}")
    lo, dots, hi = str(args.genus).partition("..")
    lo, hi = _int(lo, "--genus"), _int(hi if dots else lo, "--genus")
    if not 2 <= lo <= hi <= args.max_genus:
        raise UsageError(f"genus must lie within 2..{args.max_genus}, got {args.genus}")
    return range(lo, hi + 1)


def _class_from_args(args) -> GraphClass:
    _genera(args)
    p = tuple(_int(x, "-p") for x in args.p.split(",")) if args.p not in (None, "", "-") else ()
    i = args.i
    if i is None:
        if args.order == 0:
            i = args.genus  # the only order-0 class: the conjugate point carries everything
        else:
            raise UsageError("-i is required for order >= 1")
    return GraphClass(args.genus, args.order, i, p)


# ---------------------------------------------------------------- commands

def cmd_atlas(args, engine: _classify.Engine) -> int:
    _genera(args)
    for gc in enumerate_classes(args.genus, args.order):
        report = None if args.no_compute else _classify.verify_class(gc, engine=engine)
        print(render_record(atlas_record(gc, report)))
        sys.stdout.flush()  # each class's record leaves as it finishes, so a run cut short keeps it
    return 0


def cmd_classify(args, engine: _classify.Engine) -> int:
    gc = _class_from_args(args)
    cg = build_connection_graph(gc)
    try:
        wanted = None if args.vertex is None else Vertex.parse(args.vertex)  # an empty name is no vertex, not all
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if wanted is not None and not 0 <= wanted.cls <= gc.order:
        raise UsageError(f"vertex {args.vertex} is not in an order-{gc.order} graph")
    table = StepTable(cg)
    for v in cg.vertices() if wanted is None else (wanted,):
        res = _classify.spin_group_at(cg, v, max_steps=engine.max_steps, table=table)
        row = _classify.vertex_row(cg, v, res.verdict)
        print(
            render_record(
                {
                    "kind": "vertex",
                    "vertex": v.name,
                    "degree": str(row.degree),
                    "predicted": str(row.predicted),
                    "computed": str(row.computed),
                    "match": "true" if row.match else "false",
                }
            )
        )
        # each witness evaluates to the generator kept with it
        for path, perm in res.kept():
            print(f"  witness {cycles_str(perm)}: {table.chain(v, path).describe()}")
    return 0


def _print_verify(reports) -> tuple[int, int]:
    """Print each class's records as its report arrives; the number of classes printed and of mismatched ones."""
    classes = mismatches = 0
    for classes, report in enumerate(reports, 1):
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
        sys.stdout.flush()  # each class's records leave as it finishes, so a run cut short keeps them
    return classes, mismatches


def cmd_verify(args, engine: _classify.Engine) -> int:
    genera = _genera(args)
    orders = None
    if args.orders is not None:  # an empty value names no order: it fails as a bad integer, not as "every order"
        orders = sorted({_int(x, "--orders") for x in args.orders.split(",")})
        if orders[0] < 0 or orders[-1] >= genera[-1]:
            raise UsageError(f"--orders must lie within 0..{genera[-1] - 1} for genus up to {genera[-1]}")
    targets = (gc for genus in genera for gc in enumerate_classes(genus))
    reports = (_classify.verify_class(gc, engine=engine) for gc in targets if orders is None or gc.order in orders)
    classes, mismatches = _print_verify(reports)
    print(render_record({"kind": "summary", "classes": str(classes), "mismatches": str(mismatches)}))
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
    # accepted so that older command lines still run: every search already runs until S_n or its budget
    (("--exhaustive",), {"action": "store_true", "help": "accepted and changes nothing"}),
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
    token that starts none of these options, or None where argparse must read the line."""
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
            break
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


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argparse's reading of argv; an unknown option before the command is named, not its value read as the command."""
    parser, k = build_parser(), 0
    known = ("--help", *(s for strings, _ in _GLOBAL_OPTIONS for s in strings))
    while k < len(argv) and argv[k].startswith("--"):  # the global options, each with its value, as argparse reads them
        name, eq, _ = argv[k].partition("=")
        matches = [s for s in known if s.startswith(name)]  # a prefix of one known option is its abbreviation
        after = argv[k + 1] if k + 1 < len(argv) and not eq else "-"  # "-" where no separate value follows
        if not matches and after not in _COMMANDS and not after.startswith("-"):
            parser.error(f"unrecognized arguments: {argv[k]}")
        if len(matches) != 1 or matches[0] == "--help":
            break  # "--" is a prefix of them all; help and an ambiguous abbreviation are argparse's to read
        k += 1 if eq else 2  # every global option but --help takes a value
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv) or _parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k == "max_steps"}
    try:
        engine = _classify.Engine(**flags)  # the search flags are checked before any record
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, engine)
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
    except Exception as exc:  # out of memory is the one resource limit; the rest are faults
        code = 3 if isinstance(exc, MemoryError) else INTERNAL_ERROR_EXIT
        sys.excepthook(type(exc), exc, exc.__traceback__)
    sys.stderr.flush()
    os._exit(code)  # no shutdown: its collections would walk the whole heap, and its flush could fail again


if __name__ == "__main__":
    run()
