"""Witness oracle for the group found at each searched vertex.

`witness_differences` searches a graph at the vertices that `verify` searches
(`classify.searched_vertices`: the first chorded and the first unchorded one)
and checks the verdict along a path that shares none of the search's fast
parts.  Each kept generator's chain is rebuilt from its search path
(`StepTable.chain`) and evaluated by `chains.evaluate`, which composes the
maps that `faces.direct_images` builds from each face: no table lift, no
step-table map and no walk-state memo.
The result must be the generator kept with it.  Then sympy's
`PermutationGroup` of the kept generators, a group engine the program does
not use, must have the search's order, and that order must be the predicted
group's.  Where the prediction is S_n, sympy's `is_symmetric` decides: it
answers True only with a proof (the group is transitive and has an element
with a p-cycle, p prime, n/2 < p < n - 2, so by Jordan's theorem it holds
A_n, and a generator is odd), and otherwise falls back to the exact order;
the order is then n!, or `order()`'s when it is not S_n.  Every other
prediction is checked with `order()`.  Run as a script over a range of
orders, it checks every graph whose chords are a top slice {j..r},
0 <= j <= r (never the chordless graph, which no class has), at the default
search settings, from order 0, and exits 0 with no difference, 1 on any
difference and 2 on a bad range (`conftest.run_oracle`).  Orders 3..32 are
checked, 3..28 and 29..32 in two runs:

    PYTHONPATH=src python3 tests/witness_oracle.py 3..28
    PYTHONPATH=src python3 tests/witness_oracle.py 29..32
"""
from __future__ import annotations

import math
import sys

from sympy.combinatorics import Permutation, PermutationGroup

from conftest import run_oracle, top_slice_graphs
from spinatlas.chains import StepTable, evaluate
from spinatlas.classify import predict_group, searched_vertices, spin_group_at
from spinatlas.graph import ConnectionGraph
from spinatlas.groups import symmetric


def witness_differences(cg: ConnectionGraph) -> tuple[int, list[str]]:
    """How many vertices were checked, and each difference between a search and its evaluated witnesses."""
    table = StepTable(cg)
    out = []
    vertices = searched_vertices(cg)
    for v in vertices:
        res = spin_group_at(cg, v, table=table)
        where = f"order {cg.order} chords {sorted(cg.connected)} {v.name}"
        kept = res.kept()
        for path, perm in kept:
            evaluated = evaluate(cg, table.chain(v, path))
            if evaluated != perm:
                out.append(f"{where}: witness {path} evaluates to {evaluated}, kept {perm}")
        n, predicted = len(cg.label_classes(v)), predict_group(cg, v)
        # no generators at all is the trivial group
        group = PermutationGroup([Permutation(list(perm)) for _, perm in kept] or [Permutation(n - 1)])
        if predicted == symmetric(n) and group.is_symmetric:
            order = math.factorial(n)
        else:
            order = group.order()
        if not order == res.verdict.order == predicted.order:
            out.append(f"{where}: sympy order {order}, search order {res.verdict.order}, predicted {predicted}")
    return len(vertices), out


DEFAULT, LOWEST = "3..8", 0


def sweep(lo: int, hi: int) -> tuple[dict[str, int], list[str]]:
    """The witness check on every top-slice graph of orders lo..hi."""
    graphs = vertices = 0
    diffs = []
    for order in range(lo, hi + 1):
        for cg in top_slice_graphs(order):
            count, found = witness_differences(cg)
            graphs += 1
            vertices += count
            diffs += found
    return {"graphs": graphs, "vertices": vertices}, diffs


def main(argv: list[str]) -> int:
    return run_oracle(argv, DEFAULT, LOWEST, sweep)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
