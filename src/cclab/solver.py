"""Exact worst-case deterministic cost by rectangle-partition search.

The classic baseline for contrast with per-input values: the cheapest
depth any tree needs on its worst pair, found by trying every way either
party can split the current sub-grid.  Announcing the answer at a leaf
is free, matching the cost convention everywhere else in the package, and
a leaf's answer is a function of Alice's input, so a sub-grid is finished
exactly when every row is constant on it.
"""

from __future__ import annotations

from .bits import all_bitstrings
from .constructions import fit_node_function
from .errors import AuditFailure, UsageError
from .functions import FunctionSpec
from .protocol import (
    ALICE,
    BOB,
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    Speak,
    run,
)


def dcc_exact(f: FunctionSpec) -> tuple[int, ProtocolTree]:
    """Worst-case bits needed for f, with a tree achieving that depth.

    Memoized min-max over sub-grids: a sub-grid on which every row is
    constant costs 0 (a constant leaf when the rows agree, else a table
    of Alice's input), and otherwise one bit plus the best achievable
    worst half over every proper bipartition of either side.
    Deterministic tie-breaking (Alice's splits first, earlier bipartitions
    first) pins down the returned tree.  Exponential in 2^n, hence the
    n <= 3 cap.
    """
    n = f.n
    if n > 3:
        raise UsageError("exact search supports n <= 3")
    space = tuple(all_bitstrings(n))
    value = {(x, y): f.value(x, y) for x in space for y in space}
    memo: dict = {}

    def solve(rows: tuple, cols: tuple):
        key = (rows, cols)
        hit = memo.get(key)
        if hit is not None:
            return hit
        answer = {x: value[x, cols[0]] for x in rows}
        if all(value[x, y] == answer[x] for x in rows for y in cols):
            if len(set(answer.values())) == 1:
                leaf = OutputFunction.const(answer[rows[0]])
            else:
                leaf = OutputFunction.from_map(n, n, lambda x: answer.get(x, "0" * n))
            memo[key] = (0, OutputLeaf(leaf))
            return memo[key]
        best = None
        for owner, side in ((ALICE, rows), (BOB, cols)):
            if len(side) < 2:
                continue
            head, rest = side[0], side[1:]
            for mask in range(1, 1 << len(rest)):
                ones = tuple(e for i, e in enumerate(rest) if mask >> i & 1)
                zeros = (head,) + tuple(
                    e for i, e in enumerate(rest) if not mask >> i & 1
                )
                if owner == ALICE:
                    c0, t0 = solve(zeros, cols)
                    c1, t1 = solve(ones, cols)
                else:
                    c0, t0 = solve(rows, zeros)
                    c1, t1 = solve(rows, ones)
                cost = 1 + max(c0, c1)
                if best is None or cost < best[0]:
                    fn = fit_node_function(
                        {e: 1 for e in ones} | {e: 0 for e in zeros}, n
                    )
                    best = (cost, Speak(owner, fn, t0, t1))
        memo[key] = best
        return best

    bits, root = solve(space, space)
    tree = ProtocolTree.symmetric(n, root)
    worst = 0
    for (x, y), want in value.items():
        outcome = run(tree, x, y)
        if outcome.output != want:
            raise AuditFailure("optimal tree fails its own correctness check")
        worst = max(worst, outcome.cost)
    if worst != bits:
        raise AuditFailure(f"tree depth {worst} disagrees with computed cost {bits}")
    return bits, tree
