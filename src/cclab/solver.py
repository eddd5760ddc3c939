"""Exact worst-case deterministic cost by rectangle-partition search.

The classic baseline for contrast with per-input values: the cheapest
depth any tree needs on its worst pair, found by trying every way either
party can split the current sub-grid.  Announcing the answer at a leaf
is free, matching the cost convention everywhere else in the package, and
a leaf's answer is a function of Alice's input, so a sub-grid is finished
exactly when every row is constant on it.

A sub-grid is a pair of integer masks, bit i of the row mask standing for
Alice's i-th input and bit j of the column mask for Bob's j-th, both in
ascending order.  Whether every row is constant is read from per-row
agreement masks, and the search keeps only each state's cost and winning
split; the tree is built once, from the winning splits, after the search.
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
    first) pins down the returned tree; a split is not finished once one
    bit plus its 0-half already reaches the best so far, which changes no
    cost and no winner.
    Exponential in 2^n, hence the n <= 3 cap.
    """
    n = f.n
    if n > 3:
        raise UsageError("exact search supports n <= 3")
    space = tuple(all_bitstrings(n))
    value = {(x, y): f.value(x, y) for x in space for y in space}
    size = len(space)
    # agree[i][j]: the columns on which row i takes the value it takes at column j
    agree = [
        [sum(1 << k for k, z in enumerate(space) if value[x, z] == value[x, y]) for y in space]
        for x in space
    ]
    memo: dict = {}

    def solve(rows: int, cols: int) -> int:
        key = rows << size | cols
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        first = (cols & -cols).bit_length() - 1
        r = rows  # drop rows while they are constant on cols
        while r and not cols & ~agree[(r & -r).bit_length() - 1][first]:
            r &= r - 1
        if not r:
            memo[key] = 0, None
            return 0
        best = split = None
        for owner, side in ((ALICE, rows), (BOB, cols)):
            # the 1-side is every nonempty submask of the side without its
            # lowest member, in increasing order; the 0-side keeps the rest
            rest = side & side - 1
            ones = rest & -rest
            while ones:
                zeros = side ^ ones
                if owner == ALICE:
                    lo, hi = (zeros, cols), (ones, cols)
                else:
                    lo, hi = (rows, zeros), (rows, ones)
                c0 = solve(*lo)
                if best is None or c0 + 1 < best:  # else this split cannot win
                    cost = 1 + max(c0, solve(*hi))
                    if best is None or cost < best:
                        best, split = cost, (owner, zeros, ones, lo, hi)
                ones = (ones - rest) & rest
        memo[key] = best, split
        return best

    def members(mask: int) -> list:
        return [u for i, u in enumerate(space) if mask >> i & 1]

    built: dict = {}

    def build(rows: int, cols: int):
        key = rows << size | cols
        node = built.get(key)
        if node is not None:
            return node
        split = memo[key][1]
        if split is None:
            y = space[(cols & -cols).bit_length() - 1]
            answer = {x: value[x, y] for x in members(rows)}
            if len(set(answer.values())) == 1:
                leaf = OutputFunction.const(next(iter(answer.values())))
            else:
                leaf = OutputFunction.from_map(n, n, lambda x: answer.get(x, "0" * n))
            node = OutputLeaf(leaf)
        else:
            owner, zeros, ones, lo, hi = split
            targets = {u: 0 for u in members(zeros)} | {u: 1 for u in members(ones)}
            node = Speak(owner, fit_node_function(targets, n), build(*lo), build(*hi))
        built[key] = node
        return node

    everything = (1 << size) - 1
    bits = solve(everything, everything)
    tree = ProtocolTree.symmetric(n, build(everything, everything))
    worst = 0
    for (x, y), want in value.items():
        outcome = run(tree, x, y)
        if outcome.output != want:
            raise AuditFailure("optimal tree fails its own correctness check")
        worst = max(worst, outcome.cost)
    if worst != bits:
        raise AuditFailure(f"tree depth {worst} disagrees with computed cost {bits}")
    return bits, tree
