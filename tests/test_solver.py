"""Exact worst-case baseline solver."""

import random
from itertools import product

import pytest

from cclab import (
    FunctionSpec,
    INF,
    Measure,
    UsageError,
    all_bitstrings,
    computes_everywhere,
    dcc_exact,
    enumerate_signature,
    equality_fn,
    identity_fn,
    individual_cc,
    is_total,
    run,
)
from cclab.cli import main
from cclab.codes import pdl_encode
from cclab.constructions import fit_node_function
from cclab.protocol import ALICE, BOB, OutputFunction, OutputLeaf, ProtocolTree, Speak


def constant_zero(n):
    size = 1 << n
    return FunctionSpec("zero", n, True, tuple(tuple("0" for _ in range(size)) for _ in range(size)))


def test_constant_table_is_free():
    bits, tree = dcc_exact(constant_zero(2))
    assert bits == 0


def test_identity_needs_n_bits():
    for n in (1, 2):
        bits, tree = dcc_exact(identity_fn(n))
        assert bits == n
        assert computes_everywhere(tree, identity_fn(n))


def test_equality_small_values():
    # Bob sends y, and Alice's leaf answers as a function of x
    assert dcc_exact(equality_fn(1))[0] == 1
    assert dcc_exact(equality_fn(2))[0] == 2


def test_dcc_matches_enumeration_on_every_boolean_n1_table():
    # a depth-1 optimum costs 17 PDL bits, so the budget-20 stream holds
    # an optimal tree for every n = 1 table and this oracle is exact
    pairs = [(x, y) for x in "01" for y in "01"]
    runs = [
        [run(tree, x, y) for x, y in pairs] for _, tree in enumerate_signature(1, 1, 1, 20)
    ]
    for bits in product("01", repeat=4):
        f = FunctionSpec("t", 1, True, (bits[:2], bits[2:]))
        want = [f.value(x, y) for x, y in pairs]
        best = min(
            max(outcome.cost for outcome in outcomes)
            for outcomes in runs
            if [outcome.output for outcome in outcomes] == want
        )
        assert dcc_exact(f)[0] == best, bits


def test_optimal_tree_realizes_the_bound():
    bits, tree = dcc_exact(equality_fn(2))
    assert is_total(tree)
    assert computes_everywhere(tree, equality_fn(2))
    worst = max(
        run(tree, x, y).cost for x in all_bitstrings(2) for y in all_bitstrings(2)
    )
    assert worst == bits


def test_size_cap():
    with pytest.raises(UsageError):
        dcc_exact(identity_fn(4))


def test_worst_case_dominates_individual_values():
    # finite budget-limited values never exceed the worst-case optimum;
    # at n = 2 the capped everywhere-correct family is empty, so the
    # non-vacuous comparisons live at n = 1
    for f in (identity_fn(1), equality_fn(1)):
        bits, _tree = dcc_exact(f)
        m = Measure(family="TCC", alpha=20)
        for x in all_bitstrings(1):
            for y in all_bitstrings(1):
                value = individual_cc(m, f, x, y)[0]
                assert value == INF or value <= bits
    f = identity_fn(2)
    bits, _tree = dcc_exact(f)
    m = Measure(family="TCC", alpha=20)
    for x in all_bitstrings(2):
        for y in all_bitstrings(2):
            value = individual_cc(m, f, x, y)[0]
            assert value == INF or value <= bits


def _tuple_search(f):
    """The search over sub-grids held as tuples of strings, kept as an oracle.

    Every state is keyed by its rows and columns, every bipartition is
    finished, and each improvement builds its node on the spot.
    """
    n = f.n
    space = tuple(all_bitstrings(n))
    value = {(x, y): f.value(x, y) for x in space for y in space}
    memo = {}

    def solve(rows, cols):
        key = (rows, cols)
        if key in memo:
            return memo[key]
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
                zeros = (head,) + tuple(e for i, e in enumerate(rest) if not mask >> i & 1)
                if owner == ALICE:
                    (c0, t0), (c1, t1) = solve(zeros, cols), solve(ones, cols)
                else:
                    (c0, t0), (c1, t1) = solve(rows, zeros), solve(rows, ones)
                cost = 1 + max(c0, c1)
                if best is None or cost < best[0]:
                    fn = fit_node_function({e: 1 for e in ones} | {e: 0 for e in zeros}, n)
                    best = (cost, Speak(owner, fn, t0, t1))
        memo[key] = best
        return best

    bits, root = solve(space, space)
    return bits, ProtocolTree.symmetric(n, root)


def _differential_tables():
    yield from (FunctionSpec("t", 1, True, (bits[:2], bits[2:])) for bits in product("01", repeat=4))
    rng = random.Random(20)
    for i in range(100):
        boolean = i % 2 == 0
        values = ("0", "1") if boolean else ("00", "01", "10", "11")
        cells = tuple(tuple(rng.choice(values) for _ in range(4)) for _ in range(4))
        yield FunctionSpec("t", 2, boolean, cells)


def test_mask_search_matches_the_tuple_search():
    # every boolean n = 1 table and 100 seeded n = 2 tables of both output widths
    for f in _differential_tables():
        bits, tree = dcc_exact(f)
        want_bits, want_tree = _tuple_search(f)
        assert bits == want_bits, f.cells
        assert tree == want_tree, f.cells
        assert pdl_encode(tree).hex() == pdl_encode(want_tree).hex(), f.cells


def test_dcc_eq_n3_output_is_pinned(capsys):
    # taken from the tuple search, which needed about 11 s for it
    assert main(["dcc", "--fn", "eq", "--n", "3"]) == 0
    assert capsys.readouterr().out == (
        "bits: 3\n"
        "witness: 285:63c3019459000005800000a9b000040b00000852a2c100002c0008015580400058008000"
        " (285 bits)\n"
    )
