"""Exact worst-case baseline solver."""

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
