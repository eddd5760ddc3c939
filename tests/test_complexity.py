"""Individual measures, simulations, profiles, hard-column search."""

import gc
import hashlib
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import (
    AuditFailure,
    ComplexityProfile,
    FunctionSpec,
    HelpSpec,
    INF,
    Measure,
    PdlCode,
    UsageError,
    all_bitstrings,
    decode_signature,
    enumerate_sets,
    enumerate_signature,
    equality_fn,
    find_hard_y,
    identity_fn,
    individual_cc,
    inner_product_fn,
    one_way_from_two_way,
    oneway_to_set,
    pdl_encode,
    set_to_oneway,
    structure_function_profile,
    tcc_identity_profile,
)
from cclab import codes, complexity
from cclab.codes import _enumeration_table
from cclab.complexity import FAMILIES, _fold_classes, _tcc_family, _tcc_members
from cclab.protocol import (
    ALICE,
    BOB,
    NodeFunction,
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    Speak,
    StuckLeaf,
    bob_message,
    cc_on_input,
    cc_with_help,
    computes_everywhere,
    is_one_way,
    node_is_one_way,
    is_total,
    run,
    tree_has_stuck,
)
from cclab.reference import alice_flag_identity, identity_protocols


def test_measure_validation():
    with pytest.raises(UsageError):
        Measure(family="XCC")
    with pytest.raises(UsageError):
        Measure(alpha=-1)


def test_partial_measure_finds_constant_witness():
    f = identity_fn(2)
    value, witness = individual_cc(Measure(family="PCC", alpha=6), f, "01", "10")
    assert value == 0
    assert witness.bits == "100010"  # announce the constant 10


def test_total_measure_on_diagonal():
    f = identity_fn(2)
    value, witness = individual_cc(Measure(family="CC", alpha=4), f, "10", "10")
    assert value == 0
    assert witness.bits == "1001"  # echo Alice's input, total everywhere


def test_empty_family_is_infinite():
    f = identity_fn(2)
    value, witness = individual_cc(Measure(family="TCC", alpha=10), f, "00", "00")
    assert value == INF
    assert witness is None


def test_everywhere_family_at_n1():
    f = identity_fn(1)
    assert individual_cc(Measure(family="TCC", alpha=14), f, "0", "1")[0] == INF
    value, witness = individual_cc(Measure(family="TCC", alpha=15), f, "0", "1")
    assert value == 1
    assert len(witness.bits) == 15


def test_families_are_nested():
    f = identity_fn(2)
    for alpha in (0, 4, 6, 8, 10):
        for x in all_bitstrings(2):
            for y in all_bitstrings(2):
                pcc = individual_cc(Measure(family="PCC", alpha=alpha), f, x, y)[0]
                cc = individual_cc(Measure(family="CC", alpha=alpha), f, x, y)[0]
                tcc = individual_cc(Measure(family="TCC", alpha=alpha), f, x, y)[0]
                assert pcc <= cc <= tcc


# one budget per (Alice, Bob, output) signature: at n = 1 large enough that
# every family is nonempty somewhere, and all of them small enough to walk
# in a few seconds
ORACLE_BUDGETS = {
    (1, 1, 1): 16, (2, 1, 1): 16, (1, 2, 1): 16, (2, 2, 1): 16,
    (2, 2, 2): 16, (3, 2, 2): 16, (2, 3, 2): 16, (3, 3, 2): 16,
}


def _random_table_fn(n, seed, boolean=False):
    rng = random.Random(seed)
    strings = ["0", "1"] if boolean else list(all_bitstrings(n))
    size = 1 << n
    cells = tuple(tuple(rng.choice(strings) for _ in range(size)) for _ in range(size))
    return FunctionSpec("random", n, boolean, cells)


ORACLE_FUNCTIONS = [
    identity_fn(1),
    equality_fn(1),
    identity_fn(2),
    equality_fn(2),
    inner_product_fn(2),
    _random_table_fn(2, seed=7),
]


def _brute_force_values(f, one_way, help_bits, budget=None, tcc_members=None):
    """{alpha: individual_cc for every pair and family} for every alpha up to the budget.

    Straight from the definitions, in one walk with plain runs: a tree is
    total when no run on any extended pair is stuck, and a pair's cost is
    the cheapest correct run over all help strings.  TCC admits total trees
    that have a correct run on every pair, CC admits total trees, PCC
    admits every tree; the value is the least cost, ties going to the
    canonically first code.  Codes come in order of length, so the values
    at alpha are the prefix minima of the walk before its first longer
    code.  The TCC codes are appended to tcc_members when a list is given.
    """
    n = f.n
    a, b = help_bits
    pairs = [(x, y) for x in all_bitstrings(n) for y in all_bitstrings(n)]
    best = {(fam, pair): (INF, None) for fam in ("TCC", "CC", "PCC") for pair in pairs}
    if budget is None:
        budget = ORACLE_BUDGETS[n + a, n + b, n]
    by_budget = {}
    for code, tree in enumerate_signature(n + a, n + b, n, budget, require_one_way=one_way):
        assert len(code.bits) >= len(by_budget)
        while len(by_budget) < len(code.bits):
            by_budget[len(by_budget)] = dict(best)
        total = True
        cost = {}
        for x, y in pairs:
            cost[x, y] = INF
            for ha in all_bitstrings(a):
                for hb in all_bitstrings(b):
                    outcome = run(tree, x + ha, y + hb)
                    if outcome.is_stuck:
                        total = False
                    elif outcome.output == f.value(x, y):
                        cost[x, y] = min(cost[x, y], outcome.cost)
        families = ["PCC"]
        if total:
            families.append("CC")
            if INF not in cost.values():
                families.append("TCC")
                if tcc_members is not None:
                    tcc_members.append(code.bits)
        for fam in families:
            for pair in pairs:
                if cost[pair] < best[fam, pair][0]:
                    best[fam, pair] = (cost[pair], code)
    while len(by_budget) <= budget:
        by_budget[len(by_budget)] = dict(best)
    return by_budget


@pytest.mark.parametrize("help_bits", [(0, 0), (1, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("one_way", [False, True], ids=["two-way", "one-way"])
@pytest.mark.parametrize(
    "f", ORACLE_FUNCTIONS, ids=lambda f: f.name if f.n == 1 else f"{f.name}-n{f.n}"
)
def test_individual_cc_matches_brute_force(f, one_way, help_bits):
    """Every budget from 0 to the oracle's, read from the oracle's one walk."""
    n = f.n
    a, b = help_bits
    budget = ORACLE_BUDGETS[n + a, n + b, n]
    by_budget = _brute_force_values(f, one_way, help_bits)
    assert sorted(by_budget) == list(range(budget + 1))
    for alpha, expected in by_budget.items():
        for (family, (x, y)), want in expected.items():
            m = Measure(family, one_way, HelpSpec(a, b), alpha)
            assert individual_cc(m, f, x, y) == want, (family, alpha, x, y)
    # the comparison must reach finite values in every family that is
    # nonempty at the largest budget: all three at n = 1, the two pointwise
    # ones at n = 2, where no everywhere-correct protocol fits in 16 bits
    expected = by_budget[budget]
    assert all(
        any(v[0] != INF for (fam, _), v in expected.items() if fam == family)
        for family in (("TCC", "CC", "PCC") if n == 1 else ("CC", "PCC"))
    )


@pytest.mark.parametrize("help_bits", [(0, 0), (1, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("f", [identity_fn(3), equality_fn(3), inner_product_fn(3)], ids=lambda f: f.name)
def test_cc_and_pcc_closed_form_matches_brute_force_at_n3(f, help_bits):
    """The lone-leaf closed form against the oracle at n = 3, both shapes.

    Budgets 0 to 12 reach both thresholds, 4 for copy_x and 7 for a
    constant, and the first trees that speak (9 bits); budgets 13 to 20
    must give the budget-12 answer.
    """
    a, b = help_bits
    assert any(len(code.bits) > 7 for code, _ in enumerate_signature(3 + a, 3 + b, 3, 12))
    for one_way in (False, True):
        by_budget = _brute_force_values(f, one_way, help_bits, 12)
        values = {alpha: {v for (fam, _), (v, _) in by_budget[alpha].items() if fam != "TCC"} for alpha in (3, 6, 7)}
        assert values[3] == {INF} and INF in values[6] and values[7] == {0}
        for alpha in range(21):
            for (family, (x, y)), want in by_budget[min(alpha, 12)].items():
                if family != "TCC":
                    m = Measure(family, one_way, HelpSpec(a, b), alpha)
                    assert individual_cc(m, f, x, y) == want, (family, one_way, alpha, x, y)


def test_tcc_family_cache_matches_brute_force_in_shuffled_order():
    """TCC values and identity profiles from a cache filled in shuffled order.

    Functions, help counts, shapes and budgets 15 and 16 are interleaved,
    profiles among them, so entries are filled first by one-way, two-way
    or profile queries and at either budget; every answer must still be
    the oracle's, and every entry must hold the oracle's members.
    """
    fns = [identity_fn(1), equality_fn(1), _random_table_fn(2, seed=7)]
    expected, members = {}, {}
    for f in fns:
        for help_bits in ((0, 0), (1, 0), (1, 1)):
            for budget in (15, 16):
                for one_way in (False, True):
                    key = f, help_bits, budget, one_way
                    members[key] = []
                    values = _brute_force_values(f, one_way, help_bits, budget, members[key])[budget]
                    expected[key] = {
                        pair: v for (fam, pair), v in values.items() if fam == "TCC"
                    }
    # the shapes and the budgets have different members, so an entry
    # filled for the wrong one would show
    assert any(members[f, h, b, False] != members[f, h, b, True] for f, h, b, _ in members)
    assert any(members[f, h, 15, w] != members[f, h, 16, w] for f, h, _, w in members)

    queries = [("cc", key, pair) for key, values in expected.items() for pair in values]
    queries += [("profile", (fns[0], (0, 0), budget, None), y) for budget in (15, 16) for y in "01"]
    random.Random(12).shuffle(queries)
    first_shape, budget_order = {}, {}
    for kind, (f, help_bits, budget, one_way), _ in queries:
        first_shape.setdefault((f, help_bits, budget), kind if kind == "profile" else one_way)
        order = budget_order.setdefault((f, help_bits), [])
        if budget not in order:
            order.append(budget)
    assert set(first_shape.values()) == {False, True, "profile"}
    assert {tuple(order) for order in budget_order.values()} == {(15, 16), (16, 15)}

    _tcc_family.cache_clear()
    for kind, (f, help_bits, budget, one_way), query in queries:
        if kind == "cc":
            m = Measure("TCC", one_way, HelpSpec(*help_bits), budget)
            assert individual_cc(m, f, *query) == expected[f, help_bits, budget, one_way][query]
            continue
        report = tcc_identity_profile(query, budget)
        for x in "01":
            assert report.two_way[x].entries[budget] == expected[f, help_bits, budget, False][x, query]
            assert report.one_way.entries[budget] == expected[f, help_bits, budget, True][x, query]
    assert _tcc_family.cache_info().currsize == len(fns) * 3 * 2
    for (f, help_bits, budget, one_way), codes in members.items():
        family = _tcc_members(f, *help_bits, budget)
        assert [bits for bits, bob_only, _ in family if bob_only or not one_way] == codes


def test_equal_functions_share_one_tcc_family_entry():
    f = identity_fn(1)
    g = FunctionSpec(f.name, f.n, f.boolean, f.cells)
    assert f is not g and f == g and hash(f) == hash(g)
    _tcc_family.cache_clear()
    m = Measure("TCC", alpha=15)
    assert individual_cc(m, f, "0", "1") == individual_cc(m, g, "0", "1")
    tcc_identity_profile("1", 15)
    info = _tcc_family.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert info.maxsize is not None


def test_checks_run_on_a_warm_tcc_cache(monkeypatch):
    f = identity_fn(1)
    measures = [Measure("TCC", alpha=15), Measure("TCC", True, HelpSpec(1, 0), 15)]
    measures += [Measure(family, one_way, HelpSpec(1, 1), 15) for family in ("CC", "PCC") for one_way in (False, True)]
    for m in measures:
        individual_cc(m, f, "0", "1")
        for x, y in (("0", "2"), ("a", "1"), ("00", "1"), ("0", ""), ("0", "0 ")):
            with pytest.raises(ValueError):
                individual_cc(m, f, x, y)
    for y, x in (("2", None), ("0", "00"), ("1", "1a")):
        with pytest.raises(ValueError):
            tcc_identity_profile(y, 15, x=x)

    # an entry planted past the input-length limit is never read
    big = identity_fn(4)
    assert _tcc_members(big, 0, 0, 0) == ()
    for family in FAMILIES:
        with pytest.raises(UsageError):
            individual_cc(Measure(family, alpha=8), big, "0000", "0000")
    with pytest.raises(UsageError):
        tcc_identity_profile("0000", 0)

    # a family cached under a raised cap is refused once the cap is back,
    # and so is every CC and PCC query past it
    monkeypatch.setenv("CCLAB_BUDGET_CAP", "22")
    m = Measure("TCC", alpha=22)
    warm = individual_cc(m, f, "0", "1")
    tcc_identity_profile("1", 22)
    hits = _tcc_family.cache_info().hits
    assert individual_cc(m, f, "0", "1") == warm
    assert _tcc_family.cache_info().hits == hits + 1
    for family in ("CC", "PCC"):
        assert individual_cc(Measure(family, alpha=22), f, "0", "1") == (0, PdlCode("10001"))
        with pytest.raises(UsageError):
            individual_cc(Measure(family, alpha=23), f, "0", "1")
    monkeypatch.delenv("CCLAB_BUDGET_CAP")
    for family in FAMILIES:
        with pytest.raises(UsageError):
            individual_cc(Measure(family, alpha=22), f, "0", "1")
    with pytest.raises(UsageError):
        tcc_identity_profile("1", 22)


# the (n, help bits) keys and budgets of the benchmark's per-input queries
QUERY_BUDGETS = {
    (1, (0, 0)): 20, (1, (1, 0)): 20, (1, (0, 1)): 19, (1, (1, 1)): 19,
    (2, (0, 0)): 20, (2, (1, 0)): 19, (2, (0, 1)): 19, (2, (1, 1)): 19,
    (3, (0, 0)): 20, (3, (1, 0)): 20, (3, (0, 1)): 20, (3, (1, 1)): 20,
}


def _clear_family_stores():
    _tcc_family.cache_clear()
    complexity._class_store.clear()
    codes._largest_tables.clear()


@pytest.mark.parametrize("key", QUERY_BUDGETS, ids=lambda key: f"n{key[0]}-h{key[1][0]}{key[1][1]}")
def test_tcc_family_matches_a_per_tree_oracle_in_both_build_orders(key):
    """Families read from fold classes against every tree decided on its own.

    The budget and the budget minus 2 are asked in both orders from empty
    stores, so the smaller family is read once from classes folded for the
    larger table and once from classes that the larger one extends; the
    staircases must be those of the oracle's members either way.
    """
    n, (a, b) = key
    budget = QUERY_BUDGETS[key]
    fns = [identity_fn(n), equality_fn(n), inner_product_fn(n)]
    members = _per_tree_family(fns, n, a, b, budget)
    # everywhere-correct trees fit these budgets at n = 1, and at n = 2 only with help
    assert any(members.values()) == (n == 1 or (n == 2 and a + b > 0))
    for order in ((budget, budget - 2), (budget - 2, budget)):
        _clear_family_stores()
        for alpha in order:
            for f in fns:
                want = tuple(m for m in members[f] if len(m[0]) <= alpha)
                assert _tcc_family(f, a, b, alpha)[1] == _staircases_of(want, n, a, b), (f.name, alpha)
                assert _tcc_members(f, a, b, alpha) == want, (f.name, alpha)


def _staircases_of(members, n, a, b):
    """The record's staircases read off a member list: where each pair's cost strictly falls, per shape."""
    steps = []
    for shape in (0, 1):
        pairs = []
        for p in range(1 << 2 * n):
            stairs = []
            for bits, one_way, costs in members:
                if (one_way or not shape) and (not stairs or costs[p] < stairs[-1][1]):
                    stairs.append((len(bits), costs[p], PdlCode(bits)))
            pairs.append(tuple(stairs))
        steps.append(tuple(pairs))
    return tuple(steps)


def _per_tree_family(fns, n, a, b, budget):
    """{f: [(bits, one_way, costs)]} for every tree decided on its own.

    The oracle of the tests above and below: `computes_everywhere` on every
    total tree that `enumerate_signature` yields, and each member's
    `cc_with_help` on every pair (x, y), in the order x << n | y.
    """
    help_spec = HelpSpec(a, b)
    pairs = [(x, y) for x in all_bitstrings(n) for y in all_bitstrings(n)]
    members = {f: [] for f in fns}
    for code, tree in enumerate_signature(n + a, n + b, n, budget):
        if not is_total(tree):
            continue
        for f in fns:
            if computes_everywhere(tree, f, help_spec):
                costs = tuple(cc_with_help(tree, f, x, y, help_spec) for x, y in pairs)
                members[f].append((code.bits, is_one_way(tree), costs))
    return members


RANDOM_TABLE_KEYS = [key for key in QUERY_BUDGETS if key[0] == 1 or (key[0] == 2 and any(key[1]))]


@pytest.mark.parametrize("key", RANDOM_TABLE_KEYS, ids=lambda key: f"n{key[0]}-h{key[1][0]}{key[1][1]}")
def test_tcc_family_matches_a_per_tree_oracle_on_random_tables(key):
    """Families of functions without symmetry, in both build orders from empty stores.

    Two truth-valued and two word-valued seeded tables share each class
    store, so each must judge the same leaves for itself.
    """
    n, (a, b) = key
    budget = QUERY_BUDGETS[key]
    seed = 7919 * n + 4 * a + 2 * b
    fns = [_random_table_fn(n, seed + i, boolean) for i, boolean in enumerate((True, True, False, False))]
    members = _per_tree_family(fns, n, a, b, budget)
    # every truth-valued table has members; at n = 2 the word-valued ones have none
    assert all(members[f] for f in fns if f.boolean)
    for order in ((budget, budget - 2), (budget - 2, budget)):
        _clear_family_stores()
        for alpha in order:
            for f in fns:
                want = tuple(m for m in members[f] if len(m[0]) <= alpha)
                assert _tcc_family(f, a, b, alpha)[1] == _staircases_of(want, n, a, b), (f.name, alpha)
                assert _tcc_members(f, a, b, alpha) == want, (f.name, alpha)


@pytest.mark.parametrize("signature", [(1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 3, 3)])
def test_fold_classes_hold_exactly_the_never_stuck_trees(signature):
    _, roots = _enumeration_table(*signature, 16)
    held = sorted(i for indices in _fold_classes(*signature, roots).members for i in indices if i < len(roots))
    total = [i for i, node in enumerate(roots) if is_total(ProtocolTree(*signature, node))]
    assert held == total
    # trees whose stuck leaves no cell reaches are in, the others are out
    assert any(tree_has_stuck(roots[i]) for i in total)
    assert len(total) < len(roots)


@pytest.mark.parametrize("signature", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)])
def test_cover_marks_what_each_class_announces_on_each_pair(signature):
    """The index against runs of each class's first member on every help extension.

    Bit c of cover[p][v] must be set iff some help strings make the run of
    class c's first member on pair p announce v.  The classes of a smaller
    budget must be the numbers below its prefix, with the same numbering
    whichever budget is folded first.
    """
    na, nb, n = signature
    a, b = na - n, nb - n
    _clear_family_stores()
    _, roots = _enumeration_table(*signature, 16)
    classes = _fold_classes(*signature, roots)
    values = list(all_bitstrings(n))
    assert len(classes.cover) == 1 << 2 * n
    for c, indices in enumerate(classes.members):
        tree = ProtocolTree(*signature, roots[indices[0]])
        for x in all_bitstrings(n):
            for y in all_bitstrings(n):
                said = {
                    run(tree, x + ha, y + hb).output for ha in all_bitstrings(a) for hb in all_bitstrings(b)
                }
                by_value = classes.cover[int(x + y, 2)]
                for v in values:
                    assert (by_value.get(v, 0) >> c & 1) == (v in said), (c, x, y, v)
    assert all(set(by_value) <= set(values) for by_value in classes.cover)
    numberings = []
    for order in ((12, 16), (16, 12)):
        _clear_family_stores()
        for alpha in order:
            _fold_classes(*signature, _enumeration_table(*signature, alpha)[1])
        classes = _fold_classes(*signature, roots)
        numberings.append(classes.folds)
        for alpha in (12, 14, 16):
            size = len(_enumeration_table(*signature, alpha)[1])
            held = {c for c, indices in enumerate(classes.members) if any(i < size for i in indices)}
            assert classes.prefix(size) == (1 << len(held)) - 1 and held == set(range(len(held))), (order, alpha)
    assert numberings[0] == numberings[1]
    _clear_family_stores()


def test_family_stores_stay_within_their_bounds():
    """The stores keep at most their limits, and each index lives and dies in its class entry."""
    signatures = [(na, nb, w) for na in range(1, 6) for nb in range(1, 6) for w in (1, 2, 3)][:70]
    first = weakref.ref(_fold_classes(*signatures[0], _enumeration_table(*signatures[0], 9)[1]))
    for signature in signatures[1:]:
        _fold_classes(*signature, _enumeration_table(*signature, 9)[1])
    assert len(complexity._class_store) == complexity._CLASS_LIMIT == _tcc_family.cache_info().maxsize
    assert len(codes._largest_tables) == codes._LARGEST_LIMIT
    assert signatures[-1] in complexity._class_store and signatures[0] not in complexity._class_store
    assert signatures[-1] in codes._largest_tables and signatures[0] not in codes._largest_tables
    gc.collect()
    assert first() is None
    for (na, nb, w), classes in complexity._class_store.items():
        # an input narrower than the output has no base pairs to index
        assert len(classes.cover) == (1 << 2 * w if min(na, nb) >= w else 0)
        assert any(classes.cover) == bool(classes.cover and classes.members)
    # the class store is the module's one store and _tcc_family its one cache
    stores = [name for name, value in vars(complexity).items() if isinstance(value, (dict, list, set))]
    assert [name for name in stores if not name.startswith("__")] == ["_class_store"]
    caches = [name for name, value in vars(complexity).items() if hasattr(value, "cache_info")]
    assert [name for name in caches if getattr(complexity, name).__module__ == complexity.__name__] == ["_tcc_family"]


def test_cc_and_pcc_enumerate_nothing(monkeypatch):
    _clear_family_stores()

    def refuse(*args, **kwargs):
        raise AssertionError("CC and PCC built a class index")

    monkeypatch.setattr(complexity, "_FoldClasses", refuse)
    f = inner_product_fn(3)
    for family in ("CC", "PCC"):
        for one_way in (False, True):
            m = Measure(family, one_way, HelpSpec(1, 1), 20)
            assert individual_cc(m, f, "011", "101") == (0, PdlCode("1000001"))
    assert _tcc_family.cache_info().currsize == 0
    assert not complexity._class_store and not codes._largest_tables


def test_tcc_queries_build_no_member_list(monkeypatch):
    """TCC answers and identity profiles read staircases only, and walk no tree once classes exist.

    Every query key is answered in both shapes for identity, eq and ip,
    with the member list refused.  A tree is folded and its shape read only
    when its signature's classes are first built; once they exist, a build
    for another function neither folds a tree nor reads its shape, and
    asked again from an empty record cache, no key does either.
    """
    _clear_family_stores()

    def refuse(*args, **kwargs):
        raise AssertionError("a query built a member list")

    walked, folded = [], []

    def walk(node):
        walked.append(node)
        return node_is_one_way(node)

    def fold(node, na, nb):
        folded.append(node)
        return leaf_masks(node, na, nb)

    leaf_masks = complexity._leaf_masks
    monkeypatch.setattr(complexity, "_tcc_members", refuse)
    monkeypatch.setattr(complexity, "node_is_one_way", walk)
    monkeypatch.setattr(complexity, "_leaf_masks", fold)
    answered = 0
    for again in (False, True):
        _tcc_family.cache_clear()
        for (n, (a, b)), budget in QUERY_BUDGETS.items():
            for i, f in enumerate((identity_fn(n), equality_fn(n), inner_product_fn(n))):
                del walked[:], folded[:]
                for one_way in (False, True):
                    m = Measure("TCC", one_way, HelpSpec(a, b), budget)
                    for x in all_bitstrings(n):
                        for y in all_bitstrings(n):
                            individual_cc(m, f, x, y)
                            answered += 1
                if again or i:
                    assert walked == [] and folded == [], (n, a, b, f.name)
                else:
                    assert folded and len(walked) <= len(folded), (n, a, b)
    for n, budgets in ((1, (18, 19, 20)), (2, (19,))):
        for budget in budgets:
            for y in all_bitstrings(n):
                tcc_identity_profile(y, budget)
    assert answered == 2 * sum(2 * 3 * (1 << 2 * n) for n, _ in QUERY_BUDGETS)
    _clear_family_stores()


@pytest.mark.parametrize("key", QUERY_BUDGETS, ids=lambda key: f"n{key[0]}-h{key[1][0]}{key[1][1]}")
def test_fold_class_members_share_the_class_shape(key):
    """Every member of a class is one-way iff the class's bit in the one_way mask is set."""
    n, (a, b) = key
    signature = n + a, n + b, n
    _, roots = _enumeration_table(*signature, QUERY_BUDGETS[key])
    classes = _fold_classes(*signature, roots)
    shapes = set()
    for c, indices in enumerate(classes.members):
        one_way = bool(classes.one_way >> c & 1)
        shapes.add(one_way)
        assert all(node_is_one_way(roots[i]) == one_way for i in indices if i < len(roots)), c
    assert classes.one_way < 1 << len(classes.members) and shapes == {False, True}


HELP_COUNTS = [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_one_way_restriction_never_helps():
    """Two-way values never exceed one-way ones, for CC and for TCC.

    TCC reads the one-way staircase from its own table, so the comparison
    runs where the families are nonempty at budget 19: n = 1 under every
    help count, and eq and ip at n = 2 with Bob help bits (4 to 8 members).
    """
    f = identity_fn(1)
    m_free = Measure(family="CC", alpha=15)
    m_ow = Measure(family="CC", alpha=15, one_way=True)
    for x in "01":
        for y in "01":
            assert individual_cc(m_free, f, x, y)[0] <= individual_cc(m_ow, f, x, y)[0]
    keys = [(g, h) for g in (identity_fn(1), equality_fn(1), inner_product_fn(1)) for h in HELP_COUNTS]
    keys += [(g, h) for g in (equality_fn(2), inner_product_fn(2)) for h in ((0, 1), (1, 1))]
    finite = 0
    for g, help_bits in keys:
        free, ow = (Measure("TCC", one_way, HelpSpec(*help_bits), 19) for one_way in (False, True))
        for x in all_bitstrings(g.n):
            for y in all_bitstrings(g.n):
                one_way_value = individual_cc(ow, g, x, y)[0]
                assert individual_cc(free, g, x, y)[0] <= one_way_value, (g.name, help_bits, x, y)
                finite += one_way_value != INF
    assert finite


# n = 1 functions under every help count at budgets 19 and 20, and the
# helped n = 2 keys of eq and ip at budget 19
STAIRCASE_KEYS = [
    (f, help_bits, budget)
    for f in (identity_fn(1), equality_fn(1), inner_product_fn(1), _random_table_fn(1, seed=23, boolean=True))
    for help_bits in HELP_COUNTS
    for budget in (19, 20)
] + [(f, help_bits, 19) for f in (equality_fn(2), inner_product_fn(2)) for help_bits in HELP_COUNTS[1:]]


def _member_minima(f, help_bits, budget, one_way):
    """{(x, y): (value, witness)} from every member of the record asked about every pair.

    Each member is decoded and its shape read from the tree; the value is
    the prefix minimum of `cc_with_help` over the members in canonical
    order, ties going to the first.
    """
    n = f.n
    a, b = help_bits
    best = {(x, y): (INF, None) for x in all_bitstrings(n) for y in all_bitstrings(n)}
    members = [bits for bits, _, _ in _tcc_members(f, a, b, budget)]
    assert members == sorted(members, key=lambda bits: (len(bits), bits))
    for bits in members:
        tree = decode_signature(bits, n + a, n + b, n)
        if one_way and not is_one_way(tree):
            continue
        for pair in best:
            cost = cc_with_help(tree, f, *pair, HelpSpec(a, b))
            if cost < best[pair][0]:
                best[pair] = (cost, PdlCode(bits))
    return best


def _twinned_admitted_folds(f, help_bits, budget):
    """Admitted folds held by a two-way class and a later one-way twin."""
    n = f.n
    a, b = help_bits
    classes = _fold_classes(n + a, n + b, n, _enumeration_table(n + a, n + b, n, budget)[1])
    admitted = _tcc_family(f, a, b, budget)[0]
    two_way, count = set(), 0
    for c, fold in enumerate(classes.folds):
        if admitted >> c & 1:
            if not classes.one_way >> c & 1:
                two_way.add(fold)
            else:
                count += fold in two_way
    return count


def test_staircases_equal_prefix_minima_over_the_members():
    """Every TCC answer against the members asked one by one, in both shapes.

    Folds held by a two-way class and a later one-way twin must occur, so
    a one-way staircase that took its steps from the first class of each
    fold would show.
    """
    twinned = 0
    for f, help_bits, budget in STAIRCASE_KEYS:
        for one_way in (False, True):
            m = Measure("TCC", one_way, HelpSpec(*help_bits), budget)
            for (x, y), want in _member_minima(f, help_bits, budget, one_way).items():
                assert individual_cc(m, f, x, y) == want, (f.name, help_bits, budget, one_way, x, y)
        twinned += _twinned_admitted_folds(f, help_bits, budget)
    assert twinned


def test_staircase_rules_on_planted_tables(monkeypatch):
    """The record's rules on hand-made tables, where the enumerated keys cannot tell.

    Every key enumerated in these tests has one step per staircase, so none
    of them changes if the one-way staircase were offered every admitted
    class, if the greatest depth over the help strings won, if a profile
    read the last step at every budget or read the one-way profile off the
    two-way staircase, if a class were skipped unless it undercut the least
    last step rather than the greatest, or if the bound that skips a class
    were read off other than its least leaf depth.  So the tables are
    planted, in canonical order: a two-way and a one-way tree of one fold,
    both costing 2, then two longer one-way trees costing 1 on column 0 and
    on column 1 respectively, and 2 on the other; and a help-bit tree
    costing 2 or 3 by Alice's help string, so 2 everywhere, then a longer
    one whose leaves sit at depths 1 and 3.  Its depth-1 leaf is correct
    only on pair (1, 1), and it is neither the first leaf the fold lists nor
    the first in the class's sorted fold.  Under a Bob help bit, a two-way
    tree and a longer one-way tree of one fold are folded together before
    the shorter budget is asked, so the larger budget's one-way step must
    come from the one-way twin class that the shorter table's prefix leaves
    out.
    """
    def leaf(v):
        return OutputLeaf(OutputFunction.const(v))

    def spell():
        return Speak(BOB, NodeFunction.input_bit(0), leaf("0"), leaf("1"))

    roots = [
        Speak(ALICE, NodeFunction.const(0), spell(), StuckLeaf()),
        Speak(BOB, NodeFunction.const(0), spell(), StuckLeaf()),
        Speak(BOB, NodeFunction.input_bit(0), leaf("0"), Speak(BOB, NodeFunction.const(0), leaf("1"), leaf("0"))),
        Speak(BOB, NodeFunction.negated_bit(0), leaf("1"), Speak(BOB, NodeFunction.const(0), leaf("0"), leaf("1"))),
    ]
    two, one, cheap0, cheap1 = (pdl_encode(ProtocolTree(1, 1, 1, root)).bits for root in roots)
    helped = Speak(ALICE, NodeFunction.input_bit(1), spell(), Speak(BOB, NodeFunction.const(0), spell(), StuckLeaf()))
    late = Speak(ALICE, NodeFunction.from_table("1110"), leaf("1"), Speak(BOB, NodeFunction.const(0), spell(), spell()))
    planted = {
        (1, 1, 1): tuple(roots),
        (2, 1, 1): (helped, late),
        (1, 2, 1): (roots[0], Speak(BOB, NodeFunction.const(0), spell(), spell())),
    }
    spelled = {
        signature: tuple(pdl_encode(ProtocolTree(*signature, root)).bits for root in held)
        for signature, held in planted.items()
    }
    bits, late_bits = spelled[2, 1, 1]
    assert [len(bits), len(late_bits)] == [43, 49]
    assert [len(bits) for bits in (two, one, cheap0, cheap1)] == [22, 22, 25, 25] and two < one < cheap0 < cheap1
    def planted_table(na, nb, out_len, alpha):
        # a table holds each code as an int behind a leading 1 bit
        fitting = [bits for bits in spelled[na, nb, out_len] if len(bits) <= alpha]
        return tuple(int("1" + bits, 2) for bits in fitting), planted[na, nb, out_len][:len(fitting)]

    monkeypatch.setattr(complexity, "_enumeration_table", planted_table)
    monkeypatch.setenv("CCLAB_BUDGET_CAP", "25")
    f = identity_fn(1)
    _clear_family_stores()
    try:
        steps = _tcc_family(f, 0, 0, 25)[1]
        assert steps[0][0b00] == ((22, 2, PdlCode(two)), (25, 1, PdlCode(cheap0)))
        assert steps[1][0b10] == ((22, 2, PdlCode(one)), (25, 1, PdlCode(cheap0)))
        assert steps[0][0b01] == ((22, 2, PdlCode(two)), (25, 1, PdlCode(cheap1)))
        assert steps[1][0b11] == ((22, 2, PdlCode(one)), (25, 1, PdlCode(cheap1)))
        report = tcc_identity_profile("0", 25)
        assert [report.one_way.entries[a] for a in (21, 22, 24, 25)] == [
            (INF, None), (2, PdlCode(one)), (2, PdlCode(one)), (1, PdlCode(cheap0)),
        ]
        assert [report.two_way["1"].entries[a] for a in (22, 24, 25)] == [
            (2, PdlCode(two)), (2, PdlCode(two)), (1, PdlCode(cheap0)),
        ]
        for one_way in (False, True):
            assert individual_cc(Measure("TCC", one_way, alpha=24), f, "1", "0") == (2, PdlCode(one if one_way else two))
            assert individual_cc(Measure("TCC", one_way, alpha=25), f, "1", "0") == (1, PdlCode(cheap0))
            assert individual_cc(Measure("TCC", one_way, alpha=25), f, "0", "1") == (1, PdlCode(cheap1))
        stairs = ((len(bits), 2, PdlCode(bits)),)
        assert _tcc_family(f, 1, 0, len(bits))[1] == ((stairs,) * 4, ((),) * 4)
        costs = [cc_with_help(ProtocolTree(2, 1, 1, late), f, x, y, HelpSpec(1, 0)) for x in "01" for y in "01"]
        assert costs == [3, 3, 3, 1]
        late_stairs = stairs + ((len(late_bits), 1, PdlCode(late_bits)),)
        assert _tcc_family(f, 1, 0, len(late_bits))[1] == ((stairs,) * 3 + (late_stairs,), ((),) * 4)
        short, long = spelled[1, 2, 1]
        assert len(short) < len(long)
        _fold_classes(1, 2, 1, planted[1, 2, 1])
        stairs = ((len(short), 2, PdlCode(short)),)
        assert _tcc_family(f, 0, 1, len(short))[1] == ((stairs,) * 4, ((),) * 4)
        assert _tcc_family(f, 0, 1, len(long))[1] == ((stairs,) * 4, (((len(long), 2, PdlCode(long)),),) * 4)
    finally:
        _clear_family_stores()


def _fold_over_members(alpha_max, candidates):
    """Prefix minima over code length; candidates iterate in canonical order.

    The fold the identity profiles used before staircases, kept as their
    oracle.
    """
    entries = {a: (INF, None) for a in range(alpha_max + 1)}
    for length, value, witness in candidates:
        for a in range(length, alpha_max + 1):
            if value < entries[a][0]:
                entries[a] = (value, witness)
    return entries


@pytest.mark.parametrize("n, alpha_max", [(1, 15), (1, 19), (1, 20), (2, 19)])
def test_identity_profiles_equal_a_fold_over_the_members(n, alpha_max):
    members = _tcc_members(identity_fn(n), 0, 0, alpha_max)
    assert bool(members) == (n == 1)
    for y in all_bitstrings(n):
        column = int(y, 2)
        report = tcc_identity_profile(y, alpha_max)
        want = _fold_over_members(alpha_max, (
            (len(bits), costs[column], PdlCode(bits)) for bits, bob_only, costs in members if bob_only
        ))
        assert report.one_way.entries == want, y
        for row in all_bitstrings(n):
            cell = int(row, 2) << n | column
            want = _fold_over_members(alpha_max, (
                (len(bits), costs[cell], PdlCode(bits)) for bits, _, costs in members
            ))
            assert report.two_way[row].entries == want, (row, y)
            assert tcc_identity_profile(y, alpha_max, x=row).two_way[row].entries == want


def _spell(value, witness):
    return f"{value} {witness.bits if witness else '-'}"


# taken while every TCC answer and identity profile still folded the members
_TCC_ANSWERS_HASH = "5f0c33202010e7a8ab6b17b8fbf0d465d2378652f09edc035f52c056a78ccaca"


def test_tcc_answers_and_identity_profiles_are_pinned():
    """Every TCC answer at the query keys, and the identity profiles, by one digest.

    Each (n, help bits) key at its budget and at two bits less, for
    identity, eq and ip, both shapes and every pair; the no-help keys add
    the identity profiles of every column.
    """
    digest = hashlib.sha256()
    finite = 0
    for (n, (a, b)), budget in QUERY_BUDGETS.items():
        columns = list(all_bitstrings(n))
        for alpha in (budget, budget - 2):
            for f in (identity_fn(n), equality_fn(n), inner_product_fn(n)):
                for one_way in (False, True):
                    m = Measure("TCC", one_way, HelpSpec(a, b), alpha)
                    for x in columns:
                        for y in columns:
                            answer = individual_cc(m, f, x, y)
                            finite += answer[0] != INF
                            digest.update(f"{n} {a}{b} {alpha} {f.name} {one_way} {x} {y} {_spell(*answer)}\n".encode())
            if (a, b) == (0, 0):
                for y in columns:
                    report = tcc_identity_profile(y, alpha)
                    for row, profile in [("one", report.one_way)] + sorted(report.two_way.items()):
                        line = " ".join(_spell(*profile.entries[k]) for k in range(alpha + 1))
                        digest.update(f"profile {y} {alpha} {row} {line}\n".encode())
    assert finite == 352
    assert digest.hexdigest() == _TCC_ANSWERS_HASH


# a help-bit tree past the oracle budgets that the TCC family must refuse


def test_tcc_with_help_refuses_a_tree_stranded_by_one_help_string():
    f = identity_fn(1)
    spell = Speak(
        BOB,
        NodeFunction.input_bit(0),
        OutputLeaf(OutputFunction.const("0")),
        OutputLeaf(OutputFunction.const("1")),
    )
    # Alice's help bit 0 strands every pair, help bit 1 lets Bob spell y
    tree = ProtocolTree(2, 1, 1, Speak(ALICE, NodeFunction.input_bit(1), StuckLeaf(), spell))
    help_spec = HelpSpec(1, 0)
    bits = pdl_encode(tree).bits
    assert len(bits) == 23
    assert computes_everywhere(tree, f, help_spec)
    # every TCC part is read from the fold classes, which must not hold it;
    # a one-tree table would pass for the signature's prefix in the stores
    _clear_family_stores()
    try:
        assert _fold_classes(2, 1, 1, (tree.root,)).members == []
    finally:
        _clear_family_stores()


# ---------------------------------------------------------------------------
# one-way simulation


def test_simulation_of_constructed_protocols():
    f = identity_fn(2)
    for name, tree in identity_protocols(2).items():
        sim = one_way_from_two_way(tree)
        for y in all_bitstrings(2):
            for x in all_bitstrings(2):
                assert len(sim.messages[y]) <= cc_on_input(tree, f, x, y), (name, x, y)
            assert bob_message(sim.tree, y) == sim.messages[y]


def test_simulation_messages_are_distinct_and_prefix_free():
    messages = list(one_way_from_two_way(alice_flag_identity(2)).messages.values())
    assert len(set(messages)) == len(messages)
    for a in messages:
        for b in messages:
            assert not (a != b and b.startswith(a))


def test_simulation_rejects_partial_protocols():
    leaf = ProtocolTree(2, 2, 2, OutputLeaf(OutputFunction.copy_x()))
    with pytest.raises((AuditFailure, UsageError)):
        one_way_from_two_way(leaf)


# ---------------------------------------------------------------------------
# set exchange


def test_set_to_oneway_message_length():
    for _code, members in enumerate_sets(2, 20):
        tree = set_to_oneway(members, 2)
        want = 1 + math.ceil(math.log2(len(members))) if len(members) > 1 else 1
        for y in sorted(members):
            assert len(bob_message(tree, y)) == want


def test_oneway_to_set_contains_column():
    for _code, members in enumerate_sets(2, 20):
        tree = set_to_oneway(members, 2)
        for y in sorted(members):
            back = oneway_to_set(tree, y)
            assert y in back
            assert math.log2(len(back)) <= len(bob_message(tree, y))


def test_oneway_to_set_is_the_class_of_equal_message_length():
    # the per-column walk is the reference for the one fold oneway_to_set reads
    cases = 0
    for n in (2, 3):
        for _code, members in enumerate_sets(n, 20):
            tree = set_to_oneway(members, n)
            lengths = {col: len(bob_message(tree, col)) for col in all_bitstrings(n)}
            for y in all_bitstrings(n):
                want = frozenset(col for col, length in lengths.items() if length == lengths[y])
                assert oneway_to_set(tree, y) == want, (sorted(members), y)
                cases += 1
    assert cases == 1812


# ---------------------------------------------------------------------------
# profiles


def test_profile_nonincreasing_audit():
    profile = ComplexityProfile("demo", {0: (INF, None), 1: (2, None), 2: (3, None)})
    with pytest.raises(AuditFailure):
        profile.assert_nonincreasing()


def test_profile_serialization():
    profile = ComplexityProfile("demo", {0: (INF, None), 1: (2.0, None)})
    csv = profile.to_csv()
    assert csv.splitlines()[0] == "alpha,value,witness_hex"
    assert "0,inf," in csv
    assert "1,2," in csv
    assert '"schema": "cclab-profile/1"' in profile.to_json()


def test_structure_function_profile_matches_naive_n1():
    for y in "01":
        profile = structure_function_profile(y, 12)
        # naive oracle over both subsets containing y
        from cclab import sdl_encode

        universe = ["0", "1"]
        best = {a: INF for a in range(13)}
        for members in (frozenset((y,)), frozenset(universe)):
            cost = len(sdl_encode(members, 1).bits)
            for a in range(cost, 13):
                best[a] = min(best[a], math.log2(len(members)))
        for a in range(13):
            assert profile.value(a) == best[a]


def test_structure_function_profile_caps():
    with pytest.raises(UsageError):
        structure_function_profile("00000", 10)
    with pytest.raises(UsageError):
        structure_function_profile("00", 99)


def _never_rises(profile, alpha_max):
    values = [profile.value(alpha) for alpha in range(alpha_max + 1)]
    return all(later <= earlier for earlier, later in zip(values, values[1:]))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(1, 4).flatmap(lambda n: st.text("01", min_size=n, max_size=n)))
def test_set_profile_never_rises_with_the_budget(y):
    # one set table per n at the top budget, so every budget below is covered
    assert _never_rises(structure_function_profile(y, 20), 20)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.sampled_from("01"), st.integers(0, 20))
def test_identity_profiles_never_rise_with_the_budget(y, alpha_max):
    report = tcc_identity_profile(y, alpha_max)
    assert _never_rises(report.one_way, alpha_max)
    assert all(_never_rises(p, alpha_max) for p in report.two_way.values())


def test_identity_profile_n1_report():
    report = tcc_identity_profile("1", 20)
    assert all(r.equal for r in report.agreement)


def test_identity_profile_matches_brute_force(monkeypatch):
    """Both profiles against per-budget minima taken from runs alone.

    At n = 1 and budget 22 the everywhere-correct identity family is
    nonempty one-way and two-way, so the one-scan profile has to pick the
    one-way members out of the two-way family in the right order.
    """
    monkeypatch.setenv("CCLAB_BUDGET_CAP", "22")
    alpha_max = 22
    pairs = [(x, y) for x in "01" for y in "01"]
    family = [
        (code, tree)
        for code, tree in enumerate_signature(1, 1, 1, alpha_max)
        if all(run(tree, x, y).output == y for x, y in pairs)
    ]
    one_way_bits = {
        code.bits for code, _ in enumerate_signature(1, 1, 1, alpha_max, require_one_way=True)
    }
    assert len(family) == 48
    assert sum(code.bits not in one_way_bits for code, _ in family) == 12

    def least(candidates, alpha):
        # least value among the codes that fit, ties to the canonically first
        fits = [(value, i, code) for i, (code, value) in enumerate(candidates)
                if len(code.bits) <= alpha]
        value, _, code = min(fits, default=(INF, 0, None))
        return value, code

    for y in "01":
        report = tcc_identity_profile(y, alpha_max)
        one_way = [(code, run(tree, "0", y).cost) for code, tree in family
                   if code.bits in one_way_bits]
        for alpha in range(alpha_max + 1):
            assert report.one_way.entries[alpha] == least(one_way, alpha), (y, alpha)
        for row in "01":
            two_way = [(code, run(tree, row, y).cost) for code, tree in family]
            for alpha in range(alpha_max + 1):
                assert report.two_way[row].entries[alpha] == least(two_way, alpha), (y, row, alpha)


def test_identity_profile_caps():
    with pytest.raises(UsageError):
        tcc_identity_profile("0000", 10)


# ---------------------------------------------------------------------------
# hard columns


def test_find_hard_y_empty_budget():
    report = find_hard_y(2, 0, "00")
    assert report.value == INF
    assert report.count_below == 0
    assert report.threshold == 2
    assert report.y == "00"  # lexicographically first qualifier


def test_find_hard_y_vacuous_threshold():
    report = find_hard_y(2, 6, "00")
    assert report.threshold == -4
    assert "vacuous" in report.note
    assert report.count_below == 0


def test_find_hard_y_caps():
    with pytest.raises(UsageError):
        find_hard_y(4, 2, "0000")
