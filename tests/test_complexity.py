"""Individual measures, simulations, profiles, hard-column search."""

import math
import random

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
    UsageError,
    all_bitstrings,
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
from cclab.complexity import _admissible, _fold_classes, _tcc_family
from cclab.protocol import (
    ALICE,
    BOB,
    NodeFunction,
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    Speak,
    StuckLeaf,
    _correct_at,
    bob_message,
    cc_on_input,
    computes_everywhere,
    is_one_way,
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
    """individual_cc for every pair and family, straight from the definitions.

    Walks the family once with plain runs: a tree is total when no run on
    any extended pair is stuck, and a pair's cost is the cheapest correct
    run over all help strings.  TCC admits total trees that have a correct
    run on every pair, CC admits total trees, PCC admits every tree; the
    value is the least cost, ties going to the canonically first code.
    The TCC codes are appended to tcc_members when a list is given.
    """
    n = f.n
    a, b = help_bits
    pairs = [(x, y) for x in all_bitstrings(n) for y in all_bitstrings(n)]
    best = {(fam, pair): (INF, None) for fam in ("TCC", "CC", "PCC") for pair in pairs}
    if budget is None:
        budget = ORACLE_BUDGETS[n + a, n + b, n]
    for code, tree in enumerate_signature(n + a, n + b, n, budget, require_one_way=one_way):
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
    return best


@pytest.mark.parametrize("help_bits", [(0, 0), (1, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("one_way", [False, True], ids=["two-way", "one-way"])
@pytest.mark.parametrize(
    "f", ORACLE_FUNCTIONS, ids=lambda f: f.name if f.n == 1 else f"{f.name}-n{f.n}"
)
def test_individual_cc_matches_brute_force(f, one_way, help_bits):
    n = f.n
    budget = ORACLE_BUDGETS[n + help_bits[0], n + help_bits[1], n]
    expected = _brute_force_values(f, one_way, help_bits)
    for (family, (x, y)), want in expected.items():
        m = Measure(family, one_way, HelpSpec(*help_bits), budget)
        assert individual_cc(m, f, x, y) == want, (family, x, y)
    # the comparison must reach finite values in every family that is
    # nonempty at this budget: all three at n = 1, the two pointwise ones
    # at n = 2, where no everywhere-correct protocol fits in 16 bits
    assert all(
        any(v[0] != INF for (fam, _), v in expected.items() if fam == family)
        for family in (("TCC", "CC", "PCC") if n == 1 else ("CC", "PCC"))
    )


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
                    values = _brute_force_values(f, one_way, help_bits, budget, members[key])
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
        family = _tcc_family(f, *help_bits, budget)
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
    for m in (Measure("TCC", alpha=15), Measure("TCC", True, HelpSpec(1, 0), 15)):
        individual_cc(m, f, "0", "1")
        for x, y in (("0", "2"), ("a", "1"), ("00", "1"), ("0", ""), ("0", "0 ")):
            with pytest.raises(ValueError):
                individual_cc(m, f, x, y)
    for y, x in (("2", None), ("0", "00"), ("1", "1a")):
        with pytest.raises(ValueError):
            tcc_identity_profile(y, 15, x=x)

    # an entry planted past the input-length limit is never read
    big = identity_fn(4)
    assert _tcc_family(big, 0, 0, 0) == ()
    with pytest.raises(UsageError):
        individual_cc(Measure("TCC", alpha=0), big, "0000", "0000")
    with pytest.raises(UsageError):
        tcc_identity_profile("0000", 0)

    # a family cached under a raised cap is refused once the cap is back
    monkeypatch.setenv("CCLAB_BUDGET_CAP", "22")
    m = Measure("TCC", alpha=22)
    warm = individual_cc(m, f, "0", "1")
    tcc_identity_profile("1", 22)
    hits = _tcc_family.cache_info().hits
    assert individual_cc(m, f, "0", "1") == warm
    assert _tcc_family.cache_info().hits == hits + 1
    monkeypatch.delenv("CCLAB_BUDGET_CAP")
    with pytest.raises(UsageError):
        individual_cc(m, f, "0", "1")
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
    _enumeration_table.cache_clear()
    codes._largest_tables.clear()


@pytest.mark.parametrize("key", QUERY_BUDGETS, ids=lambda key: f"n{key[0]}-h{key[1][0]}{key[1][1]}")
def test_tcc_family_matches_a_per_tree_oracle_in_both_build_orders(key):
    """Families read from fold classes against every tree decided on its own.

    The budget and the budget minus 2 are asked in both orders from empty
    stores, so the smaller family is read once from classes folded for the
    larger table and once from classes that the larger one extends.
    """
    n, (a, b) = key
    budget = QUERY_BUDGETS[key]
    help_spec = HelpSpec(a, b)
    fns = [identity_fn(n), equality_fn(n), inner_product_fn(n)]
    members = {f: [] for f in fns}
    for code, tree in enumerate_signature(n + a, n + b, n, budget):
        if not is_total(tree):
            continue
        for f in fns:
            if computes_everywhere(tree, f, help_spec):
                members[f].append((code.bits, is_one_way(tree), _correct_at(tree, f, help_spec)))
    # everywhere-correct trees fit these budgets at n = 1, and at n = 2 only with help
    assert any(members.values()) == (n == 1 or (n == 2 and a + b > 0))
    for order in ((budget, budget - 2), (budget - 2, budget)):
        _clear_family_stores()
        for alpha in order:
            for f in fns:
                want = tuple(m for m in members[f] if len(m[0]) <= alpha)
                assert _tcc_family(f, a, b, alpha) == want, (f.name, alpha)


def _per_tree_family(fns, n, a, b, budget):
    """{f: [(bits, one_way, correct_at)]} for every tree decided on its own.

    The oracle of the test above: `computes_everywhere` on every total tree
    that `enumerate_signature` yields, and `_correct_at` on each member.
    """
    help_spec = HelpSpec(a, b)
    members = {f: [] for f in fns}
    for code, tree in enumerate_signature(n + a, n + b, n, budget):
        if not is_total(tree):
            continue
        for f in fns:
            if computes_everywhere(tree, f, help_spec):
                members[f].append((code.bits, is_one_way(tree), _correct_at(tree, f, help_spec)))
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
                assert _tcc_family(f, a, b, alpha) == want, (f.name, alpha)


@pytest.mark.parametrize("signature", [(1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 3, 3)])
def test_fold_classes_hold_exactly_the_never_stuck_trees(signature):
    table = _enumeration_table(*signature, 16)
    classes = _fold_classes(*signature, table)
    held = sorted(i for _, indices in classes.values() for i in indices if i < len(table))
    total = [i for i, (_, node) in enumerate(table) if is_total(ProtocolTree(*signature, node))]
    assert held == total
    # trees whose stuck leaves no cell reaches are in, the others are out
    assert any(tree_has_stuck(table[i][1]) for i in total)
    assert len(total) < len(table)


def test_family_stores_stay_within_their_bounds():
    signatures = [(na, nb, w) for na in range(1, 6) for nb in range(1, 6) for w in (1, 2, 3)][:70]
    for signature in signatures:
        _fold_classes(*signature, _enumeration_table(*signature, 9))
    assert len(complexity._class_store) == complexity._CLASS_LIMIT == _tcc_family.cache_info().maxsize
    assert len(codes._largest_tables) == codes._LARGEST_LIMIT == _enumeration_table.cache_info().maxsize
    assert signatures[-1] in complexity._class_store and signatures[0] not in complexity._class_store
    assert signatures[-1] in codes._largest_tables and signatures[0] not in codes._largest_tables


def test_one_way_restriction_never_helps():
    f = identity_fn(1)
    m_free = Measure(family="CC", alpha=15)
    m_ow = Measure(family="CC", alpha=15, one_way=True)
    for x in "01":
        for y in "01":
            assert individual_cc(m_free, f, x, y)[0] <= individual_cc(m_ow, f, x, y)[0]


# _admissible cases the brute-force oracle cannot reach: a partial tree the
# CC family must refuse, and a help-bit tree past the oracle budgets


def test_cc_refuses_a_partial_tree_that_pcc_admits():
    f = identity_fn(1)
    leaf = OutputLeaf(OutputFunction.const("0"))
    tree = ProtocolTree(1, 1, 1, Speak(BOB, NodeFunction.input_bit(0), leaf, StuckLeaf()))
    assert len(pdl_encode(tree).bits) == 12
    assert _admissible(tree.root, Measure("PCC"), f)
    assert not _admissible(tree.root, Measure("CC"), f)


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
    assert len(pdl_encode(tree).bits) == 23
    assert computes_everywhere(tree, f, help_spec)
    assert not _admissible(tree.root, Measure("TCC", help=help_spec), f)


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
