"""Protocol trees: execution, predicates, help bits."""

import hashlib
import random
import time
import tracemalloc

import pytest

from cclab import (
    INF,
    FunctionSpec,
    HelpSpec,
    NodeFunction,
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    Speak,
    StuckLeaf,
    UsageError,
    bob_message,
    cc_on_input,
    cc_with_help,
    computes_everywhere,
    computes_on,
    default_depth_cap,
    enumerate_signature,
    equality_fn,
    help_bit_totalizer,
    identity_fn,
    inner_product_fn,
    is_one_way,
    is_total,
    large_rectangle_shortcut,
    run,
    tree_has_stuck,
    value_as_help_protocol,
)
from cclab.bits import all_bitstrings
from cclab.codes import _encodings, _node_rule, _output_rule, pdl_encode
from cclab import protocol
from cclab.protocol import ALICE, BOB, _bob_message_classes, _lift
from cclab.rectangles import Rectangle
from cclab.reference import literal_send_protocol
from test_functions import _random_table


def literal_identity(n):
    return literal_send_protocol(identity_fn(n))


# ---------------------------------------------------------------------------
# node and output functions


def test_node_function_kinds():
    assert NodeFunction.const(0).evaluate("101") == 0
    assert NodeFunction.const(1).evaluate("101") == 1
    assert NodeFunction.input_bit(1).evaluate("101") == 0
    assert NodeFunction.negated_bit(1).evaluate("101") == 1
    assert NodeFunction.from_table("0110").evaluate("10") == 1


def test_node_function_validation():
    with pytest.raises(UsageError):
        NodeFunction.input_bit(3).validate(3)
    with pytest.raises(UsageError):
        NodeFunction.from_table("01").validate(2)


def test_output_function_kinds():
    assert OutputFunction.const("10").evaluate("00", 2) == "10"
    assert OutputFunction.copy_x().evaluate("01", 2) == "01"
    assert OutputFunction.xor_mask("11").evaluate("01", 2) == "10"
    fn = OutputFunction.from_map(2, 2, lambda u: u[::-1])
    assert fn.evaluate("01", 2) == "10"


def test_output_function_validation():
    with pytest.raises(UsageError):
        OutputFunction.copy_x().validate(3, 2)
    with pytest.raises(UsageError):
        OutputFunction.xor_mask("1").validate(2, 2)
    with pytest.raises(UsageError):
        OutputFunction.const("1").validate(2, 2)


# ---------------------------------------------------------------------------
# execution


def test_literal_send_runs():
    tree = literal_identity(2)
    for y in ("00", "01", "10", "11"):
        outcome = run(tree, "00", y)
        assert outcome.transcript == y
        assert outcome.cost == 2
        assert outcome.output == y
        assert not outcome.is_stuck


def test_stuck_outcome():
    tree = ProtocolTree(
        1, 1, 1, Speak(BOB, NodeFunction.input_bit(0), StuckLeaf(), OutputLeaf(OutputFunction.const("1")))
    )
    stuck = run(tree, "0", "0")
    assert stuck.is_stuck
    assert stuck.cost == 1  # the root bit was spoken before sticking
    fine = run(tree, "0", "1")
    assert fine.output == "1"


def test_alice_and_bob_bits_interleave():
    # Alice echoes her bit after Bob's, transcript orders them by depth
    inner = Speak(
        ALICE,
        NodeFunction.input_bit(0),
        OutputLeaf(OutputFunction.const("0")),
        OutputLeaf(OutputFunction.const("1")),
    )
    tree = ProtocolTree(1, 1, 1, Speak(BOB, NodeFunction.input_bit(0), inner, inner))
    outcome = run(tree, "1", "0")
    assert outcome.transcript == "01"
    assert outcome.cost == 2


def test_depth_cap_bounds_trees_so_every_walk_ends_at_a_leaf():
    cap = default_depth_cap(1, 1)

    def chain(depth):
        node = OutputLeaf(OutputFunction.const("1"))
        for i in range(depth):
            node = Speak(ALICE if i % 2 else BOB, NodeFunction.const(1), StuckLeaf(), node)
        return node

    # the deepest leaf sits exactly at the cap and still answers
    tree = ProtocolTree(1, 1, 1, chain(cap))
    outcome = run(tree, "0", "1")
    assert (outcome.transcript, outcome.output) == ("1" * cap, "1")
    assert is_total(tree)
    # one level deeper the tree itself is refused, so no walk can pass the cap
    with pytest.raises(UsageError, match="depth cap"):
        ProtocolTree(1, 1, 1, chain(cap + 1))


# ---------------------------------------------------------------------------
# predicates


def test_is_one_way():
    assert is_one_way(literal_identity(2))
    tree = ProtocolTree(
        1, 1, 1, Speak(ALICE, NodeFunction.const(0), OutputLeaf(OutputFunction.const("0")), StuckLeaf())
    )
    assert not is_one_way(tree)
    assert is_one_way(ProtocolTree(1, 1, 1, OutputLeaf(OutputFunction.const("0"))))


def test_bob_message_requires_one_way():
    tree = ProtocolTree(
        1, 1, 1, Speak(ALICE, NodeFunction.const(0), OutputLeaf(OutputFunction.const("0")), StuckLeaf())
    )
    with pytest.raises(UsageError):
        bob_message(tree, "0")
    assert bob_message(literal_identity(2), "10") == "10"


def test_bob_message_matches_run():
    # Alice's input is never read in a one-way tree, so any x gives Bob's message
    trees = [tree for _code, tree in enumerate_signature(2, 2, 2, 18, require_one_way=True)]
    assert trees
    for tree in trees:
        for y in all_bitstrings(2):
            outcome = run(tree, "00", y)
            assert bob_message(tree, y) == (None if outcome.is_stuck else outcome.transcript)


def _classes_by_walk(tree, k, suffix):
    """{message or None: blocks} for l = 1..4, from one bob_message walk per block."""
    messages = [bob_message(tree, z + suffix) for z in all_bitstrings(k)]
    by_l = {}
    for l in range(1, 5):
        classes = by_l[l] = {}
        for z, message in enumerate(messages):
            if message is not None and len(message) >= l:
                message = None
            classes[message] = classes.get(message, 0) | 1 << z
    return by_l


@pytest.mark.parametrize("signature,budget", [((2, 2, 2), 18), ((1, 3, 1), 18), ((2, 4, 2), 16)])
def test_bob_message_classes_match_a_walk_per_block(signature, budget):
    # k = nb reads the whole of Bob's input; k < nb adds every suffix,
    # the zero padding and help strings of hard instances among them
    nb = signature[1]
    trees = [tree for _code, tree in enumerate_signature(*signature, budget, require_one_way=True)]
    assert any(isinstance(t.root, Speak) and tree_has_stuck(t.root) for t in trees)
    for tree in trees:
        for k in range(1, nb + 1):
            for suffix in all_bitstrings(nb - k):
                for l, classes in _classes_by_walk(tree, k, suffix).items():
                    assert _bob_message_classes(tree, k, suffix, l) == classes


def test_bob_message_classes_require_one_way_and_bob_width():
    alice = ProtocolTree(
        1, 1, 1, Speak(ALICE, NodeFunction.const(0), OutputLeaf(OutputFunction.const("0")), StuckLeaf())
    )
    with pytest.raises(UsageError):
        _bob_message_classes(alice, 1, "", 1)
    with pytest.raises(UsageError):
        _bob_message_classes(literal_identity(2), 1, "", 1)


def test_totality_is_semantic():
    # a stuck leaf on an unreachable branch does not break totality
    tree = ProtocolTree(
        1, 1, 1,
        Speak(BOB, NodeFunction.const(0), OutputLeaf(OutputFunction.const("0")), StuckLeaf()),
    )
    assert tree_has_stuck(tree.root)
    assert is_total(tree)
    reachable = ProtocolTree(
        1, 1, 1,
        Speak(BOB, NodeFunction.input_bit(0), OutputLeaf(OutputFunction.const("0")), StuckLeaf()),
    )
    assert not is_total(reachable)


def test_computes_on_and_everywhere():
    f = identity_fn(2)
    tree = literal_identity(2)
    assert computes_everywhere(tree, f)
    assert computes_on(tree, f, "01", "11")
    leaf = ProtocolTree(2, 2, 2, OutputLeaf(OutputFunction.copy_x()))
    assert computes_on(leaf, f, "10", "10")
    assert not computes_on(leaf, f, "10", "01")
    assert not computes_everywhere(leaf, f)


def _answer_cells_by_walk(f, a, b, out):
    """The help-extended cells where output function out announces f, cell by cell."""
    n, nb = f.n, f.n + b
    cells = 0
    for xa, u in enumerate(all_bitstrings(n + a)):
        said = out.evaluate(u, n)
        for yb, v in enumerate(all_bitstrings(nb)):
            if said == f.value(u[:n], v[:n]):
                cells |= 1 << (xa << nb | yb)
    return cells


@pytest.mark.parametrize("n", [1, 2, 3])
def test_answer_cells_match_a_walk_cell_by_cell(n):
    """protocol._answers against evaluate and f.value on every cell.

    The outputs are every form the width-(n + a, n) grammar spells in 10
    bits, and random tables, which are read at Alice's extended width.
    """
    rng = random.Random(4099 + n)
    fns = [
        identity_fn(n),
        equality_fn(n),
        inner_product_fn(n),
        _random_table(rng, n, True),
        _random_table(rng, n, False),
    ]
    for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)):
        m = n + a
        outputs = [out for _code, out in _encodings(_output_rule(m, n).forms, 10)]
        outputs += [
            OutputFunction.from_table("".join(rng.choice("01") for _ in range(n << m)))
            for _ in range(8)
        ]
        assert {out.kind for out in outputs} >= {"const", "table"}
        for f in fns:
            answers = protocol._answers(f, a, b)
            for out in outputs:
                want = _answer_cells_by_walk(f, a, b, out)
                assert answers(out.kind, out.value) == want, (f.name, a, b, out)


# the grid folds against a plain run over every help-extended pair


def _swept(tree, fns, help_bits):
    """is_total, then computes_everywhere per function, from plain runs."""
    a, b = help_bits
    n = tree.out_len
    outcomes = {
        (x, y): [run(tree, x + ha, y + hb) for ha in all_bitstrings(a) for hb in all_bitstrings(b)]
        for x in all_bitstrings(n)
        for y in all_bitstrings(n)
    }
    total = not any(o.is_stuck for runs in outcomes.values() for o in runs)
    everywhere = [
        all(any(o.output == f.value(x, y) for o in runs) for (x, y), runs in outcomes.items())
        for f in fns
    ]
    return total, everywhere


@pytest.mark.parametrize(
    "help_bits,budget", [((0, 0), 18), ((1, 0), 16), ((0, 1), 16), ((1, 1), 16)]
)
def test_grid_folds_match_a_plain_run_sweep(help_bits, budget):
    # no everywhere-correct protocol for identity, eq or ip fits these
    # budgets, so a constant function makes computes_everywhere say yes too
    zero = FunctionSpec("zero", 2, False, (("00",) * 4,) * 4)
    fns = [identity_fn(2), equality_fn(2), inner_product_fn(2), zero]
    spec = HelpSpec(*help_bits)
    totals, everywheres = set(), set()
    for _code, tree in enumerate_signature(2 + help_bits[0], 2 + help_bits[1], 2, budget):
        total, everywhere = _swept(tree, fns, help_bits)
        assert is_total(tree) == total
        assert [computes_everywhere(tree, f, spec) for f in fns] == everywhere
        totals.add(total)
        everywheres.update(everywhere)
    assert totals == everywheres == {False, True}


def test_grid_folds_match_a_plain_run_sweep_at_n5():
    n = 5
    strings = list(all_bitstrings(n))
    f = equality_fn(n)
    low, high = ([s for s in strings if s[0] == c] for c in "01")
    trees = [
        large_rectangle_shortcut(f, rects)
        for rects in (
            [Rectangle(frozenset(low), frozenset(high))],
            [Rectangle(frozenset(low), frozenset(high)), Rectangle(frozenset(high), frozenset(low))],
            [Rectangle(frozenset(["10110"]), frozenset(["10110"]))],
        )
    ]
    stranding = ProtocolTree.symmetric(
        n, Speak(BOB, NodeFunction.input_bit(4), trees[0].root, StuckLeaf())
    )
    fns = [f, inner_product_fn(n)]
    swept = []
    for tree in trees + [stranding]:
        total, everywhere = _swept(tree, fns, (0, 0))
        assert is_total(tree) == total
        assert [computes_everywhere(tree, g) for g in fns] == everywhere
        swept.append((total, everywhere))
    # both verdicts of both folds occur
    assert swept[0] == (True, [True, False])
    assert swept[-1] == (False, [False, False])


def test_transcripts_are_prefix_free():
    # realized conversations of a total protocol form an antichain
    for code, tree in enumerate_signature(1, 1, 1, 15):
        if not is_total(tree):
            continue
        transcripts = {run(tree, x, y).transcript for x in "01" for y in "01"}
        for a in transcripts:
            for b in transcripts:
                assert not (a != b and b.startswith(a)), (code.bits, a, b)


# ---------------------------------------------------------------------------
# costs


def test_cc_on_input():
    f = identity_fn(2)
    tree = literal_identity(2)
    assert cc_on_input(tree, f, "00", "11") == 2
    wrong = ProtocolTree(2, 2, 2, OutputLeaf(OutputFunction.const("00")))
    assert cc_on_input(wrong, f, "00", "00") == 0
    assert cc_on_input(wrong, f, "00", "11") == INF


def test_cc_on_input_shape_check():
    with pytest.raises(UsageError):
        cc_on_input(literal_identity(2), identity_fn(3), "000", "000")


def test_cc_with_help_no_help_matches_plain():
    f = identity_fn(1)
    spec = HelpSpec(0, 0)
    for _code, tree in enumerate_signature(1, 1, 1, 12):
        for x in "01":
            for y in "01":
                assert cc_with_help(tree, f, x, y, spec) == cc_on_input(tree, f, x, y)


def test_cc_with_help_uses_best_help_value():
    f = identity_fn(1)
    # Alice announces her help bit; only the correct value counts
    tree = ProtocolTree(
        2, 1, 1, OutputLeaf(OutputFunction.from_map(2, 1, lambda u: u[1]))
    )
    for x in "01":
        for y in "01":
            assert cc_with_help(tree, f, x, y, HelpSpec(1, 0)) == 0


def test_cc_with_help_shape_check():
    with pytest.raises(UsageError):
        cc_with_help(literal_identity(2), identity_fn(2), "00", "00", HelpSpec(1, 0))


def test_cc_with_help_refuses_an_oversized_help_grid():
    tree = ProtocolTree(21, 1, 1, OutputLeaf(OutputFunction.const("0")))
    with pytest.raises(UsageError):
        cc_with_help(tree, identity_fn(1), "0", "0", HelpSpec(20, 0))


# cc_with_help against a plain walk over every help string


def _walked_cost(tree, want, x, y, help_spec):
    """Least depth of a run on (x, y) that announces want, over every help string."""
    best = INF
    for ha in _HELP_STRINGS[help_spec.alice_bits]:
        xa = x + ha
        for hb in _HELP_STRINGS[help_spec.bob_bits]:
            yb = y + hb
            node, depth = tree.root, 0
            while isinstance(node, Speak):
                bit = node.fn.evaluate(xa if node.owner == ALICE else yb)
                node = node.child1 if bit else node.child0
                depth += 1
            if isinstance(node, OutputLeaf) and node.fn.evaluate(xa, len(x)) == want:
                best = min(best, depth)
    return best


_HELP_STRINGS = {0: [""], 1: ["0", "1"]}
_MODE_SPECS = {"both": HelpSpec(1, 1), "alice-only": HelpSpec(1, 0), "bob-only": HelpSpec(0, 1)}


def test_cc_with_help_matches_a_plain_walk_in_shuffled_order():
    # every tree of (2,2,2,18) and its three totalizer wraps, for identity,
    # eq and ip; each (tree, f, help) case is asked in two runs of 8 pairs
    # and the runs of all cases are shuffled, so the memo misses and hits
    # across trees, functions and help counts
    pairs = [(x, y) for x in all_bitstrings(2) for y in all_bitstrings(2)]
    fns = [identity_fn(2), equality_fn(2), inner_product_fn(2)]
    rng = random.Random(9)
    runs = []
    for _code, tree in enumerate_signature(2, 2, 2, 18):
        for f in fns:
            cases = [(tree, HelpSpec())]
            cases += [(help_bit_totalizer(tree, f, m), s) for m, s in _MODE_SPECS.items()]
            for case in cases:
                order = rng.sample(pairs, len(pairs))
                runs += [(*case, f, order[:8]), (*case, f, order[8:])]
    rng.shuffle(runs)
    costs, wrong = set(), []
    for tree, spec, f, run_pairs in runs:
        for x, y in run_pairs:
            want = _walked_cost(tree, f.value(x, y), x, y, spec)
            if cc_with_help(tree, f, x, y, spec) != want:
                wrong.append((tree, f.name, spec, x, y))
            costs.add(want)
    assert wrong == []
    assert costs == {0, 1, 2, 3, INF}


def test_cc_with_help_after_a_hit_on_another_function_or_an_equal_tree():
    copy_x = OutputLeaf(OutputFunction.copy_x())
    tree = ProtocolTree(2, 2, 2, Speak(BOB, NodeFunction.input_bit(0), StuckLeaf(), copy_x))
    ident, eq = identity_fn(2), equality_fn(2)
    # the same tree, then another f with the same n
    assert cc_with_help(tree, ident, "10", "10") == 1
    assert cc_with_help(tree, eq, "10", "10") == INF
    assert cc_with_help(tree, eq, "00", "10") == 1
    assert cc_with_help(tree, ident, "10", "10") == 1
    # an equal tree that is a distinct object, and an equal f
    twin = ProtocolTree(2, 2, 2, tree.root)
    assert twin == tree and twin is not tree
    assert cc_with_help(twin, identity_fn(2), "11", "11") == 1
    assert cc_with_help(twin, identity_fn(2), "11", "01") == INF
    other = ProtocolTree(2, 2, 2, Speak(BOB, NodeFunction.input_bit(0), copy_x, StuckLeaf()))
    assert cc_with_help(other, ident, "11", "11") == INF
    assert cc_with_help(other, ident, "01", "01") == 1


def test_cc_with_help_checks_every_call_after_a_hit():
    tree = literal_identity(2)
    f = identity_fn(2)
    assert cc_with_help(tree, f, "01", "10") == 2
    for x, y in (("0", "10"), ("01", "102"), ("01", None), ("011", "10")):
        with pytest.raises(ValueError):
            cc_with_help(tree, f, x, y)
    # a shape mismatch on the same tree is refused, not read from the memo
    with pytest.raises(UsageError):
        cc_with_help(tree, f, "01", "10", HelpSpec(1, 0))
    with pytest.raises(UsageError):
        cc_with_help(tree, identity_fn(3), "010", "100")
    assert cc_with_help(tree, f, "01", "10") == 2


def test_cc_with_help_first_call_at_n7_is_one_fold_without_pair_tables():
    f = identity_fn(7)
    wrapped = help_bit_totalizer(literal_identity(7), f, "both")
    spec = HelpSpec(1, 1)
    start = time.perf_counter()
    assert cc_with_help(wrapped, f, "0110101", "1011001", spec) == 8
    assert time.perf_counter() - start < 2
    # a table of every pair's help cells would hold 2^14 masks of 8 KB each
    bob_only = help_bit_totalizer(literal_identity(7), f, "bob-only")
    tracemalloc.start()
    try:
        assert cc_with_help(bob_only, f, "1111111", "0000000", HelpSpec(0, 1)) == 8
        assert computes_everywhere(wrapped, f, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_help_spec_validation():
    with pytest.raises(UsageError):
        HelpSpec(-1, 0)


# ---------------------------------------------------------------------------
# totalizer and value-as-help


@pytest.mark.parametrize("mode", ["both", "alice-only", "bob-only"])
def test_totalizer_bounds_on_sample(mode):
    f = identity_fn(2)
    spec = {
        "both": HelpSpec(1, 1),
        "alice-only": HelpSpec(1, 0),
        "bob-only": HelpSpec(0, 1),
    }[mode]
    partial = ProtocolTree(2, 2, 2, OutputLeaf(OutputFunction.copy_x()))
    wrapped = help_bit_totalizer(partial, f, mode)
    for x in ("00", "01", "10", "11"):
        for y in ("00", "01", "10", "11"):
            base = cc_on_input(partial, f, x, y)
            helped = cc_with_help(wrapped, f, x, y, spec)
            assert helped <= 3
            if base != INF:
                assert helped <= base + 1


@pytest.mark.parametrize("extra", [1, 2])
def test_lift_ignores_trailing_help_bits(extra):
    # every node and output function the width-2 grammar can spell
    leaf = OutputLeaf(OutputFunction.const("00"))
    pairs = [(u, h) for u in all_bitstrings(2) for h in all_bitstrings(extra)]
    for _code, fn in _encodings(_node_rule(2).forms, 7):
        for owner in (ALICE, BOB):
            lifted = _lift(Speak(owner, fn, leaf, leaf), 2, extra, extra)
            ProtocolTree(2 + extra, 2 + extra, 2, lifted)
            assert all(lifted.fn.evaluate(u + h) == fn.evaluate(u) for u, h in pairs)
    for _code, fn in _encodings(_output_rule(2, 2).forms, 10):
        lifted = _lift(OutputLeaf(fn), 2, extra, 0)
        ProtocolTree(2 + extra, 2, 2, lifted)
        assert all(lifted.fn.evaluate(u + h, 2) == fn.evaluate(u, 2) for u, h in pairs)


# SHA-256 of the newline-terminated codes of help_bit_totalizer(tree, f, mode)
# over every tree of (2, 2, 2) up to 14 bits, for identity then equality and
# the modes in order, as built by the earlier per-function lift
_TOTALIZER_HASH = "523ec26d8359e6be789896b2b68f4c9725c6aab334d3bba8a9ddf7457bd9023c"


def test_totalizer_encodings_are_pinned():
    trees = [tree for _code, tree in enumerate_signature(2, 2, 2, 14)]
    digest = hashlib.sha256()
    for f in (identity_fn(2), equality_fn(2)):
        for mode in ("both", "alice-only", "bob-only"):
            for tree in trees:
                digest.update(pdl_encode(help_bit_totalizer(tree, f, mode)).bits.encode() + b"\n")
    assert digest.hexdigest() == _TOTALIZER_HASH


def test_totalizer_mode_validation():
    with pytest.raises(UsageError):
        help_bit_totalizer(literal_identity(2), identity_fn(2), "neither")


# ---------------------------------------------------------------------------
# validate-once wraps and the pair-cell memo


def test_validate_once_wraps_equal_wraps_built_and_walked_in_full(monkeypatch):
    monkeypatch.setattr(protocol, "_proven", {})
    monkeypatch.setattr(protocol, "_last_lift", {})
    fns = (identity_fn(2), equality_fn(2))
    for _code, tree in enumerate_signature(2, 2, 2, 14):
        for f in fns:
            for mode in _MODE_SPECS:
                wrapped = help_bit_totalizer(tree, f, mode)
                with monkeypatch.context() as cleared:
                    cleared.setattr(protocol, "_proven", {})
                    cleared.setattr(protocol, "_last_lift", {})
                    assert help_bit_totalizer(tree, f, mode) == wrapped
                    protocol._proven.clear()
                    ProtocolTree(wrapped.n_alice, wrapped.n_bob, wrapped.out_len, wrapped.root)


def test_a_wrap_walks_only_its_routing_node_once_its_branches_are_proven(monkeypatch):
    monkeypatch.setattr(protocol, "_proven", {})
    monkeypatch.setattr(protocol, "_last_lift", {})
    tree = literal_identity(2)
    help_bit_totalizer(tree, identity_fn(2), "both")
    calls = []
    walk = protocol._validate
    monkeypatch.setattr(
        protocol, "_validate", lambda *args: calls.append(args[1]) or walk(*args)
    )
    # equality shares the lift of the same tree; its default is proven once
    help_bit_totalizer(tree, equality_fn(2), "both")
    calls.clear()
    help_bit_totalizer(tree, equality_fn(2), "both")
    assert calls == [0, 1, 1]


def test_a_proof_is_used_only_at_its_own_widths_and_within_the_cap(monkeypatch):
    monkeypatch.setattr(protocol, "_proven", {})
    leaf = OutputLeaf(OutputFunction.const("00"))
    wide = Speak(ALICE, NodeFunction.from_table("01" * 4), leaf, leaf)  # Alice reads 3 bits
    protocol._prove(wide, 3, 3, 2)
    assert protocol._proven[3, 3, 2][id(wide)] == (wide, 1)
    ProtocolTree(3, 3, 2, Speak(BOB, NodeFunction.const(0), wide, leaf))
    with pytest.raises(UsageError, match="table has 8 entries, expected 4"):
        ProtocolTree(2, 2, 2, Speak(BOB, NodeFunction.const(0), wide, leaf))
    # a node that fails is not remembered, so it fails again where it hangs
    protocol._prove(wide, 2, 2, 2)
    assert id(wide) not in protocol._proven.get((2, 2, 2), {})
    # a proven chain fits at a depth that keeps it within the cap, not below it
    cap = default_depth_cap(1, 1)
    chain = OutputLeaf(OutputFunction.const("1"))
    for _ in range(cap - 1):
        chain = Speak(BOB, NodeFunction.const(1), StuckLeaf(), chain)
    protocol._prove(chain, 1, 1, 1)
    assert protocol._proven[1, 1, 1][id(chain)] == (chain, cap - 1)
    ProtocolTree(1, 1, 1, Speak(ALICE, NodeFunction.const(1), StuckLeaf(), chain))
    deeper = Speak(ALICE, NodeFunction.const(1), StuckLeaf(), chain)
    with pytest.raises(UsageError, match=f"depth cap {cap}"):
        ProtocolTree(1, 1, 1, Speak(ALICE, NodeFunction.const(1), StuckLeaf(), deeper))


def test_the_proof_memo_holds_the_defaults_and_one_trees_lifts(monkeypatch):
    monkeypatch.setattr(protocol, "_proven", {})
    monkeypatch.setattr(protocol, "_last_lift", {})
    fns = (identity_fn(2), equality_fn(2))
    count = 0
    for _code, tree in enumerate_signature(2, 2, 2, 20):
        for f in fns:
            for mode in _MODE_SPECS:
                help_bit_totalizer(tree, f, mode)
        count += 1
    assert count == 11290
    lifts = [entry[2] for entry in protocol._last_lift.values()]
    defaults = [
        protocol._lifted_default(f, spec.alice_bits, spec.bob_bits)
        for f in fns
        for spec in _MODE_SPECS.values()
    ]
    proven = [node for proofs in protocol._proven.values() for node, _height in proofs.values()]
    assert sorted(map(id, proven)) == sorted(map(id, lifts + defaults))


def test_pair_cells_are_checked_on_every_miss_and_refusals_leave_nothing(monkeypatch):
    one, two = identity_fn(1), identity_fn(2)
    small, large = literal_identity(1), literal_identity(2)
    wrapped = help_bit_totalizer(large, two, "both")
    # cache the strings at n = 1 and n = 2, with and without help bits
    assert cc_with_help(small, one, "0", "1") == 1
    assert cc_on_input(large, two, "01", "10") == 2
    assert cc_with_help(wrapped, two, "01", "10", HelpSpec(1, 1)) == 3
    size = protocol._help_cells.cache_info().currsize
    refused = [("0", "1"), ("01", "1"), ("0a", "10"), ("01", "2"), ("01", None), ("011", "10")]
    for x, y in refused:
        for ask in (
            lambda: cc_with_help(large, two, x, y),
            lambda: cc_on_input(large, two, x, y),
            lambda: cc_with_help(wrapped, two, x, y, HelpSpec(1, 1)),
        ):
            with pytest.raises(ValueError):
                ask()
    for x, y in (("01", "10"), ("0", "10"), ("01", "1"), ("2", "0")):
        with pytest.raises(ValueError):
            cc_with_help(small, one, x, y)
    assert protocol._help_cells.cache_info().currsize == size


def test_value_as_help_protocol():
    for f in (equality_fn(2), inner_product_fn(3)):
        tree = value_as_help_protocol(f)
        for v in range(1 << f.n):
            x = format(v, f"0{f.n}b")
            for w in range(1 << f.n):
                y = format(w, f"0{f.n}b")
                assert cc_with_help(tree, f, x, y, HelpSpec(1, 0)) == 0
    with pytest.raises(UsageError):
        value_as_help_protocol(identity_fn(2))
