"""Protocol trees: execution, predicates, help bits."""

import hashlib

import pytest

from cclab import (
    INF,
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
    enumerate_signature,
    equality_fn,
    help_bit_totalizer,
    identity_fn,
    inner_product_fn,
    is_one_way,
    is_total,
    run,
    tree_has_stuck,
    value_as_help_protocol,
)
from cclab.bits import all_bitstrings
from cclab.codes import _encodings, _node_rule, _output_rule, pdl_encode
from cclab.protocol import ALICE, BOB, _lift
from cclab.reference import literal_send_protocol


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
