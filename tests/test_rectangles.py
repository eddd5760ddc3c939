"""Rectangle partitions, rank certificates, the equality diagonal audit."""

import pytest
from hypothesis import given, settings
from test_codes import _tree_pairs

from cclab import (
    NodeFunction,
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    Rectangle,
    RectangleViolation,
    Speak,
    StuckLeaf,
    UsageError,
    enumerate_signature,
    equality_diagonal_bound,
    equality_fn,
    gf2_rank,
    identity_fn,
    inner_product_fn,
    ip_rectangle_audit,
    large_rectangle_shortcut,
    rectangle_color,
    run,
    transcript_partition,
    tree_has_stuck,
)
from cclab import protocol
from cclab.bits import all_bitstrings
from cclab.constructions import _exchange_tree
from cclab.protocol import BOB
from cclab.reference import (
    alice_sends_x_ip,
    equality_protocols,
    literal_send_protocol,
    zero_indicator_ip,
)


def test_rectangle_helpers():
    rect = Rectangle(frozenset(("00", "01")), frozenset(("10",)))
    assert rect.size == 2


def test_partition_of_literal_send():
    tree = literal_send_protocol(identity_fn(2))
    partition = transcript_partition(tree)
    assert partition.is_total_cover
    assert len(partition.classes) == 4  # one class per column
    for y in ("00", "01", "10", "11"):
        rect = partition.class_of(y)
        assert rect.cols == frozenset((y,))
        assert len(rect.rows) == 4


def test_partition_skips_stuck_pairs():
    tree = ProtocolTree(
        1, 1, 1,
        Speak(BOB, NodeFunction.input_bit(0), StuckLeaf(), OutputLeaf(OutputFunction.const("1"))),
    )
    partition = transcript_partition(tree)
    assert not partition.is_total_cover
    assert partition.covered == {("0", "1"), ("1", "1")}


def test_rectangle_color_and_mono():
    f = equality_fn(2)
    off_diag = Rectangle(frozenset(("00", "01")), frozenset(("10", "11")))
    assert rectangle_color(off_diag, f) == 0
    mixed = Rectangle(frozenset(("00",)), frozenset(("00", "01")))
    assert rectangle_color(mixed, f) is None
    with pytest.raises(UsageError):
        rectangle_color(off_diag, identity_fn(2))


def test_gf2_rank():
    assert gf2_rank([]) == 0
    assert gf2_rank(["0000"]) == 0
    assert gf2_rank(["1000", "0100", "1100"]) == 2
    assert gf2_rank(["101", "011", "110"]) == 2
    assert gf2_rank(["100", "010", "001"]) == 3


def test_ip_audit_reports_bound():
    for n in (2, 3):
        report = ip_rectangle_audit(alice_sends_x_ip(n))
        assert report.bound == 1 << n
        assert report.max_product <= report.bound
        assert all(r.rank_rows + r.rank_cols <= n for r in report.records)
        report = ip_rectangle_audit(zero_indicator_ip(n))
        assert report.max_product <= report.bound


def test_ip_audit_rejects_wrong_protocol():
    with pytest.raises(UsageError):
        ip_rectangle_audit(literal_send_protocol(identity_fn(2)))


def test_equality_diagonal_distinct():
    for n in (2, 3):
        for tree in equality_protocols(n).values():
            report = equality_diagonal_bound(tree)
            assert report.distinct == 1 << n
            assert report.max_length >= n


def test_equality_audit_rejects_wrong_protocol():
    with pytest.raises(UsageError):
        equality_diagonal_bound(literal_send_protocol(identity_fn(2)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_tree_pairs().map(lambda pair: pair[0]))
def test_random_trees_split_their_pairs_into_product_sets(tree):
    # tree pairs from the grammar property, at n = 3-4 per party
    runs = {
        (x, y): run(tree, x, y)
        for x in all_bitstrings(tree.n_alice)
        for y in all_bitstrings(tree.n_bob)
    }
    partition = transcript_partition(tree)
    assert partition.covered == {pair for pair, outcome in runs.items() if not outcome.is_stuck}
    for transcript, rect in partition.classes.items():
        for x in rect.rows:
            for y in rect.cols:
                assert runs[x, y].transcript == transcript and not runs[x, y].is_stuck
    assert sum(rect.size for rect in partition.classes.values()) == len(partition.covered)


def _partition_by_runs(tree):
    """Classes and covered pairs from one run per pair, in the order the grid meets them."""
    groups, covered = {}, set()
    for x in all_bitstrings(tree.n_alice):
        for y in all_bitstrings(tree.n_bob):
            outcome = run(tree, x, y)
            if outcome.is_stuck:
                continue
            covered.add((x, y))
            rows, cols = groups.setdefault(outcome.transcript, (set(), set()))
            rows.add(x)
            cols.add(y)
    return {t: Rectangle(frozenset(r), frozenset(c)) for t, (r, c) in groups.items()}, covered


def _shares_a_branch(node):
    if not isinstance(node, Speak):
        return False
    return node.child0 is node.child1 or _shares_a_branch(node.child0) or _shares_a_branch(node.child1)


def _partition_cases():
    stuck = [tree for _, tree in enumerate_signature(2, 2, 2, 14) if tree_has_stuck(tree.root)]
    yield from stuck[::7]
    eq3 = equality_fn(3)
    yield large_rectangle_shortcut(eq3, [
        Rectangle(frozenset(("000", "001")), frozenset(("110", "111"))),
        Rectangle(frozenset(("100",)), frozenset(("000", "001"))),
    ])
    yield large_rectangle_shortcut(inner_product_fn(3), [
        Rectangle(frozenset(("000", "001")), frozenset(("000", "010", "100", "110"))),
    ])
    # slot 0 asked twice, so Bob's answer prefix 01 is dead and its chain is shared
    shared = ProtocolTree.symmetric(6, _exchange_tree(["00", "01", "10"], [0, 0, 1], 6))
    assert _shares_a_branch(shared.root)
    yield shared


def test_partition_matches_one_run_per_pair():
    cases = list(_partition_cases())
    assert sum(tree_has_stuck(tree.root) for tree in cases) >= 10
    for tree in cases:
        classes, covered = _partition_by_runs(tree)
        partition = transcript_partition(tree)
        assert list(partition.classes.items()) == list(classes.items())
        assert partition.covered == covered
        assert sum(rect.size for rect in classes.values()) == len(covered)


def test_a_fold_that_breaks_the_product_property_is_reported(monkeypatch):
    # the engine is broken on purpose: Bob's bit "reads 1" on the diagonal of
    # the grid, which no function of his input alone can do
    tree = ProtocolTree(
        2, 2, 2,
        Speak(BOB, NodeFunction.input_bit(0), OutputLeaf(OutputFunction.const("00")),
              OutputLeaf(OutputFunction.const("01"))),
    )
    diagonal = sum(1 << (i << 2 | i) for i in range(4))
    monkeypatch.setattr(protocol, "_reads_one", lambda *key: diagonal)
    with pytest.raises(RectangleViolation) as caught:
        transcript_partition(tree)
    # the diagonal leaf, reached on bit 1, misses the off-diagonal pairs,
    # the other leaf the diagonal
    assert caught.value.transcript == "1"
    assert caught.value.witnesses in (
        [("00", "01"), ("00", "10"), ("00", "11"), ("01", "00")],
        [("00", "00"), ("01", "01"), ("10", "10"), ("11", "11")],
    )
