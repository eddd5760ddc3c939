"""Rectangle partitions, rank certificates, the equality diagonal audit."""

import pytest
from hypothesis import given, settings
from test_codes import _tree_pairs

from cclab import (
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    Rectangle,
    UsageError,
    equality_diagonal_bound,
    equality_fn,
    gf2_rank,
    identity_fn,
    ip_rectangle_audit,
    rectangle_color,
    run,
    transcript_partition,
)
from cclab.bits import all_bitstrings
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
    from cclab import NodeFunction, Speak, StuckLeaf
    from cclab.protocol import BOB

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
