"""Description languages: canonical codes, round trips, enumeration."""

import pytest

from cclab import (
    DecodeError,
    NodeFunction,
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    Speak,
    StuckLeaf,
    UsageError,
    budget_cap,
    bits_from_hex,
    bits_to_hex,
    decode_signature,
    enumerate_sets,
    enumerate_signature,
    load_pdl,
    pdl_complexity,
    pdl_decode,
    pdl_encode,
    save_pdl,
    sdl_complexity,
    sdl_decode,
    sdl_encode,
)
from cclab.protocol import ALICE, BOB


# ---------------------------------------------------------------------------
# bit helpers


def test_hex_round_trip():
    for bits in ("", "0", "1", "0110", "111100001"):
        assert bits_from_hex(bits_to_hex(bits)) == bits


# ---------------------------------------------------------------------------
# protocol codes


def test_canonical_codes_of_tiny_trees():
    stuck = ProtocolTree(2, 2, 2, StuckLeaf())
    assert pdl_encode(stuck).bits == "11"
    copy = ProtocolTree(2, 2, 2, OutputLeaf(OutputFunction.copy_x()))
    assert pdl_encode(copy).bits == "1001"
    const = ProtocolTree(2, 2, 2, OutputLeaf(OutputFunction.const("10")))
    assert pdl_encode(const).bits == "100010"


def test_encoder_recognizes_disguised_functions():
    # a table that is extensionally a constant collapses to the short form
    leaf = ProtocolTree(1, 1, 1, OutputLeaf(OutputFunction.from_table("11")))
    assert pdl_encode(leaf).bits == "10001"
    node = ProtocolTree(
        1, 1, 1,
        Speak(BOB, NodeFunction.from_table("01"), StuckLeaf(), StuckLeaf()),
    )
    # table equal to reading bit 0 collapses to the bit form
    assert "100" not in pdl_encode(node).bits[2:5]


def test_decode_round_trip_all_enumerated():
    for code, tree in enumerate_signature(2, 2, 2, 14):
        again = pdl_encode(tree)
        # canonical re-encoding is idempotent and never longer
        assert len(again.bits) <= len(code.bits)
        assert pdl_encode(pdl_decode(again.bits, 2)).bits == again.bits


def test_decode_errors():
    with pytest.raises(DecodeError):
        pdl_decode("1", 2)  # truncated tag
    with pytest.raises(DecodeError):
        pdl_decode("10", 2)  # missing output selector
    with pytest.raises(DecodeError):
        pdl_decode("100010" + "1", 2)  # junk after a complete tree
    with pytest.raises(DecodeError):
        pdl_decode("1001", 0) if False else pdl_decode("0101011", 2)


def test_structural_encoding_above_the_table_cap():
    n = 30
    leaf = ProtocolTree(n, n, n, OutputLeaf(OutputFunction.copy_x()))
    assert pdl_encode(leaf).bits == "1001"
    tree = ProtocolTree(
        n, n, n,
        Speak(
            ALICE,
            NodeFunction.input_bit(7),
            OutputLeaf(OutputFunction.const("0" * n)),
            OutputLeaf(OutputFunction.xor_mask("1" + "0" * (n - 1))),
        ),
    )
    code = pdl_encode(tree)
    back = decode_signature(code, n, n, n)
    assert pdl_encode(back).bits == code.bits


def test_structural_encoding_rejects_huge_tables():
    n = 17
    fn = OutputFunction.const("0" * n)
    big = ProtocolTree(
        n, n, n,
        Speak(ALICE, NodeFunction.from_table("0" * (1 << n)), OutputLeaf(fn), OutputLeaf(fn)),
    )
    with pytest.raises(UsageError):
        pdl_encode(big)


def test_save_load_round_trip(tmp_path):
    tree = ProtocolTree(2, 2, 2, OutputLeaf(OutputFunction.copy_x()))
    path = tmp_path / "p.pdl"
    save_pdl(tree, path)
    back = load_pdl(path)
    assert pdl_encode(back).bits == "1001"


def test_pdl_complexity_is_code_length():
    tree = ProtocolTree(2, 2, 2, OutputLeaf(OutputFunction.const("00")))
    assert pdl_complexity(tree) == 6


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_are_stable():
    # regression anchors for the canonical streams
    assert sum(1 for _ in enumerate_signature(2, 2, 2, 10)) == 22
    assert sum(1 for _ in enumerate_signature(2, 2, 2, 20)) == 11290
    assert sum(1 for _ in enumerate_signature(3, 3, 3, 18)) == 1938


def test_enumeration_is_sorted_and_decodable():
    last = (0, "")
    for code, tree in enumerate_signature(2, 2, 2, 12):
        assert code.sort_key >= last
        last = code.sort_key
        assert pdl_decode(code.bits, 2).out_len == 2
        assert tree.n_alice == 2


def test_enumeration_filters():
    for _code, tree in enumerate_signature(2, 2, 2, 16, require_total=True):
        assert not any(
            isinstance(node, StuckLeaf) for node in _walk(tree.root)
        )
    from cclab import is_one_way

    for _code, tree in enumerate_signature(2, 2, 2, 16, require_one_way=True):
        assert is_one_way(tree)


def _walk(node):
    yield node
    if hasattr(node, "child0"):
        yield from _walk(node.child0)
        yield from _walk(node.child1)


def test_budget_over_cap_refused():
    with pytest.raises(UsageError):
        list(enumerate_signature(2, 2, 2, budget_cap() + 1))


def test_budget_cap_env_override(monkeypatch):
    monkeypatch.setenv("CCLAB_BUDGET_CAP", "22")
    assert budget_cap() == 22
    monkeypatch.setenv("CCLAB_BUDGET_CAP", "99")
    with pytest.raises(UsageError):
        budget_cap()
    monkeypatch.setenv("CCLAB_BUDGET_CAP", "abc")
    with pytest.raises(UsageError):
        budget_cap()
    monkeypatch.delenv("CCLAB_BUDGET_CAP")
    assert budget_cap() == 20


# ---------------------------------------------------------------------------
# set codes


def test_sdl_round_trip_all_subsets():
    for n in (1, 2, 3):
        universe = [format(v, f"0{n}b") for v in range(1 << n)]
        for mask in range(1, 1 << len(universe)):
            members = frozenset(
                universe[i] for i in range(len(universe)) if mask >> i & 1
            )
            code = sdl_encode(members, n)
            assert sdl_decode(code, n) == members
            assert sdl_complexity(members, n) == len(code.bits)


def test_sdl_prefers_template_for_product_sets():
    # the full universe is a product set: template beats the member list
    everything = frozenset(("00", "01", "10", "11"))
    pair = frozenset(("00", "01"))
    assert sdl_complexity(everything, 2) < sdl_complexity(frozenset(("00", "01", "10")), 2)
    assert sdl_complexity(pair, 2) <= sdl_complexity(frozenset(("00", "11")), 2)


def test_enumerate_sets_distinct_sorted():
    seen = set()
    last = (0, "")
    for code, members in enumerate_sets(2, 20):
        assert members not in seen
        seen.add(members)
        assert code.sort_key >= last
        last = code.sort_key
    # every nonempty subset of the 4-string universe is describable in 20 bits
    assert len(seen) == 15


def test_enumerate_sets_caps_n():
    with pytest.raises(UsageError):
        list(enumerate_sets(5, 10))
