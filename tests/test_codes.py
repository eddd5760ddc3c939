"""Description languages: canonical codes, round trips, enumeration."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import (
    DecodeError,
    NodeFunction,
    OutputFunction,
    OutputLeaf,
    PdlCode,
    ProtocolTree,
    SdlCode,
    Speak,
    StuckLeaf,
    UsageError,
    all_bitstrings,
    budget_cap,
    bits_from_hex,
    bits_to_hex,
    decode_signature,
    enumerate_sets,
    enumerate_signature,
    pdl_complexity,
    pdl_decode,
    pdl_encode,
    sdl_complexity,
    sdl_decode,
    sdl_encode,
)
from cclab.protocol import ALICE, BOB, run


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


# ---------------------------------------------------------------------------
# grammar properties on random trees past the enumerable budget


def _node_table(fn, m):
    return NodeFunction.from_table("".join(str(fn.evaluate(u)) for u in all_bitstrings(m)))


def _output_table(fn, m, w):
    return OutputFunction.from_map(m, w, lambda u: fn.evaluate(u, w))


@st.composite
def _node_fns(draw, m):
    """A node function and an equal one that may be disguised as a table."""
    fn = draw(
        st.one_of(
            st.sampled_from([NodeFunction.const(0), NodeFunction.const(1)]),
            st.integers(0, m - 1).map(NodeFunction.input_bit),
            st.integers(0, m - 1).map(NodeFunction.negated_bit),
            st.text("01", min_size=1 << m, max_size=1 << m).map(NodeFunction.from_table),
        )
    )
    return fn, _node_table(fn, m) if draw(st.booleans()) else fn


@st.composite
def _output_fns(draw, m, w):
    """An output function and an equal one that may be disguised as a table."""
    choices = [
        st.text("01", min_size=w, max_size=w).map(OutputFunction.const),
        st.text("01", min_size=w << m, max_size=w << m).map(OutputFunction.from_table),
    ]
    if m == w:
        choices.append(st.just(OutputFunction.copy_x()))
        choices.append(st.text("01", min_size=m, max_size=m).map(OutputFunction.xor_mask))
    fn = draw(st.one_of(choices))
    return fn, _output_table(fn, m, w) if draw(st.booleans()) else fn


@st.composite
def _tree_pairs(draw):
    """(plain, disguised): one protocol twice, tables standing in for some functions."""
    na, nb = draw(st.integers(3, 4)), draw(st.integers(3, 4))
    w = draw(st.sampled_from([na, 1, 2]))

    def node(depth):
        kind = draw(st.sampled_from(["speak", "speak", "out", "stuck"] if depth < 4 else ["out"]))
        if kind == "stuck":
            return StuckLeaf(), StuckLeaf()
        if kind == "out":
            plain, disguised = draw(_output_fns(na, w))
            return OutputLeaf(plain), OutputLeaf(disguised)
        owner = draw(st.sampled_from([ALICE, BOB]))
        plain, disguised = draw(_node_fns(na if owner == ALICE else nb))
        (p0, d0), (p1, d1) = node(depth + 1), node(depth + 1)
        return Speak(owner, plain, p0, p1), Speak(owner, disguised, d0, d1)

    plain, disguised = node(0)
    return ProtocolTree(na, nb, w, plain), ProtocolTree(na, nb, w, disguised)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_tree_pairs())
def test_random_trees_reencode_to_their_canonical_code(pair):
    plain, disguised = pair
    code = pdl_encode(disguised)
    assert pdl_encode(plain) == code
    back = decode_signature(code, plain.n_alice, plain.n_bob, plain.out_len)
    assert pdl_encode(back) == code
    for x in all_bitstrings(plain.n_alice):
        for y in all_bitstrings(plain.n_bob):
            assert run(back, x, y) == run(plain, x, y)


_SIGNATURES = [(1, 1, 1), (2, 2, 2), (3, 3, 2), (2, 3, 1), (3, 2, 3)]


@st.composite
def _bit_strings(draw):
    """Random strings, and enumerated codes with one bit flipped, cut or added."""
    sig = draw(st.sampled_from(_SIGNATURES))
    if draw(st.booleans()):
        return sig, draw(st.text("01", max_size=80))
    codes = [code.bits for code, _ in enumerate_signature(*sig, 12)]
    bits = draw(st.sampled_from(codes))
    i = draw(st.integers(0, len(bits) - 1))
    edit = draw(st.sampled_from(["flip", "cut", "add"]))
    if edit == "flip":
        return sig, bits[:i] + "10"[int(bits[i])] + bits[i + 1:]
    if edit == "cut":
        return sig, bits[:i] + bits[i + 1:]
    return sig, bits[:i] + draw(st.sampled_from("01")) + bits[i:]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_bit_strings())
def test_random_bits_decode_to_a_tree_or_decode_error(case):
    sig, bits = case
    try:
        tree = decode_signature(bits, *sig)
    except DecodeError:
        return
    assert pdl_encode(tree).bits == bits or len(pdl_encode(tree)) < len(bits)


def test_set_codes_are_not_protocol_codes():
    code = sdl_encode(frozenset({"0"}), 1)
    assert isinstance(code, SdlCode)
    assert code != PdlCode(code.bits)
    with pytest.raises(ValueError):
        decode_signature(code, 1, 1, 1)


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


# SHA-256 of the newline-terminated codes of each canonical stream
_STREAM_HASHES = {
    (1, 1, 1, 20): "4b9f8fd5c8421aa47527363573998533606efe37eb588a26e47d02b8fa75172b",
    (2, 2, 2, 20): "326b4d62068ec38a45d22cdfc1d8fc042f2cefc64f2641503997d5715286886c",
    (3, 3, 2, 20): "d16ce4add5769b0ab7b0b8b09b112932b46262a0f5b68f9a6183f50751e52125",
}


@pytest.mark.parametrize("signature", sorted(_STREAM_HASHES))
def test_enumeration_streams_are_pinned(signature):
    digest = hashlib.sha256()
    for code, _tree in enumerate_signature(*signature):
        digest.update(code.bits.encode() + b"\n")
    assert digest.hexdigest() == _STREAM_HASHES[signature]


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
