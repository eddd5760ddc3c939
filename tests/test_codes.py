"""Description languages: canonical codes, round trips, enumeration."""

import bisect
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
    sdl_decode,
    sdl_encode,
)
from cclab import codes
from cclab.codes import _HARD_BUDGET_LIMIT, _code_bits, _enumeration_table, _raw_enumeration, _set_table
from cclab.constructions import _MAX_HARD_K, _MAX_HARD_SLOTS_LOG, _exchange_tree
from cclab.protocol import ALICE, BOB, default_depth_cap, run


# ---------------------------------------------------------------------------
# bit helpers


def test_hex_round_trip():
    for bits in ("", "0", "1", "0110", "111100001"):
        assert bits_from_hex(bits_to_hex(bits)) == bits
    # only the exact form bits_to_hex writes is read back
    for h in (
        "+8:0f", " 8:0f", "8:0f ", "12:f_f", "8:\u0660f", "4:\uff10", "0:0",
        "08:0f", "8:0F", "3:f", "5:f", "4:", ":0", "8", "", None,
    ):
        with pytest.raises(ValueError):
            bits_from_hex(h)


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


def test_enumeration_widths_stop_at_the_widest_hard_instance():
    widest = codes._MAX_ENUMERATION_WIDTH
    assert widest == ((1 << _MAX_HARD_SLOTS_LOG) + 1) * _MAX_HARD_K + _MAX_HARD_SLOTS_LOG == 276
    # the hard-instance shape with every slot bit on Alice's help still enumerates
    trees = [tree for _code, tree in enumerate_signature(widest, widest - 4, widest - 4, 18)]
    assert len(trees) == 1133
    assert any(
        tree.root.owner == ALICE and tree.root.fn == NodeFunction.input_bit(widest - 1)
        for tree in trees
        if isinstance(tree.root, Speak)
    )
    for signature in ((widest + 1, 1, 1), (1, widest + 1, 1), (1, 1, widest + 1)):
        with pytest.raises(UsageError, match=f"must be at most {widest}"):
            next(enumerate_signature(*signature, 0))


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


def test_negative_budget_refused():
    with pytest.raises(UsageError, match="nonnegative"):
        list(enumerate_signature(2, 2, 2, -3))
    with pytest.raises(UsageError, match="nonnegative"):
        list(enumerate_sets(2, -1))


def _depth(node):
    if isinstance(node, Speak):
        return 1 + max(_depth(node.child0), _depth(node.child1))
    return 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scanned_tables_hold_valid_shallow_trees(n):
    # the family scans in complexity read these tables without building a
    # ProtocolTree, so every entry must already be one, within the depth cap;
    # lower budgets are prefixes of the same canonical stream
    for a in (0, 1):
        for b in (0, 1):
            for code, node in zip(*_enumeration_table(n + a, n + b, n, 20)):
                tree = ProtocolTree(n + a, n + b, n, node)
                # each speak node on a path costs at least 2 + 3 bits and its
                # other child at least 2, and the path ends in a 2-bit leaf
                assert len(_code_bits(code)) >= 7 * _depth(tree.root) + 2


@pytest.mark.parametrize("signature", [(1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 4, 3)])
def test_budget_prefixes_equal_fresh_enumerations(signature):
    # a table is served as the prefix of the largest one built for its
    # signature, so both build orders must give every budget's own stream
    fresh = {budget: _raw_enumeration(*signature, budget) for budget in range(21)}
    for budgets in (range(20, -1, -1), range(21)):
        codes._largest_tables.clear()
        for budget in budgets:
            assert _enumeration_table(*signature, budget) == fresh[budget], budget
        assert codes._largest_tables[signature][0] == 20


# the signatures of the benchmark's queries at budget 14, and (2, 2, 2) at 20
_TABLE_KEYS = [(n + a, n + b, n, 14) for n in (1, 2, 3) for a in (0, 1) for b in (0, 1)] + [(2, 2, 2, 20)]


@pytest.mark.parametrize("key", _TABLE_KEYS, ids=str)
def test_table_codes_spell_their_roots_in_canonical_order(key):
    *signature, budget = key
    codes._largest_tables.clear()
    table_codes, roots = _enumeration_table(*signature, budget)
    spelled = [_code_bits(code) for code in table_codes]
    # a decodable code need not be canonical: "10" "10" "0", an all-zero xor mask, is copy_x
    assert [decode_signature(bits, *signature).root for bits in spelled] == list(roots)
    assert all(len(pdl_encode(ProtocolTree(*signature, root))) <= len(bits) for bits, root in zip(spelled, roots))
    assert all((len(a), a) < (len(b), b) for a, b in zip(spelled, spelled[1:]))
    for smaller in range(budget):
        small_codes, small_roots = _enumeration_table(*signature, smaller)
        size = sum(len(bits) <= smaller for bits in spelled)
        assert small_codes == table_codes[:size] and small_roots == roots[:size], smaller


def test_largest_tables_hold_int_codes_beside_their_roots():
    codes._largest_tables.clear()
    _enumeration_table(2, 2, 2, 16)
    budget, table_codes, roots = codes._largest_tables[2, 2, 2]
    assert budget == 16 and type(table_codes) is tuple and type(roots) is tuple
    assert len(table_codes) == len(roots) == 826
    assert all(type(code) is int for code in table_codes)
    assert all(type(root) in (Speak, OutputLeaf, StuckLeaf) for root in roots)


@pytest.mark.parametrize("signature", [(2, 2, 2), (3, 3, 2)])
def test_each_code_is_one_node_shared_wherever_it_is_a_child(signature):
    table_codes, roots = _raw_enumeration(*signature, 16)
    reached = {}
    todo = list(roots)
    while todo:
        node = todo.pop()
        if id(node) not in reached:
            reached[id(node)] = node
            if isinstance(node, Speak):
                todo += [node.child0, node.child1]
    assert len(reached) == len(roots)
    for code, node in zip(table_codes, roots):
        assert decode_signature(_code_bits(code), *signature).root == node


def test_depth_bound_stays_below_every_depth_cap():
    deepest = (_HARD_BUDGET_LIMIT - 2) // 7
    assert deepest == 3
    assert deepest < default_depth_cap(1, 1) == 4


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
            assert len(sdl_encode(members, n).bits) == len(code.bits)


def test_sdl_prefers_template_for_product_sets():
    # the full universe is a product set: template beats the member list
    everything = frozenset(("00", "01", "10", "11"))
    pair = frozenset(("00", "01"))
    three, diagonal = frozenset(("00", "01", "10")), frozenset(("00", "11"))
    assert len(sdl_encode(everything, 2).bits) < len(sdl_encode(three, 2).bits)
    assert len(sdl_encode(pair, 2).bits) <= len(sdl_encode(diagonal, 2).bits)


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


def test_set_tables_equal_an_all_subsets_walk():
    # the table encodes only the sets a short list or a template can spell;
    # every subset's own code decides which sets fit each budget
    for n in (1, 2, 3, 4):
        universe = list(all_bitstrings(n))
        every = sorted(
            (
                (sdl_encode(members, n), members)
                for members in (
                    frozenset(u for i, u in enumerate(universe) if mask >> i & 1)
                    for mask in range(1, 1 << len(universe))
                )
            ),
            key=lambda item: item[0].sort_key,
        )
        lengths = [len(code) for code, _ in every]
        for budget in range(21):
            fits = bisect.bisect_right(lengths, budget)
            assert _set_table(n, budget) == tuple(every[:fits]), (n, budget)


def test_enumerate_sets_caps_n():
    with pytest.raises(UsageError):
        list(enumerate_sets(5, 10))


def _unshared(node):
    """A copy of the tree in which no node object appears twice."""
    if isinstance(node, Speak):
        return Speak(node.owner, node.fn, _unshared(node.child0), _unshared(node.child1))
    return OutputLeaf(node.fn) if isinstance(node, OutputLeaf) else StuckLeaf()


def test_shared_subtrees_encode_like_their_unshared_copy():
    stuck = StuckLeaf()
    inner = Speak(BOB, NodeFunction.input_bit(1), stuck, OutputLeaf(OutputFunction.copy_x()))
    # inner sits at depths 1 and 2, stuck in four places
    hand = ProtocolTree.symmetric(2, Speak(
        ALICE, NodeFunction.from_table("0110"), inner,
        Speak(BOB, NodeFunction.negated_bit(0), inner, stuck),
    ))
    exchange = ProtocolTree.symmetric(6, _exchange_tree(["00", "01", "10"], [0, 0, 1], 6))
    for tree in (hand, exchange):
        copy = ProtocolTree(tree.n_alice, tree.n_bob, tree.out_len, _unshared(tree.root))
        code = pdl_encode(tree)
        assert code == pdl_encode(copy)
        assert pdl_decode(code, tree.n) == copy == tree
