"""Canonical bit codes for protocols and for sets of strings.

Protocol grammar (pre-order, self-delimiting given the input lengths):

    node      = "00" fn subtree subtree     Alice speaks
              | "01" fn subtree subtree     Bob speaks
              | "10" out                    output leaf
              | "11"                        stuck leaf
    fn        = "000" | "001"               constant 0 / constant 1
              | "010" index | "011" index   input bit / negated input bit
              | "100" bits(2^m)             full table, m = owner input length
    index     = ceil(log2 m) bits
    out       = "00" bits(w)                constant string, w = output width
              | "01"                        copy Alice's input
              | "10" bits(m)                Alice's input xor a mask
              | "11" bits(w * 2^m)          full table

This grammar is the spec that the form lists of `_node_rule` and
`_output_rule` implement; the decoder, the encoder and the enumeration all
read those lists.  The encoder emits each function in the shortest form
equal to it, so the canonical code of a tree is minimal for its shape.
Every kind but a table is already shortest (for m >= 1 no constant equals
a bit, negated-bit, copy or xor form, and distinct indices or masks never
coincide); a table, or an all-zero xor mask, is collapsed to the shortest
equal form, and a table over more than 16 input bits is refused.
Protocol complexity is the canonical code length in bits ("PDL bits" in
reports).
An enumeration table (`_enumeration_table`) holds every decodable code of
a signature within a budget and its tree as two parallel tuples, each code
an int behind a leading 1 bit, so numeric order is canonical (length,
bits) order; other modules spell a code only through `_code_bits`.

Set grammar: a leading form tag, then either a per-position template
("0", then 2 bits per position: 00 fixed zero, 01 fixed one, 10 free) or
an explicit list ("1", then the member count minus one in n bits, then the
members in ascending order).  A set's complexity is the shorter applicable
form; at equal length the template wins (its code is lexicographically
smaller).
"""

from __future__ import annotations

import os
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, product
from typing import Any, Callable, NamedTuple

from .bits import (
    _hex_of,
    all_bitstrings,
    bits_from_hex,
    bits_from_int,
    bits_to_int,
    check_bits,
    log2ceil,
)
from .errors import DecodeError, UsageError
from .functions import _check_grid_bits
from .protocol import (
    ALICE,
    BOB,
    Node,
    NodeFunction,
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    Speak,
    StuckLeaf,
    _transcript as _code_bits,  # a table code is held as a path is
    default_depth_cap,
    node_is_one_way,
    tree_has_stuck,
)

__all__ = [
    "DEFAULT_BUDGET_CAP",
    "PdlCode",
    "SdlCode",
    "pdl_encode",
    "pdl_decode",
    "pdl_complexity",
    "enumerate_signature",
    "sdl_encode",
    "sdl_decode",
    "enumerate_sets",
]

# Full enumeration is exponential in the budget; this cap keeps an
# uncontrolled call from wedging the process.  The CLI can raise it
# explicitly via CCLAB_BUDGET_CAP.
DEFAULT_BUDGET_CAP = 20


@dataclass(frozen=True, order=True)
class _Code:
    """A bit code; ordering is canonical (length, then lexicographic)."""

    sort_key: tuple[int, str] = field(init=False, repr=False)
    bits: str

    def __post_init__(self) -> None:
        check_bits(self.bits)
        object.__setattr__(self, "sort_key", (len(self.bits), self.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def hex(self) -> str:
        # the bits were checked on construction
        return _hex_of(self.bits)

    @classmethod
    def from_hex(cls, h: str):
        # bits_from_hex refuses a malformed form and only ever builds a bit
        # string, so the bits are not checked a second time
        bits = bits_from_hex(h)
        code = cls.__new__(cls)
        object.__setattr__(code, "bits", bits)
        object.__setattr__(code, "sort_key", (len(bits), bits))
        return code


class PdlCode(_Code):
    """A protocol code."""


class SdlCode(_Code):
    """A set code; never equal to a protocol code with the same bits."""


# ---------------------------------------------------------------------------
# the forms of the fn and out rules


class _Form(NamedTuple):
    """One alternative of a rule: its selector, then `width` payload bits.

    build makes the function a payload stands for (DecodeError if none);
    payload reads the payload back off a function of this kind (by
    default its stored value, which is the payload of every output kind).
    """

    selector: str
    width: int
    kind: str
    build: Callable[[str], Any]
    payload: Callable[[Any], str] = lambda fn: fn.value


class _Rule:
    """The forms of one rule, by selector and by function kind.

    shorten(fn) is fn in the shortest form equal to it.
    """

    def __init__(self, shorten: Callable[[Any], Any], *forms: _Form):
        self.shorten = shorten
        self.forms = forms
        self.by_selector = {form.selector: form for form in forms}
        self.by_kind = {form.kind: form for form in forms}

    def emit(self, fn) -> str:
        fn = self.shorten(fn)
        form = self.by_kind[fn.kind]
        return form.selector + form.payload(fn)

    def read(self, r: "_Reader"):
        sel = r.take(len(self.forms[0].selector))
        if sel not in self.by_selector:
            raise DecodeError(f"invalid function selector {sel}")
        form = self.by_selector[sel]
        return form.build(r.take(form.width))


@lru_cache(maxsize=64)
def _node_rule(m: int) -> _Rule:
    """The fn rule for a party with an m-bit input."""
    w = log2ceil(m)

    def index(payload: str) -> int:
        i = bits_to_int(payload)
        if i >= m:
            raise DecodeError(f"bit index {i} out of range for m={m}")
        return i

    def shorten(fn: NodeFunction) -> NodeFunction:
        if fn.kind != "table":
            return fn
        _check_grid_bits(m, "table")
        return _short_node_functions(m).get(fn.table, fn)

    no_payload = lambda fn: ""  # noqa: E731
    index_bits = lambda fn: bits_from_int(fn.index, w)  # noqa: E731
    return _Rule(
        shorten,
        _Form("000", 0, "const0", lambda p: NodeFunction.const(0), no_payload),
        _Form("001", 0, "const1", lambda p: NodeFunction.const(1), no_payload),
        _Form("010", w, "bit", lambda p: NodeFunction.input_bit(index(p)), index_bits),
        _Form("011", w, "notbit", lambda p: NodeFunction.negated_bit(index(p)), index_bits),
        _Form("100", 1 << m, "table", NodeFunction.from_table, lambda fn: fn.table),
    )


@lru_cache(maxsize=16)
def _short_node_functions(m: int) -> dict[str, NodeFunction]:
    """Every node function with a shorter code than a table, by truth table."""
    table = _node_rule(m).by_kind["table"]
    shorter = _encodings(_node_rule(m).forms, len(table.selector) + table.width - 1)
    return {"".join(str(fn.evaluate(u)) for u in all_bitstrings(m)): fn for _, fn in shorter}


@lru_cache(maxsize=64)
def _output_rule(m: int, w: int) -> _Rule:
    """The out rule for Alice's m-bit input and a w-bit answer."""
    forms = [_Form("00", w, "const", OutputFunction.const)]
    if m == w:
        forms.append(_Form("01", 0, "copy_x", lambda p: OutputFunction.copy_x()))
        forms.append(_Form("10", m, "xor_mask", OutputFunction.xor_mask))

    def shorten(fn: OutputFunction) -> OutputFunction:
        if fn.kind == "xor_mask" and "1" not in fn.value:
            return OutputFunction.copy_x()
        if fn.kind != "table":
            return fn
        _check_grid_bits(m, "table")
        inputs = list(all_bitstrings(m))
        outputs = [fn.evaluate(u, w) for u in inputs]
        # each other form is pinned down by its answer on the all-zero input
        for form in forms:
            short = form.build(outputs[0][:form.width])
            if all(short.evaluate(u, w) == out for u, out in zip(inputs, outputs)):
                return short
        return fn

    return _Rule(shorten, *forms, _Form("11", w << m, "table", OutputFunction.from_table))


# ---------------------------------------------------------------------------
# protocol encoding


def pdl_encode(tree: ProtocolTree) -> PdlCode:
    """Canonical code of a protocol tree.

    The code is gathered as parts in pre-order and joined once.  A subtree
    that the tree holds more than once (the same node object) is encoded
    once per call: its later occurrences repeat its parts.
    """
    na, nb = tree.n_alice, tree.n_bob
    alice, bob, out = _node_rule(na), _node_rule(nb), _output_rule(na, tree.out_len)
    parts: list[str] = []
    spans: dict[int, tuple[int, int]] = {}  # the tree holds its nodes, so ids are stable

    def encode(node: Node) -> None:
        span = spans.get(id(node))
        if span is not None:
            parts.extend(parts[span[0]:span[1]])
            return
        start = len(parts)
        if isinstance(node, Speak):
            parts.append("00" + alice.emit(node.fn) if node.owner == ALICE else "01" + bob.emit(node.fn))
            encode(node.child0)
            encode(node.child1)
        elif isinstance(node, OutputLeaf):
            parts.append("10" + out.emit(node.fn))
        else:
            parts.append("11")
        spans[id(node)] = start, len(parts)

    encode(tree.root)
    return PdlCode("".join(parts))


def pdl_complexity(tree: ProtocolTree) -> int:
    """Description length of the tree, in PDL bits."""
    return len(pdl_encode(tree))


class _Reader:
    def __init__(self, bits: str):
        self.bits = bits
        self.pos = 0

    def take(self, k: int) -> str:
        if self.pos + k > len(self.bits):
            raise DecodeError("code truncated")
        chunk = self.bits[self.pos:self.pos + k]
        self.pos += k
        return chunk

    def done(self) -> bool:
        return self.pos == len(self.bits)


def _decode_node(r: _Reader, na: int, nb: int, out_len: int, depth: int) -> Node:
    if depth > default_depth_cap(na, nb):
        raise DecodeError("code exceeds the depth cap")
    tag = r.take(2)
    if tag == "11":
        return StuckLeaf()
    if tag == "10":
        return OutputLeaf(_output_rule(na, out_len).read(r))
    fn = _node_rule(na if tag == "00" else nb).read(r)
    child0 = _decode_node(r, na, nb, out_len, depth + 1)
    child1 = _decode_node(r, na, nb, out_len, depth + 1)
    return Speak(ALICE if tag == "00" else BOB, fn, child0, child1)


def decode_signature(code: PdlCode | str, na: int, nb: int, out_len: int) -> ProtocolTree:
    """Decode a code under an explicit (Alice, Bob, output) shape."""
    bits = code.bits if isinstance(code, PdlCode) else check_bits(code)
    r = _Reader(bits)
    root = _decode_node(r, na, nb, out_len, 0)
    if not r.done():
        raise DecodeError("trailing bits after a complete tree")
    return ProtocolTree(na, nb, out_len, root)


def pdl_decode(code: PdlCode | str, n: int) -> ProtocolTree:
    """Decode a code for the symmetric shape with inputs and output n bits."""
    if n < 1:
        raise UsageError("n must be positive")
    return decode_signature(code, n, n, n)


# ---------------------------------------------------------------------------
# protocol enumeration


def _encodings(forms, budget: int) -> list[tuple[str, object]]:
    """Every code of at most `budget` bits under the forms, with its function."""
    out: list[tuple[str, object]] = []
    for form in forms:
        if len(form.selector) + form.width > budget:
            continue
        for tup in product("01", repeat=form.width):
            payload = "".join(tup)
            try:
                out.append((form.selector + payload, form.build(payload)))
            except DecodeError:
                continue
    return out

def _raw_enumeration(na: int, nb: int, out_len: int, budget: int) -> tuple[tuple[int, ...], tuple[Node, ...]]:
    """(codes, roots): every decodable code of length <= budget and its tree, sorted canonically.

    Codes are built by exact length, shortest first: a speak node's code is
    its head and two shorter codes, shifted together, so each code is built
    once, as one node that every longer code holding it shares as a child;
    the heads of one length are paired with each pair of children in turn.
    Codes of one length are distinct ints of one bit length, so each length
    sorts by its codes alone and the lengths are joined in order.
    """
    levels: list[dict[int, Node]] = [{} for _ in range(budget + 1)]  # code -> root, by length
    if budget >= 2:
        levels[2][0b1_11] = StuckLeaf()
    for code, fn in _encodings(_output_rule(na, out_len).forms, budget - 2):
        levels[2 + len(code)][int("1" "10" + code, 2)] = OutputLeaf(fn)
    heads: dict[int, list[tuple[int, str, NodeFunction]]] = {}  # by length
    for tag, owner, m in (("00", ALICE, na), ("01", BOB, nb)):
        for fn_code, fn in _encodings(_node_rule(m).forms, budget - 2 - 4):
            heads.setdefault(2 + len(fn_code), []).append((int("1" + tag + fn_code, 2), owner, fn))
    for length, level in enumerate(levels):
        for head_length, group in heads.items():
            rest = length - head_length
            for length0 in range(2, rest - 1):
                length1 = rest - length0
                # c0 << length1 + c1 carries both leading 1 bits, which the shifted head drops
                drop = (1 << rest) + (1 << length1)
                shifted = [((head << rest) - drop, owner, fn) for head, owner, fn in group]
                for c0, t0 in levels[length0].items():
                    for c1, t1 in levels[length1].items():
                        children = (c0 << length1) + c1
                        for head, owner, fn in shifted:
                            level[head + children] = Speak(owner, fn, t0, t1)
        levels[length] = {code: level[code] for code in sorted(level)}
    return tuple(chain.from_iterable(levels)), tuple(chain.from_iterable(map(dict.values, levels)))


# The largest table built per signature (na, nb, out_len), as (budget,
# codes, roots), most recently used last and oldest dropped past the limit.
_largest_tables: dict = {}
_LARGEST_LIMIT = 64


def _enumeration_table(na: int, nb: int, out_len: int, budget: int) -> tuple[tuple[int, ...], tuple[Node, ...]]:
    """(codes, roots) for every decodable code of at most budget bits, in canonical order.

    codes[i] is the code of the tree roots[i], held as an int behind a
    leading 1 bit (`_code_bits` spells it), so numeric order is canonical
    (length, bits) order and the codes of at most b bits are those below
    1 << (b + 1).  The table of a smaller budget is thus a prefix of a
    larger one's, and index i names the same tree at every budget that
    holds it.  A budget up to the largest built for the signature is served
    as a prefix of that table; a larger one is enumerated and becomes the
    signature's largest.
    """
    signature = na, nb, out_len
    largest = _largest_tables.pop(signature, None)
    if largest is None or largest[0] < budget:
        largest = budget, *_raw_enumeration(na, nb, out_len, budget)
    _largest_tables[signature] = largest
    if len(_largest_tables) > _LARGEST_LIMIT:
        del _largest_tables[next(iter(_largest_tables))]
    _, codes, roots = largest
    size = bisect_left(codes, 1 << (budget + 1))
    return codes[:size], roots[:size]


_HARD_BUDGET_LIMIT = 28
# Hard-instance parameters are bounded before a build or replay does any
# work: a fiber mask holds 2^k bits, and the companion's exchange tree one
# leaf per answer to its 2^(a+b+s) slot queries (65,536 at a+b+s = 4).
_MAX_HARD_K = 16
_MAX_HARD_SLOTS_LOG = 4
# The widest input or output enumerated, that of the widest hard instance:
# 2^(a+b+s) + 1 blocks of k bits plus a help bits.  No budget admits a table
# past 4 input bits, yet the form rules spell a table's 2^m-bit width as an int.
_MAX_ENUMERATION_WIDTH = ((1 << _MAX_HARD_SLOTS_LOG) + 1) * _MAX_HARD_K + _MAX_HARD_SLOTS_LOG
# The largest certificate file read.  Its companion code dominates, in hex:
# the exchange tree's 2^(2^(a+b+s)) Bob leaves, its Alice chain's dead leaves
# and a routing default, each leaf at most 4 + _MAX_ENUMERATION_WIDTH bits and
# each speak node fewer; 64 KiB more covers every other field.
_MAX_CERTIFICATE_BYTES = (
    2 * ((1 << (1 << _MAX_HARD_SLOTS_LOG)) + (1 << _MAX_HARD_SLOTS_LOG) * log2ceil(_MAX_HARD_K) + 1)
    * (4 + _MAX_ENUMERATION_WIDTH) // 4 + (1 << 16)
)
_MAX_SET_N = 4  # set enumeration walks the subset lattice exhaustively
_warned_about_cap = False


def budget_cap() -> int:
    """Effective enumeration cap: CCLAB_BUDGET_CAP when set, else the default.

    Raising the cap past the default is allowed but warned about once per
    process; past the hard limit it is refused outright, since the stream
    roughly doubles with every added bit.
    """
    global _warned_about_cap
    raw = os.environ.get("CCLAB_BUDGET_CAP")
    if raw is None:
        return DEFAULT_BUDGET_CAP
    # ASCII digits only: int() would also read "1_0", "+5" and full-width digits
    if not re.fullmatch(r"-?[0-9]+", raw.strip()):
        raise UsageError(f"CCLAB_BUDGET_CAP must be an integer, got {raw!r}")
    value = int(raw)
    if value < 0:
        raise UsageError("CCLAB_BUDGET_CAP must be nonnegative")
    if value > _HARD_BUDGET_LIMIT:
        raise UsageError(
            f"CCLAB_BUDGET_CAP={value} exceeds the hard limit {_HARD_BUDGET_LIMIT}"
        )
    if value > DEFAULT_BUDGET_CAP and not _warned_about_cap:
        print(
            f"warning: CCLAB_BUDGET_CAP={value} raises the enumeration cap "
            f"above the default {DEFAULT_BUDGET_CAP}",
            file=sys.stderr,
        )
        _warned_about_cap = True
    return value


def _check_budget(budget: int) -> None:
    """Refuse a negative budget, or one past the enumeration cap."""
    if budget < 0:
        raise UsageError(f"budget must be nonnegative, got {budget}")
    limit = budget_cap()
    if budget > limit:
        raise UsageError(
            f"budget {budget} exceeds the enumeration cap {limit}; "
            "set CCLAB_BUDGET_CAP to raise it deliberately"
        )


def enumerate_signature(
    na: int,
    nb: int,
    out_len: int,
    budget: int,
    require_total: bool = False,
    require_one_way: bool = False,
):
    """Canonical enumeration under a protocol shape of widths up to _MAX_ENUMERATION_WIDTH."""
    if min(na, nb, out_len) < 1:
        raise UsageError("input lengths and output width must be positive")
    if max(na, nb, out_len) > _MAX_ENUMERATION_WIDTH:
        raise UsageError(
            f"input lengths and output width must be at most {_MAX_ENUMERATION_WIDTH}, "
            f"got {na}, {nb} and {out_len}"
        )
    _check_budget(budget)
    for code, node in zip(*_enumeration_table(na, nb, out_len, budget)):
        if require_total and tree_has_stuck(node):
            continue
        if require_one_way and not node_is_one_way(node):
            continue
        yield PdlCode(_code_bits(code)), ProtocolTree(na, nb, out_len, node)


# ---------------------------------------------------------------------------
# set encoding


def _template_of(members: frozenset[str], n: int) -> str | None:
    """Per-position pattern when the set is exactly a product set."""
    fixed: list[str] = []
    count = 1
    for i in range(n):
        values = {m[i] for m in members}
        if values == {"0"}:
            fixed.append("00")
        elif values == {"1"}:
            fixed.append("01")
        else:
            fixed.append("10")
            count *= 2
    if count != len(members):
        return None
    return "".join(fixed)


def sdl_encode(members, n: int) -> SdlCode:
    """Canonical (shortest, then lexicographically least) code of a set."""
    members = frozenset(members)
    if not members:
        raise UsageError("the empty set has no code")
    for m in members:
        check_bits(m, n)
    template = _template_of(members, n)
    list_bits = "1" + bits_from_int(len(members) - 1, n) + "".join(sorted(members))
    if template is None or 1 + len(template) > len(list_bits):
        return SdlCode(list_bits)
    return SdlCode("0" + template)


def sdl_decode(code: SdlCode | str, n: int) -> frozenset[str]:
    bits = code.bits if isinstance(code, SdlCode) else check_bits(code)
    r = _Reader(bits)
    form = r.take(1)
    if form == "0":
        positions = []
        for _ in range(n):
            p = r.take(2)
            if p == "11":
                raise DecodeError("invalid template position 11")
            positions.append(p)
        if not r.done():
            raise DecodeError("trailing bits after template")
        members = [""]
        for p in positions:
            if p == "10":
                members = [m + b for m in members for b in "01"]
            else:
                members = [m + ("1" if p == "01" else "0") for m in members]
        return frozenset(members)
    count = bits_to_int(r.take(n)) + 1
    members = frozenset(r.take(n) for _ in range(count))
    if not r.done():
        raise DecodeError("trailing bits after list")
    return members


@lru_cache(maxsize=16)
def _set_table(n: int, budget: int) -> tuple[tuple[SdlCode, frozenset[str]], ...]:
    """(code, set) for every nonempty set whose canonical code fits, in canonical order.

    A canonical code is a list or a template, so only the sets that a list
    of at most (budget - 1 - n) // n members or a template can spell are
    encoded, not every subset.
    """
    universe = list(all_bitstrings(n))
    candidates = {
        frozenset(members)
        for size in range(1, (budget - 1 - n) // n + 1)
        for members in combinations(universe, size)
    }
    candidates.update(
        frozenset(u for u in universe if all(p in ("*", c) for p, c in zip(pattern, u)))
        for pattern in product("01*", repeat=n)
    )
    found: list[tuple[SdlCode, frozenset[str]]] = []
    for members in candidates:
        code = sdl_encode(members, n)
        if len(code) <= budget:
            found.append((code, members))
    found.sort(key=lambda item: item[0].sort_key)
    return tuple(found)


def enumerate_sets(n: int, budget: int):
    """Canonical codes of every describable set within the length budget.

    Yields (code, set) for each distinct nonempty subset whose canonical
    code fits, ordered by (length, code).  n is capped at _MAX_SET_N
    because the subset lattice is walked exhaustively.
    """
    if n < 1 or n > _MAX_SET_N:
        raise UsageError(f"set enumeration supports 1 <= n <= {_MAX_SET_N}")
    _check_budget(budget)
    yield from _set_table(n, budget)
