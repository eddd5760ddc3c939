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

The encoder always emits the shortest kind that matches the function
extensionally, so the canonical code of a tree is minimal for its shape;
ties cannot arise because equal-length kinds never coincide.  Protocol
complexity is the canonical code length in bits ("PDL bits" in reports).

Set grammar: a leading form tag, then either a per-position template
("0", then 2 bits per position: 00 fixed zero, 01 fixed one, 10 free) or
an explicit list ("1", then the member count minus one in n bits, then the
members in ascending order).  A set's complexity is the shorter applicable
form; at equal length the template wins (its code is lexicographically
smaller).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .bits import (
    bits_from_hex,
    bits_from_int,
    bits_to_hex,
    bits_to_int,
    check_bits,
    log2ceil,
    xor_bits,
)
from .errors import DecodeError, UsageError
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
    node_is_one_way,
    tree_has_stuck,
)

__all__ = [
    "DEFAULT_BUDGET_CAP",
    "PDL_VERSION",
    "PdlCode",
    "SdlCode",
    "pdl_encode",
    "pdl_decode",
    "pdl_complexity",
    "enumerate_signature",
    "save_pdl",
    "load_pdl",
    "sdl_encode",
    "sdl_decode",
    "sdl_complexity",
    "enumerate_sets",
]

# Full enumeration is exponential in the budget; this cap keeps an
# uncontrolled call from wedging the process.  The CLI can raise it
# explicitly via CCLAB_BUDGET_CAP.
DEFAULT_BUDGET_CAP = 20

PDL_VERSION = 1


@dataclass(frozen=True, order=True)
class PdlCode:
    """A protocol code; ordering is canonical (length, then lexicographic)."""

    sort_key: tuple[int, str] = field(init=False, repr=False)
    bits: str

    def __post_init__(self) -> None:
        check_bits(self.bits)
        object.__setattr__(self, "sort_key", (len(self.bits), self.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def hex(self) -> str:
        return bits_to_hex(self.bits)

    @classmethod
    def from_hex(cls, h: str) -> "PdlCode":
        return cls(bits_from_hex(h))


@dataclass(frozen=True, order=True)
class SdlCode:
    """A set code; same canonical ordering as PdlCode."""

    sort_key: tuple[int, str] = field(init=False, repr=False)
    bits: str

    def __post_init__(self) -> None:
        check_bits(self.bits)
        object.__setattr__(self, "sort_key", (len(self.bits), self.bits))

    def __len__(self) -> int:
        return len(self.bits)

    def hex(self) -> str:
        return bits_to_hex(self.bits)


# ---------------------------------------------------------------------------
# protocol encoding


# Above this input width, canonical encoding goes by the stored kind
# instead of tabulating the function over all 2^m inputs.  The two agree:
# for m >= 1 no constant matches a bit, negated-bit, copy or xor form
# extensionally, and distinct indices or masks never coincide.
_ENCODE_EXHAUSTIVE_BITS = 16


def _encode_node_fn_structural(fn: NodeFunction, m: int) -> str:
    if fn.kind == "const0":
        return "000"
    if fn.kind == "const1":
        return "001"
    if fn.kind == "bit":
        return "010" + bits_from_int(fn.index, log2ceil(m))
    if fn.kind == "notbit":
        return "011" + bits_from_int(fn.index, log2ceil(m))
    raise UsageError(f"table function over {m} bits is too large to encode")


def _encode_node_fn(fn: NodeFunction, m: int) -> str:
    if m > _ENCODE_EXHAUSTIVE_BITS:
        return _encode_node_fn_structural(fn, m)
    vector = fn.value_vector(m)
    if vector == "0" * (1 << m):
        return "000"
    if vector == "1" * (1 << m):
        return "001"
    w = log2ceil(m)
    for i in range(m):
        direct = "".join(format(v, f"0{m}b")[i] for v in range(1 << m))
        if vector == direct:
            return "010" + bits_from_int(i, w)
        if vector == "".join("1" if c == "0" else "0" for c in direct):
            return "011" + bits_from_int(i, w)
    return "100" + vector


def _encode_output_fn_structural(fn: OutputFunction, m: int, w: int) -> str:
    if fn.kind == "copy_x":
        return "01"
    if fn.kind == "const":
        return "00" + fn.value
    if fn.kind == "xor_mask":
        if fn.value == "0" * m:
            return "01"
        return "10" + fn.value
    raise UsageError(f"table output over {m} input bits is too large to encode")


def _encode_output_fn(fn: OutputFunction, m: int, w: int) -> str:
    if m > _ENCODE_EXHAUSTIVE_BITS:
        return _encode_output_fn_structural(fn, m, w)
    outputs = [fn.evaluate(format(v, f"0{m}b"), w) for v in range(1 << m)]
    if m == w and all(outputs[v] == format(v, f"0{m}b") for v in range(1 << m)):
        return "01"
    if len(set(outputs)) == 1:
        return "00" + outputs[0]
    if m == w:
        mask = xor_bits(outputs[0], format(0, f"0{m}b"))
        if all(outputs[v] == xor_bits(format(v, f"0{m}b"), mask) for v in range(1 << m)):
            return "10" + mask
    return "11" + "".join(outputs)


def _encode_node(node: Node, na: int, nb: int, out_len: int) -> str:
    if isinstance(node, StuckLeaf):
        return "11"
    if isinstance(node, OutputLeaf):
        return "10" + _encode_output_fn(node.fn, na, out_len)
    m = na if node.owner == ALICE else nb
    tag = "00" if node.owner == ALICE else "01"
    return (
        tag
        + _encode_node_fn(node.fn, m)
        + _encode_node(node.child0, na, nb, out_len)
        + _encode_node(node.child1, na, nb, out_len)
    )


def pdl_encode(tree: ProtocolTree) -> PdlCode:
    """Canonical code of a protocol tree."""
    return PdlCode(_encode_node(tree.root, tree.n_alice, tree.n_bob, tree.out_len))


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


def _decode_node_fn(r: _Reader, m: int) -> NodeFunction:
    sel = r.take(3)
    if sel == "000":
        return NodeFunction.const(0)
    if sel == "001":
        return NodeFunction.const(1)
    if sel in ("010", "011"):
        i = bits_to_int(r.take(log2ceil(m)))
        if i >= m:
            raise DecodeError(f"bit index {i} out of range for m={m}")
        return NodeFunction.input_bit(i) if sel == "010" else NodeFunction.negated_bit(i)
    if sel == "100":
        return NodeFunction.from_table(r.take(1 << m))
    raise DecodeError(f"invalid node function selector {sel}")


def _decode_output_fn(r: _Reader, m: int, w: int) -> OutputFunction:
    sel = r.take(2)
    if sel == "00":
        return OutputFunction.const(r.take(w))
    if sel == "01":
        if m != w:
            raise DecodeError("copy form needs output width equal to Alice's input length")
        return OutputFunction.copy_x()
    if sel == "10":
        if m != w:
            raise DecodeError("xor form needs output width equal to Alice's input length")
        return OutputFunction.xor_mask(r.take(m))
    return OutputFunction.from_table(r.take(w << m))


def _decode_node(r: _Reader, na: int, nb: int, out_len: int, depth: int) -> Node:
    if depth > 4 * max(na, nb):
        raise DecodeError("code exceeds the depth cap")
    tag = r.take(2)
    if tag == "11":
        return StuckLeaf()
    if tag == "10":
        return OutputLeaf(_decode_output_fn(r, na, out_len))
    m = na if tag == "00" else nb
    fn = _decode_node_fn(r, m)
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
# protocol code files


def save_pdl(tree: ProtocolTree, path: str | os.PathLike) -> None:
    """Write a versioned binary code file for the tree."""
    code = pdl_encode(tree)
    bits = code.bits
    payload = bytes(
        int(bits[i:i + 8].ljust(8, "0"), 2) for i in range(0, len(bits), 8)
    ) if bits else b""
    header = bytes([PDL_VERSION])
    header += tree.n_alice.to_bytes(2, "big") + tree.n_bob.to_bytes(2, "big")
    header += tree.out_len.to_bytes(2, "big") + len(bits).to_bytes(4, "big")
    with open(path, "wb") as fh:
        fh.write(header + payload)


def load_pdl(path: str | os.PathLike) -> ProtocolTree:
    """Read a code file back, rejecting unknown grammar versions."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 11:
        raise DecodeError("code file too short")
    if blob[0] != PDL_VERSION:
        raise DecodeError(f"unsupported code file version {blob[0]}")
    na = int.from_bytes(blob[1:3], "big")
    nb = int.from_bytes(blob[3:5], "big")
    out_len = int.from_bytes(blob[5:7], "big")
    bitlen = int.from_bytes(blob[7:11], "big")
    payload = blob[11:]
    if len(payload) != (bitlen + 7) // 8:
        raise DecodeError("code file payload length mismatch")
    bits = "".join(format(b, "08b") for b in payload)[:bitlen]
    return decode_signature(PdlCode(bits), na, nb, out_len)


# ---------------------------------------------------------------------------
# protocol enumeration


def _fn_encodings(m: int, budget: int) -> list[tuple[str, NodeFunction]]:
    """Every valid fn encoding of at most `budget` bits, by code."""
    out: list[tuple[str, NodeFunction]] = []
    if budget >= 3:
        out.append(("000", NodeFunction.const(0)))
        out.append(("001", NodeFunction.const(1)))
    w = log2ceil(m)
    if budget >= 3 + w:
        for i in range(m):
            idx = bits_from_int(i, w)
            out.append(("010" + idx, NodeFunction.input_bit(i)))
            out.append(("011" + idx, NodeFunction.negated_bit(i)))
    if budget >= 3 + (1 << m):
        for tup in product("01", repeat=1 << m):
            bits = "".join(tup)
            out.append(("100" + bits, NodeFunction.from_table(bits)))
    return out


def _out_encodings(m: int, w: int, budget: int) -> list[tuple[str, OutputFunction]]:
    out: list[tuple[str, OutputFunction]] = []
    if budget >= 2 + w:
        for tup in product("01", repeat=w):
            s = "".join(tup)
            out.append(("00" + s, OutputFunction.const(s)))
    if m == w and budget >= 2:
        out.append(("01", OutputFunction.copy_x()))
    if m == w and budget >= 2 + m:
        for tup in product("01", repeat=m):
            s = "".join(tup)
            out.append(("10" + s, OutputFunction.xor_mask(s)))
    payload = w << m
    if budget >= 2 + payload:
        for tup in product("01", repeat=payload):
            s = "".join(tup)
            out.append(("11" + s, OutputFunction.from_table(s)))
    return out


def _raw_enumeration(na: int, nb: int, out_len: int, budget: int) -> list[tuple[str, Node]]:
    """All decodable codes of length <= budget, sorted canonically."""
    cache: dict[int, list[tuple[str, Node]]] = {}

    def gen(b: int) -> list[tuple[str, Node]]:
        if b < 2:
            return []
        hit = cache.get(b)
        if hit is not None:
            return hit
        results: list[tuple[str, Node]] = [("11", StuckLeaf())]
        for code, fn in _out_encodings(na, out_len, b - 2):
            results.append(("10" + code, OutputLeaf(fn)))
        for tag, owner, m in (("00", ALICE, na), ("01", BOB, nb)):
            for fn_code, fn in _fn_encodings(m, b - 2 - 4):
                head = 2 + len(fn_code)
                for c0, t0 in gen(b - head - 2):
                    for c1, t1 in gen(b - head - len(c0)):
                        results.append((tag + fn_code + c0 + c1, Speak(owner, fn, t0, t1)))
        cache[b] = results
        return results

    return sorted(gen(budget), key=lambda item: (len(item[0]), item[0]))


@lru_cache(maxsize=64)
def _enumeration_table(na: int, nb: int, out_len: int, budget: int) -> tuple[tuple[str, Node], ...]:
    return tuple(_raw_enumeration(na, nb, out_len, budget))


_HARD_BUDGET_LIMIT = 28
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
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"CCLAB_BUDGET_CAP must be an integer, got {raw!r}")
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


def enumerate_signature(
    na: int,
    nb: int,
    out_len: int,
    budget: int,
    require_total: bool = False,
    require_one_way: bool = False,
    cap: int | None = None,
):
    """Canonical enumeration under an explicit protocol shape."""
    limit = budget_cap() if cap is None else cap
    if budget > limit:
        raise UsageError(
            f"budget {budget} exceeds the enumeration cap {limit}; "
            "set CCLAB_BUDGET_CAP to raise it deliberately"
        )
    for bits, node in _enumeration_table(na, nb, out_len, budget):
        if require_total and tree_has_stuck(node):
            continue
        if require_one_way and not node_is_one_way(node):
            continue
        yield PdlCode(bits), ProtocolTree(na, nb, out_len, node)


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


def sdl_complexity(members, n: int) -> int:
    """Shortest set-code length for the given nonempty set."""
    members = frozenset(members)
    if not members:
        raise UsageError("the empty set has no code")
    for m in members:
        check_bits(m, n)
    list_len = 1 + n + len(members) * n
    return 1 + 2 * n if _template_of(members, n) is not None else list_len


def sdl_encode(members, n: int) -> SdlCode:
    """Canonical (shortest, then lexicographically least) code of a set."""
    members = frozenset(members)
    if not members:
        raise UsageError("the empty set has no code")
    for m in members:
        check_bits(m, n)
    template = _template_of(members, n)
    list_bits = "1" + bits_from_int(len(members) - 1, n) + "".join(sorted(members))
    if template is None:
        return SdlCode(list_bits)
    template_bits = "0" + template
    if len(template_bits) <= len(list_bits):
        return SdlCode(template_bits)
    return SdlCode(list_bits)


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
    universe = [format(v, f"0{n}b") for v in range(1 << n)]
    found: list[tuple[SdlCode, frozenset[str]]] = []
    for mask in range(1, 1 << len(universe)):
        members = frozenset(universe[i] for i in range(len(universe)) if mask >> i & 1)
        code = sdl_encode(members, n)
        if len(code) <= budget:
            found.append((code, members))
    found.sort(key=lambda item: item[0].sort_key)
    return tuple(found)


def enumerate_sets(n: int, budget: int):
    """Canonical codes of every describable set within the length budget.

    Yields (code, set) for each distinct nonempty subset whose canonical
    code fits, ordered by (length, code).  n is capped at 4 because the
    subset lattice is walked exhaustively.
    """
    if n < 1 or n > 4:
        raise UsageError("set enumeration supports 1 <= n <= 4")
    yield from _set_table(n, budget)
