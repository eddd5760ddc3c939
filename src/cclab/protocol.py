"""Two-party protocols as finite binary trees.

A protocol is a tree of speak nodes, output leaves and stuck leaves.  At a
speak node the owning party applies its next-bit function to its own input
and the resulting bit both extends the transcript and selects the subtree.
At an output leaf Alice announces a value computed from her input alone;
the announcement is free, only speak bits count.  A stuck leaf models a
computation that never answers.

Inputs may have different lengths per party (used for help-extended runs);
the plain case is symmetric with output width equal to the input length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .bits import all_bitstrings, bits_to_int, check_bits, embed_bit, xor_bits
from .errors import UsageError
from .functions import _EXHAUSTIVE_LIMIT, FunctionSpec

__all__ = [
    "ALICE",
    "BOB",
    "NodeFunction",
    "OutputFunction",
    "Speak",
    "OutputLeaf",
    "StuckLeaf",
    "Node",
    "ProtocolTree",
    "RunOutcome",
    "HelpSpec",
    "default_depth_cap",
    "run",
    "bob_message",
    "cc_on_input",
    "is_total",
    "is_one_way",
    "computes_on",
    "computes_everywhere",
    "cc_with_help",
    "help_bit_totalizer",
    "value_as_help_protocol",
    "tree_has_stuck",
    "node_is_one_way",
]

ALICE = "A"
BOB = "B"


@dataclass(frozen=True)
class NodeFunction:
    """Next-bit function of the owning party's input.

    kind is one of "const0", "const1", "bit", "notbit", "table"; "bit" and
    "notbit" read position `index`, "table" stores one output bit per input
    value in ascending lexicographic order.
    """

    kind: str
    index: int = 0
    table: str = ""

    @staticmethod
    def const(b: int) -> "NodeFunction":
        return NodeFunction("const1" if b else "const0")

    @staticmethod
    def input_bit(i: int) -> "NodeFunction":
        return NodeFunction("bit", index=i)

    @staticmethod
    def negated_bit(i: int) -> "NodeFunction":
        return NodeFunction("notbit", index=i)

    @staticmethod
    def from_table(bits: str) -> "NodeFunction":
        return NodeFunction("table", table=check_bits(bits))

    def validate(self, n_input: int) -> None:
        if self.kind in ("const0", "const1"):
            return
        if self.kind in ("bit", "notbit"):
            if not 0 <= self.index < n_input:
                raise UsageError(f"bit index {self.index} out of range for n={n_input}")
            return
        if self.kind == "table":
            if len(self.table) != 1 << n_input:
                raise UsageError(
                    f"table has {len(self.table)} entries, expected {1 << n_input}"
                )
            return
        raise UsageError(f"unknown node function kind {self.kind!r}")

    def evaluate(self, u: str) -> int:
        if self.kind == "const0":
            return 0
        if self.kind == "const1":
            return 1
        if self.kind == "bit":
            return int(u[self.index])
        if self.kind == "notbit":
            return 1 - int(u[self.index])
        return int(self.table[bits_to_int(u)])


@dataclass(frozen=True)
class OutputFunction:
    """Answer announced at a leaf, a pure function of Alice's input.

    kind is "const" (fixed string), "copy_x" (Alice's input verbatim),
    "xor_mask" (Alice's input xor a fixed mask) or "table" (one output
    string per input value, concatenated in order).
    """

    kind: str
    value: str = ""

    @staticmethod
    def const(s: str) -> "OutputFunction":
        return OutputFunction("const", check_bits(s))

    @staticmethod
    def copy_x() -> "OutputFunction":
        return OutputFunction("copy_x")

    @staticmethod
    def xor_mask(mask: str) -> "OutputFunction":
        return OutputFunction("xor_mask", check_bits(mask))

    @staticmethod
    def from_table(concat: str) -> "OutputFunction":
        return OutputFunction("table", check_bits(concat))

    @staticmethod
    def from_map(n_input: int, out_len: int, fn) -> "OutputFunction":
        """Tabulate fn over all inputs of length n_input."""
        parts = []
        for v in range(1 << n_input):
            u = format(v, f"0{n_input}b") if n_input else ""
            parts.append(check_bits(fn(u), out_len))
        return OutputFunction("table", "".join(parts))

    def validate(self, n_input: int, out_len: int) -> None:
        if self.kind == "const":
            if len(self.value) != out_len:
                raise UsageError(f"const output has {len(self.value)} bits, expected {out_len}")
            return
        if self.kind == "copy_x":
            if n_input != out_len:
                raise UsageError("copy_x needs output width equal to Alice's input length")
            return
        if self.kind == "xor_mask":
            if n_input != out_len:
                raise UsageError("xor_mask needs output width equal to Alice's input length")
            if len(self.value) != n_input:
                raise UsageError(f"mask has {len(self.value)} bits, expected {n_input}")
            return
        if self.kind == "table":
            if len(self.value) != out_len * (1 << n_input):
                raise UsageError(
                    f"output table has {len(self.value)} bits, expected {out_len << n_input}"
                )
            return
        raise UsageError(f"unknown output function kind {self.kind!r}")

    def evaluate(self, x: str, out_len: int) -> str:
        if self.kind == "const":
            return self.value
        if self.kind == "copy_x":
            return x
        if self.kind == "xor_mask":
            return xor_bits(x, self.value)
        i = bits_to_int(x)
        return self.value[i * out_len:(i + 1) * out_len]


@dataclass(frozen=True)
class Speak:
    owner: str
    fn: NodeFunction
    child0: "Node"
    child1: "Node"


@dataclass(frozen=True)
class OutputLeaf:
    fn: OutputFunction


@dataclass(frozen=True)
class StuckLeaf:
    pass


Node = Union[Speak, OutputLeaf, StuckLeaf]


def tree_has_stuck(node: Node) -> bool:
    if isinstance(node, StuckLeaf):
        return True
    if isinstance(node, Speak):
        return tree_has_stuck(node.child0) or tree_has_stuck(node.child1)
    return False


def node_is_one_way(node: Node) -> bool:
    """True iff no speak node below (and including) node belongs to Alice."""
    if isinstance(node, Speak):
        if node.owner == ALICE:
            return False
        return node_is_one_way(node.child0) and node_is_one_way(node.child1)
    return True


def default_depth_cap(n_alice: int, n_bob: int) -> int:
    """Walks longer than this count as stuck; protocols must stay within it."""
    return 4 * max(n_alice, n_bob, 1)


@dataclass(frozen=True)
class ProtocolTree:
    """A protocol with declared input lengths and output width.

    The tree is validated on construction: node functions must match the
    owner's input length, output functions the output width, and every
    root-to-leaf path must stay within the depth cap.
    """

    n_alice: int
    n_bob: int
    out_len: int
    root: Node

    def __post_init__(self) -> None:
        if min(self.n_alice, self.n_bob, self.out_len) < 1:
            raise UsageError("input lengths and output width must be positive")
        cap = default_depth_cap(self.n_alice, self.n_bob)
        self._validate(self.root, 0, cap)

    def _validate(self, node: Node, depth: int, cap: int) -> None:
        if depth > cap:
            raise UsageError(f"tree exceeds depth cap {cap}")
        if isinstance(node, Speak):
            if node.owner not in (ALICE, BOB):
                raise UsageError(f"unknown owner {node.owner!r}")
            node.fn.validate(self.n_alice if node.owner == ALICE else self.n_bob)
            self._validate(node.child0, depth + 1, cap)
            self._validate(node.child1, depth + 1, cap)
        elif isinstance(node, OutputLeaf):
            node.fn.validate(self.n_alice, self.out_len)
        elif not isinstance(node, StuckLeaf):
            raise UsageError(f"unknown node {node!r}")

    @classmethod
    def symmetric(cls, n: int, root: Node) -> "ProtocolTree":
        return cls(n, n, n, root)

    @property
    def n(self) -> int:
        if self.n_alice != self.n_bob or self.out_len != self.n_alice:
            raise UsageError("protocol is not symmetric")
        return self.n_alice

    @property
    def is_symmetric(self) -> bool:
        return self.n_alice == self.n_bob == self.out_len

    @property
    def grid_size(self) -> int:
        return 1 << (self.n_alice + self.n_bob)


@dataclass(frozen=True)
class RunOutcome:
    """Transcript plus announced output; output None means the run stuck."""

    transcript: str
    output: str | None

    @property
    def is_stuck(self) -> bool:
        return self.output is None

    @property
    def cost(self) -> int:
        return len(self.transcript)


@dataclass(frozen=True)
class HelpSpec:
    """Counts of helper-provided bits appended to each party's input."""

    alice_bits: int = 0
    bob_bits: int = 0

    def __post_init__(self) -> None:
        if self.alice_bits < 0 or self.bob_bits < 0:
            raise UsageError("help bit counts must be nonnegative")


def _walk(tree: ProtocolTree, x: str, y: str) -> tuple[str, Node]:
    """Bits spoken on (x, y) and the node where the walk ends, unchecked.

    The walk ends at a leaf, or at the speak node it reaches once the depth
    cap is spent; only an output leaf means the run answers.
    """
    cap = default_depth_cap(tree.n_alice, tree.n_bob)
    node = tree.root
    bits = ""
    while isinstance(node, Speak) and len(bits) < cap:
        if node.fn.evaluate(x if node.owner == ALICE else y):
            bits += "1"
            node = node.child1
        else:
            bits += "0"
            node = node.child0
    return bits, node


def run(tree: ProtocolTree, x: str, y: str) -> RunOutcome:
    """Walk the tree on (x, y) and report the transcript and answer."""
    check_bits(x, tree.n_alice)
    check_bits(y, tree.n_bob)
    bits, node = _walk(tree, x, y)
    if isinstance(node, OutputLeaf):
        return RunOutcome(bits, node.fn.evaluate(x, tree.out_len))
    return RunOutcome(bits, None)


def bob_message(tree: ProtocolTree, y: str) -> str | None:
    """Transcript of a one-way protocol, which depends on y alone.

    Returns None when the walk ends at a stuck leaf.
    """
    if not is_one_way(tree):
        raise UsageError("bob_message requires a one-way protocol")
    check_bits(y, tree.n_bob)
    # Alice never speaks in a one-way tree, so her input is never read
    bits, node = _walk(tree, "", y)
    return bits if isinstance(node, OutputLeaf) else None


def cc_on_input(tree: ProtocolTree, f: FunctionSpec, x: str, y: str) -> int | float:
    """Bits spoken on (x, y) when the answer is right, else infinity."""
    return cc_with_help(tree, f, x, y)


def is_one_way(tree: ProtocolTree) -> bool:
    """True iff no speak node anywhere in the tree belongs to Alice."""
    return node_is_one_way(tree.root)


def _check_grid(tree: ProtocolTree) -> None:
    if tree.grid_size > _EXHAUSTIVE_LIMIT:
        raise UsageError("input grid too large for an exhaustive check")


def is_total(tree: ProtocolTree) -> bool:
    """True iff no input pair gets stuck.

    Trees without stuck leaves are total by construction (the depth cap is
    enforced structurally), which also settles trees whose input grid is
    too large to walk exhaustively.
    """
    if not tree_has_stuck(tree.root):
        return True
    _check_grid(tree)
    return all(
        isinstance(_walk(tree, x, y)[1], OutputLeaf)
        for x in all_bitstrings(tree.n_alice)
        for y in all_bitstrings(tree.n_bob)
    )


def computes_on(tree: ProtocolTree, f: FunctionSpec, x: str, y: str) -> bool:
    """True iff the run on (x, y) announces exactly f(x, y)."""
    return cc_with_help(tree, f, x, y) != math.inf


def computes_everywhere(
    tree: ProtocolTree, f: FunctionSpec, help_spec: HelpSpec = HelpSpec()
) -> bool:
    """True iff every input pair has a correct run under some help string.

    Without help bits this means every pair terminates with the right
    answer, so such a tree is also total.
    """
    return all(
        cc_with_help(tree, f, x, y, help_spec) != math.inf
        for x in all_bitstrings(f.n)
        for y in all_bitstrings(f.n)
    )


def cc_with_help(
    tree: ProtocolTree, f: FunctionSpec, x: str, y: str, help_spec: HelpSpec = HelpSpec()
) -> int | float:
    """Cheapest correct run on (x, y) over all help strings appended to the inputs.

    The tree must be declared over the extended lengths (n + alice_bits,
    n + bob_bits) with output width n; the answer is compared against
    f on the base pair.  With no help bits (the default) this is the
    number of bits spoken on (x, y) when the answer is right, else
    infinity.
    """
    if tree.n_alice != f.n + help_spec.alice_bits or tree.n_bob != f.n + help_spec.bob_bits:
        raise UsageError("protocol shape does not match the function and help bits")
    if tree.out_len != f.n:
        raise UsageError("output width must match the base input length")
    _check_grid(tree)
    want = f.value(x, y)
    best: int | float = math.inf
    for ha in all_bitstrings(help_spec.alice_bits):
        xa = x + ha
        for hb in all_bitstrings(help_spec.bob_bits):
            bits, node = _walk(tree, xa, y + hb)
            if (
                len(bits) < best
                and isinstance(node, OutputLeaf)
                and node.fn.evaluate(xa, f.n) == want
            ):
                best = len(bits)
    return best


def _spell_input(owner: str, n: int, leaf, prefix: str = "") -> Node:
    """The owner sends its input bit by bit from position len(prefix) on.

    leaf(u) ends the branch on which the whole input u has been sent.
    """
    if len(prefix) == n:
        return leaf(prefix)
    i = len(prefix)
    return Speak(
        owner,
        NodeFunction.input_bit(i),
        _spell_input(owner, n, leaf, prefix + "0"),
        _spell_input(owner, n, leaf, prefix + "1"),
    )


def _table_answer(f: FunctionSpec):
    """Leaf for Bob spelling out y: Alice answers f(x, y) from a table."""
    n = f.n
    return lambda y: OutputLeaf(OutputFunction.from_map(n, n, lambda u: f.value(u, y)))


def _repeat_cells(cells, extra: int) -> str:
    return "".join(cell * (1 << extra) for cell in cells)


def _lift(node: Node, n: int, extra_alice: int, extra_bob: int) -> Node:
    """The same protocol over inputs extended by trailing help bits it ignores.

    Help bits trail the base input, so in a table over the longer input the
    cell of u + h is the cell of u: a table is lifted by repeating each base
    cell 2^extra times.  Constants, bit reads and constant answers read the
    same on the longer input and pass through unchanged; every other answer
    reads Alice's whole input, so it is tabulated at base width and lifted
    as a table.
    """
    if isinstance(node, Speak):
        extra = extra_alice if node.owner == ALICE else extra_bob
        fn = node.fn
        if extra and fn.kind == "table":
            fn = NodeFunction("table", table=_repeat_cells(fn.table, extra))
        return Speak(
            node.owner,
            fn,
            _lift(node.child0, n, extra_alice, extra_bob),
            _lift(node.child1, n, extra_alice, extra_bob),
        )
    if isinstance(node, OutputLeaf) and extra_alice and node.fn.kind != "const":
        cells = [node.fn.evaluate(u, n) for u in all_bitstrings(n)]
        return OutputLeaf(OutputFunction("table", _repeat_cells(cells, extra_alice)))
    return node


def _totalize(node: Node, filler: Node) -> Node:
    if isinstance(node, StuckLeaf):
        return filler
    if isinstance(node, Speak):
        return Speak(
            node.owner, node.fn, _totalize(node.child0, filler), _totalize(node.child1, filler)
        )
    return node


def help_bit_totalizer(
    tree: ProtocolTree, f: FunctionSpec, mode: str = "both"
) -> ProtocolTree:
    """Wrap a protocol so one help bit makes it total and correct everywhere.

    The helped party's extra bit is spoken first and routes the run: help
    bit 1 replays the wrapped protocol on the base inputs, help bit 0 runs
    a literal-send default that is correct on every pair.  On any pair the
    wrapped protocol answers correctly the wrapper therefore costs at most
    one bit more; elsewhere the default costs n + 1.

    mode selects who receives help: "both" (one bit each), "alice-only",
    or "bob-only".  The routing bit always belongs to a helped party; with
    "alice-only" Alice both holds and resends it, so the wrapper is never
    one-way even if the wrapped protocol was.
    """
    if not tree.is_symmetric or tree.n_alice != f.n:
        raise UsageError("protocol shape does not match the function")
    if mode not in ("both", "alice-only", "bob-only"):
        raise UsageError(f"unknown totalizer mode {mode!r}")
    n = f.n
    extra_alice = 1 if mode in ("both", "alice-only") else 0
    extra_bob = 1 if mode in ("both", "bob-only") else 0
    filler = OutputLeaf(OutputFunction.const("0" * n))
    root = Speak(
        BOB if extra_bob else ALICE,
        NodeFunction.input_bit(n),
        _spell_input(BOB, n, _table_answer(f)),
        _totalize(tree.root, filler),
    )
    return ProtocolTree(n + extra_alice, n + extra_bob, n, _lift(root, n, extra_alice, extra_bob))


def value_as_help_protocol(f: FunctionSpec) -> ProtocolTree:
    """Zero-bit protocol for a truth-valued f: Alice announces her help bit.

    Declared over (n + 1, n) inputs; with the help bit set to the truth
    value of f the announcement is correct on every pair, at cost 0.
    """
    if not f.boolean:
        raise UsageError("value_as_help_protocol needs a truth-valued function")
    n = f.n
    leaf = OutputLeaf(OutputFunction.from_map(n + 1, n, lambda u: embed_bit(int(u[n]), n)))
    return ProtocolTree(n + 1, n, n, leaf)
