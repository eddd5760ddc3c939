"""Two-party protocols as finite binary trees.

A protocol is a tree of speak nodes, output leaves and stuck leaves.  At a
speak node the owning party applies its next-bit function to its own input
and the resulting bit both extends the transcript and selects the subtree.
At an output leaf Alice announces a value computed from her input alone;
the announcement is free, only speak bits count.  A stuck leaf models a
computation that never answers.

Inputs may have different lengths per party (used for help-extended runs);
the plain case is symmetric with output width equal to the input length.

A single pair is walked from the root by `run`.  Every other question is
one fold of integer masks (`_leaf_masks`): each speak node splits the
inputs that reach it by where its function reads 1, and every leaf ends up
with the inputs that reach it, which form a rectangle, and its transcript.
The fold reads two input domains:

- the grid, where cell xa << nb | yb stands for Alice's input xa and Bob's
  input yb (`is_total`, `computes_everywhere`, the transcript classes of
  `rectangles.transcript_partition`, the family scans in `complexity`,
  which fold each tree of the total-and-correct family once into the
  per-depth correct cells of `_correct_by_depth` and keep them, and
  `cc_with_help`, which folds a tree once and then answers each pair by
  a mask test);
- the blocks of a one-way tree, a grid of one row whose column z stands
  for Bob's input made of the k-bit block z and a fixed suffix, split
  into classes by Bob's message (`_bob_message_classes`: the hard-instance
  fibers, and the message lengths of identity senders).

`cc_with_help` looks each pair's cells up in a memo instead of parsing the
strings again, and `_pairs_within` slides every depth of the fold over the
help shifts at once, so a law over all pairs (the `helpbits` suite's
totalizer bound) is checked on masks in one pass per tree.

Every tree is validated on construction, but a subtree already proven at
the same widths (`_prove`) is not walked again where its height keeps it
within the depth cap, and a speak node whose two children are one object
(the shared dead chains of the index-exchange companion) walks that child
once.  The literal-send default is built once per function
(`_literal_send`) and shared by every protocol that holds it.
`help_bit_totalizer` proves its lift once per function and mode, and the
lift of the wrapped protocol once per protocol and mode, shared by every
function asked about that protocol; only the last protocol's lifts are
kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .bits import all_bitstrings, bits_to_int, check_bits, embed_bit, xor_bits
from .errors import UsageError
from .functions import FunctionSpec, _check_grid_bits

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

    def evaluate_all(self, width: int, out_len: int) -> list[str]:
        """evaluate on every width-bit input, in order; a table is read entry by entry."""
        if self.kind == "table":
            return [self.value[i:i + out_len] for i in range(0, out_len << width, out_len)]
        return [self.evaluate(x, out_len) for x in all_bitstrings(width)]


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


# Subtrees already validated, per widths: (n_alice, n_bob, out_len) ->
# {id(node): (node, height)}.  Holding the node means a recycled id cannot
# give a false hit.  Only `_prove` fills it, and it stays small: the
# totalizer's defaults and the last tree's lifts (`_shared_lift`), oldest
# dropped past the limit.  Trees of widths with no proofs look nothing up.
_proven: dict = {}
_PROVEN_LIMIT = 64


def _validate(node: Node, depth: int, cap: int, widths: tuple, proven) -> None:
    """Check the subtree reached at depth against the widths and the depth cap.

    A subtree in proven, the proofs at exactly these widths, is skipped
    when its height keeps it within the cap.  Everything else, every
    failure included, is walked in full, so the error raised is the one a
    full walk meets first.
    """
    if proven is not None:
        hit = proven.get(id(node))
        if hit is not None and hit[0] is node and depth + hit[1] <= cap:
            return
    if depth > cap:
        raise UsageError(f"tree exceeds depth cap {cap}")
    if isinstance(node, Speak):
        if node.owner not in (ALICE, BOB):
            raise UsageError(f"unknown owner {node.owner!r}")
        node.fn.validate(widths[0] if node.owner == ALICE else widths[1])
        _validate(node.child0, depth + 1, cap, widths, proven)
        if node.child1 is not node.child0:  # a shared child passes at the same depth
            _validate(node.child1, depth + 1, cap, widths, proven)
    elif isinstance(node, OutputLeaf):
        node.fn.validate(widths[0], widths[2])
    elif not isinstance(node, StuckLeaf):
        raise UsageError(f"unknown node {node!r}")


def _height(node: Node) -> int:
    if isinstance(node, Speak):
        return 1 + max(_height(node.child0), _height(node.child1))
    return 0


def _prove(node: Node, n_alice: int, n_bob: int, out_len: int) -> None:
    """Validate node once as a tree of these widths and remember its height.

    A node that fails is not remembered: the tree that holds it then walks
    it in full and raises there.
    """
    widths = (n_alice, n_bob, out_len)
    proven = _proven.setdefault(widths, {})
    hit = proven.get(id(node))
    if hit is not None and hit[0] is node:
        return
    try:
        _validate(node, 0, default_depth_cap(n_alice, n_bob), widths, proven)
    except UsageError:
        return
    if len(proven) >= _PROVEN_LIMIT:
        del proven[next(iter(proven))]
    proven[id(node)] = node, _height(node)


@dataclass(frozen=True)
class ProtocolTree:
    """A protocol with declared input lengths and output width.

    The tree is validated on construction: node functions must match the
    owner's input length, output functions the output width, and every
    root-to-leaf path must stay within the depth cap.  Subtrees proven at
    the same widths are not walked again (`_validate`).
    """

    n_alice: int
    n_bob: int
    out_len: int
    root: Node

    def __post_init__(self) -> None:
        if min(self.n_alice, self.n_bob, self.out_len) < 1:
            raise UsageError("input lengths and output width must be positive")
        cap = default_depth_cap(self.n_alice, self.n_bob)
        widths = (self.n_alice, self.n_bob, self.out_len)
        _validate(self.root, 0, cap, widths, _proven.get(widths))

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
    """Bits spoken on (x, y) and the leaf where the walk ends, unchecked.

    ProtocolTree refuses trees deeper than the depth cap, so every walk
    ends at a leaf within it; only an output leaf means the run answers.
    """
    node = tree.root
    bits = ""
    while isinstance(node, Speak):
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
    _check_grid_bits(tree.n_alice + tree.n_bob)


def _check_help_shape(tree: ProtocolTree, f: FunctionSpec, help_spec: HelpSpec) -> None:
    if tree.n_alice != f.n + help_spec.alice_bits or tree.n_bob != f.n + help_spec.bob_bits:
        raise UsageError("protocol shape does not match the function and help bits")
    if tree.out_len != f.n:
        raise UsageError("output width must match the base input length")


@lru_cache(maxsize=8192)
def _reads_one(owner: str, kind: str, index: int, table: str, na: int, nb: int, suffix: str) -> int:
    """Cells of the (na, nb) grid where a node function of the owner's input reads 1.

    Bob's input is his nb bits followed by suffix.  Keyed by the
    function's fields, which hash faster than the function.
    """
    fn = NodeFunction(kind, index, table)
    if owner == ALICE:
        row = (1 << (1 << nb)) - 1
        return sum(row << (xa << nb) for xa, u in enumerate(all_bitstrings(na)) if fn.evaluate(u))
    column = sum(1 << yb for yb, u in enumerate(all_bitstrings(nb)) if fn.evaluate(u + suffix))
    return column * sum(1 << (xa << nb) for xa in range(1 << na))


def _leaf_masks(
    node: Node, na: int, nb: int, cells: int | None = None, suffix: str = ""
) -> list[tuple[int, int, Node]]:
    """(cells, path, leaf) for every leaf that the given cells reach.

    Cell xa << nb | yb is the run on Alice's input xa and Bob's input yb,
    read as integers, where Bob's input is his nb bits followed by suffix;
    help bits trail the base input as in `_lift`, and the cells default to
    the whole (na, nb) grid.  path is the leaf's transcript as an integer
    behind a leading 1 bit, so its depth is path.bit_length() - 1
    (`_transcript` spells it).
    """
    leaves = []
    todo = [(node, (1 << (1 << (na + nb))) - 1 if cells is None else cells, 1)]
    while todo:
        node, cells, path = todo.pop()
        while type(node) is Speak:
            fn = node.fn
            ones = cells & _reads_one(node.owner, fn.kind, fn.index, fn.table, na, nb, suffix)
            path <<= 1
            if not ones:
                node = node.child0
            elif ones == cells:
                node, path = node.child1, path | 1
            else:
                todo.append((node.child0, cells ^ ones, path))
                node, cells, path = node.child1, ones, path | 1
        leaves.append((cells, path, node))
    return leaves


def _transcript(path: int) -> str:
    """The bits spoken on the way to a leaf of `_leaf_masks`, from its path."""
    return format(path, "b")[1:]


def _bob_message_classes(tree: ProtocolTree, k: int, suffix: str, l: int) -> dict:
    """`bob_message` on z + suffix for every k-bit block z, shorter than l bits.

    Returns {message: blocks}, where bit z of blocks is set for each block
    value z whose run sends that message.  The message is None, the
    infinity marker, where the run ends at a stuck leaf or speaks l bits.
    Read from one `_leaf_masks` fold over a grid of one row whose columns
    are the blocks, so no block is walked on its own.
    """
    if not is_one_way(tree):
        raise UsageError("bob_message requires a one-way protocol")
    if k + len(check_bits(suffix)) != tree.n_bob:
        raise UsageError(f"a {k}-bit block and the suffix do not make Bob's {tree.n_bob} bits")
    classes: dict = {}
    for blocks, path, leaf in _leaf_masks(tree.root, 0, k, suffix=suffix):
        message = _transcript(path)
        if type(leaf) is not OutputLeaf or len(message) >= l:
            message = None
        classes[message] = classes.get(message, 0) | blocks
    return classes


@lru_cache(maxsize=64)
def _help_block(alice_bits: int, bob_bits: int, nb: int) -> int:
    """The help-extended cells of base pair (0, 0) in a grid of nb-bit columns."""
    rows = sum(1 << (ha << nb) for ha in range(1 << alice_bits))
    return rows * ((1 << (1 << bob_bits)) - 1)


@lru_cache(maxsize=256)
def _help_cells(n: int, alice_bits: int, bob_bits: int, x: str, y: str) -> int:
    """The help-extended cells of base pair (x, y), which are checked here.

    Help bits trail the base input, so these are the cells of (0, 0)
    shifted to the pair's corner; no table over every pair is built.
    Callers ask about the same few pairs over and over, so the answers are
    memoized; a refused pair raises and leaves nothing behind.
    """
    nb = n + bob_bits
    corner = int(check_bits(x, n), 2) << alice_bits + nb | int(check_bits(y, n), 2) << bob_bits
    return _help_block(alice_bits, bob_bits, nb) << corner


@lru_cache(maxsize=64)
def _base_cells(n: int, alice_bits: int, bob_bits: int) -> int:
    """The cell of every base pair with both help strings all zero."""
    rows = sum(1 << (x << alice_bits + n + bob_bits) for x in range(1 << n))
    return rows * sum(1 << (y << bob_bits) for y in range(1 << n))


@lru_cache(maxsize=64)
def _answers(f: FunctionSpec, alice_bits: int, bob_bits: int):
    """The help-extended cells where an output function announces f on the base pair.

    The returned lookup takes the output function's kind and value.
    """
    n = f.n
    nb = n + bob_bits
    block = (1 << (1 << bob_bits)) - 1
    # rows[x][v]: the cells of one extended row of x whose base column y has f(x, y) == v
    rows = []
    for cells_row in f.cells:
        row: dict[str, int] = {}
        for j, v in enumerate(cells_row):
            row[v] = row.get(v, 0) | block << (j << bob_bits)
        if f.boolean:
            row = {embed_bit(int(v), n): cells for v, cells in row.items()}
        rows.append(row)

    @lru_cache(maxsize=1024)
    def cells(kind: str, value: str) -> int:
        outputs = OutputFunction(kind, value).evaluate_all(n + alice_bits, n)
        return sum(rows[xa >> alice_bits].get(v, 0) << (xa << nb) for xa, v in enumerate(outputs))

    return cells


def _no_stuck(leaves) -> bool:
    return all(type(leaf) is not StuckLeaf for _, _, leaf in leaves)


def _answers_every_pair(leaves, f: FunctionSpec, help_spec: HelpSpec) -> bool:
    """True iff every base pair has a help-extended cell whose leaf answers f."""
    a, b = help_spec.alice_bits, help_spec.bob_bits
    answers = _answers(f, a, b)
    correct = 0
    for cells, _, leaf in leaves:
        if type(leaf) is OutputLeaf:
            correct |= cells & answers(leaf.fn.kind, leaf.fn.value)
    return _slid_onto_pairs(correct, f.n, a, b) == _base_cells(f.n, a, b)


def _slid_onto_pairs(cells: int, n: int, alice_bits: int, bob_bits: int) -> int:
    """The base cells of the pairs that have a cell in cells under some help string.

    Each help string's cells are slid onto the pairs' all-zero help cells;
    without help bits each pair is one cell.  A tree computes f everywhere
    iff the OR of this over its leaves' correct cells holds every base pair.
    """
    if not (alice_bits or bob_bits):
        return cells
    nb = n + bob_bits
    reached = 0
    for ha in range(1 << alice_bits):
        for hb in range(1 << bob_bits):
            reached |= cells >> (ha << nb | hb)
    return reached & _base_cells(n, alice_bits, bob_bits)


@lru_cache(maxsize=4096)
def _plain_pairs(cells: int, n: int, alice_bits: int, bob_bits: int) -> int:
    """The pairs whose base cell is in cells, as bit x << n | y of the plain grid.

    A change of coordinates, keyed by the mask: the few masks a family of
    trees produces are each translated once.
    """
    if not (alice_bits or bob_bits):
        return cells
    row = alice_bits + n + bob_bits
    return sum(
        1 << (x << n | y)
        for x in range(1 << n)
        for y in range(1 << n)
        if cells >> (x << row | y << bob_bits) & 1
    )


def is_total(tree: ProtocolTree) -> bool:
    """True iff no input pair gets stuck.

    Every walk ends at a leaf, so trees without stuck leaves are total by
    construction, which also settles trees whose input grid is too large
    to walk exhaustively.
    """
    if not tree_has_stuck(tree.root):
        return True
    _check_grid(tree)
    return _no_stuck(_leaf_masks(tree.root, tree.n_alice, tree.n_bob))


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
    _check_help_shape(tree, f, help_spec)
    _check_grid(tree)
    return _answers_every_pair(_leaf_masks(tree.root, tree.n_alice, tree.n_bob), f, help_spec)


# The fold for the last (tree, f, help counts) that cc_with_help saw:
# callers ask about every pair of one tree before moving on.  It caches a
# pure result, so it changes no answer.  Trees are frozen and the slot
# holds them, so an identity hit cannot be a recycled id.
_last_fold: list = [None, None, (), ()]


def _correct_at(tree: ProtocolTree, f: FunctionSpec, help_spec: HelpSpec) -> tuple:
    """(depth, cells) for every depth whose output leaves answer f on some cell.

    Ascending by depth, nonempty cells only.  One grid fold per (tree, f,
    help counts), held in a one-slot memo; the checks that read only that
    key run on a miss.
    """
    a, b = help_spec.alice_bits, help_spec.bob_bits
    last_tree, last_f, last_help, correct_at = _last_fold
    if tree is last_tree and (f is last_f or f == last_f) and (a, b) == last_help:
        return correct_at
    _check_help_shape(tree, f, help_spec)
    _check_grid(tree)
    leaves = _leaf_masks(tree.root, tree.n_alice, tree.n_bob)
    correct_at = _correct_by_depth(leaves, _answers(f, a, b))
    _last_fold[:] = tree, f, (a, b), correct_at
    return correct_at


def _correct_by_depth(leaves, answers) -> tuple:
    """(depth, cells) for every depth whose output leaves answer on some cell.

    Ascending by depth, nonempty cells only; answers is an `_answers` lookup.
    """
    by_depth: dict[int, int] = {}
    for cells, path, leaf in leaves:
        if type(leaf) is OutputLeaf:
            hit = cells & answers(leaf.fn.kind, leaf.fn.value)
            if hit:
                depth = path.bit_length() - 1
                by_depth[depth] = by_depth.get(depth, 0) | hit
    return tuple(sorted(by_depth.items()))


def cc_with_help(
    tree: ProtocolTree, f: FunctionSpec, x: str, y: str, help_spec: HelpSpec = HelpSpec()
) -> int | float:
    """Cheapest correct run on (x, y) over all help strings appended to the inputs.

    The tree must be declared over the extended lengths (n + alice_bits,
    n + bob_bits) with output width n; the answer is compared against
    f on the base pair.  With no help bits (the default) this is the
    number of bits spoken on (x, y) when the answer is right, else
    infinity.  It is the least depth whose correct cells meet the pair's
    help cells.
    """
    correct_at = _correct_at(tree, f, help_spec)
    pair = _help_cells(f.n, help_spec.alice_bits, help_spec.bob_bits, x, y)
    for depth, cells in correct_at:
        if cells & pair:
            return depth
    return math.inf


def _pairs_within(tree: ProtocolTree, f: FunctionSpec, help_spec: HelpSpec, most: int) -> list:
    """within[t] for t = 0 .. most: the base pairs whose `cc_with_help` is at most t.

    Pair (x, y) is bit x << n | y, whatever the help counts.  Read from the
    one fold of `_correct_at`: each depth's correct cells are slid over the
    help shifts onto the base cells, so no pair is asked on its own.
    """
    a, b = help_spec.alice_bits, help_spec.bob_bits
    within = [0] * (most + 1)
    reached = 0
    for depth, cells in _correct_at(tree, f, help_spec):
        if depth > most:
            break
        reached |= _slid_onto_pairs(cells, f.n, a, b)
        within[depth:] = [_plain_pairs(reached, f.n, a, b)] * (most + 1 - depth)
    return within


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


@lru_cache(maxsize=32)
def _literal_send(f: FunctionSpec) -> Node:
    """Bob spells out y and Alice answers f(x, y) from a table, built once per f.

    Nodes are frozen, so every protocol that holds this default shares it.
    """
    n = f.n
    return _spell_input(
        BOB, n, lambda y: OutputLeaf(OutputFunction.from_map(n, n, lambda u: f.value(u, y)))
    )


def _repeat_cells(cells, extra: int) -> str:
    return "".join(cell * (1 << extra) for cell in cells)


def _lift(node: Node, n: int, extra_alice: int, extra_bob: int) -> Node:
    """The same protocol over inputs extended by trailing help bits it ignores.

    Help bits trail the base input, so in a table over the longer input the
    cell of u + h is the cell of u: a table is lifted by repeating each base
    cell 2^extra times.  Constants, bit reads and constant answers read the
    same on the longer input and pass through unchanged; every other answer
    reads Alice's whole input, so it is tabulated at base width and lifted
    as a table.  A stuck leaf becomes the constant answer 0...0, so the
    lifted tree is total.
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
    if isinstance(node, StuckLeaf):
        return OutputLeaf(OutputFunction("const", "0" * n))
    if isinstance(node, OutputLeaf) and extra_alice and node.fn.kind != "const":
        cells = [node.fn.evaluate(u, n) for u in all_bitstrings(n)]
        return OutputLeaf(OutputFunction("table", _repeat_cells(cells, extra_alice)))
    return node


@lru_cache(maxsize=32)
def _lifted_default(f: FunctionSpec, extra_alice: int, extra_bob: int) -> Node:
    """The totalizer's literal-send default, lifted once per f and mode."""
    return _lift(_literal_send(f), f.n, extra_alice, extra_bob)


# The lift of the last tree wrapped in each mode, keyed by the help counts:
# the lift does not read f, so every function asked about one tree shares
# it.  Each slot holds its tree's root, so an identity hit is safe.
_last_lift: dict = {}


def _shared_lift(root: Node, n: int, extra_alice: int, extra_bob: int) -> Node:
    """`_lift` of root, built and proven once per tree and mode.

    A new tree replaces the slot's lift and forgets its proof, so the
    memo of proven subtrees holds one tree's lifts at a time.
    """
    last = _last_lift.get((extra_alice, extra_bob))
    if last is not None and last[0] is root and last[1] == n:
        return last[2]
    if last is not None:
        _, m, old = last
        _proven.get((m + extra_alice, m + extra_bob, m), {}).pop(id(old), None)
    lifted = _lift(root, n, extra_alice, extra_bob)
    _prove(lifted, n + extra_alice, n + extra_bob, n)
    _last_lift[extra_alice, extra_bob] = root, n, lifted
    return lifted


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

    Each wrap is validated without walking its two branches again: the
    default is proven once per f and mode, and the lift of the protocol,
    which does not depend on f, is built and proven once per mode for the
    last protocol wrapped, so the functions asked about one protocol share
    it.  Only the routing node is checked per wrap.
    """
    if not tree.is_symmetric or tree.n_alice != f.n:
        raise UsageError("protocol shape does not match the function")
    if mode not in ("both", "alice-only", "bob-only"):
        raise UsageError(f"unknown totalizer mode {mode!r}")
    n = f.n
    extra_alice = 1 if mode in ("both", "alice-only") else 0
    extra_bob = 1 if mode in ("both", "bob-only") else 0
    default = _lifted_default(f, extra_alice, extra_bob)
    _prove(default, n + extra_alice, n + extra_bob, n)
    root = Speak(
        BOB if extra_bob else ALICE,
        NodeFunction.input_bit(n),
        default,
        _shared_lift(tree.root, n, extra_alice, extra_bob),
    )
    return ProtocolTree(n + extra_alice, n + extra_bob, n, root)


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
