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
  `rectangles.transcript_partition`, the fold classes in `complexity`,
  which fold each enumerated tree once, and `cc_with_help`, which folds a
  tree once and then answers each pair by a mask test);
- the blocks of a one-way tree, a grid of one row whose column z stands
  for Bob's input made of the k-bit block z and a fixed suffix, split
  into classes by Bob's message (`_bob_message_classes`: the hard-instance
  fibers, and the message lengths of identity senders).

`cc_with_help` keeps the fold of the last (tree, f, help counts) it saw
and reads that one-slot memo inline, so a run of pairs on one protocol
pays the shape and grid checks and the fold once; each pair's cells are
checked once per help counts and then read from a dict.  A totalizer
wrap, recognised by identity, is folded from its parts: the default's
part once per (f, help counts), the lift alone per wrap.
Help bits trail the base input, so a mask of help-extended cells maps to
the base pairs it touches by one slide over the help strings, kept per
mask (`_pairs_of`); every question asked of all pairs at once goes
through it: `computes_everywhere`, the per-depth pair masks of
`_pairs_within`, on which the `helpbits` suite checks the totalizer law
in one pass per tree, and the announcements of the fold classes.

Every tree is validated on construction by one full walk; a speak node
whose two children are one object (the shared dead chains of the
index-exchange companion) walks that child once, and a wrap does not walk
again a branch an earlier wrap of its widths has passed with
(`_valid_branches`).  The literal-send default
is built once per function and Alice's help bits, directly at her extended
width (`_literal_send`), and shared by every protocol that holds it.
`help_bit_totalizer` takes its help counts from `TOTALIZER_MODES` and
lifts the wrapped protocol once per protocol and mode, a lift shared by
every function asked about that protocol; only the last protocol's lifts
are kept.  A lifted output leaf depends only on its answer, n and Alice's
extra bits, so each is built once (`_lifted_leaf`) and shared by every
lifted tree that holds it, as is the routing read at the root of every
wrap of one width.
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Speak:
    owner: str
    fn: NodeFunction
    child0: "Node"
    child1: "Node"


@dataclass(frozen=True, slots=True)
class OutputLeaf:
    fn: OutputFunction


@dataclass(frozen=True, slots=True)
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


def _validate(node: Node, depth: int, cap: int, widths: tuple) -> None:
    """Check the subtree reached at depth against the widths and the depth cap.

    One full walk, so the error raised is the first one met in pre-order.
    """
    if depth > cap:
        raise UsageError(f"tree exceeds depth cap {cap}")
    if isinstance(node, Speak):
        if node.owner not in (ALICE, BOB):
            raise UsageError(f"unknown owner {node.owner!r}")
        node.fn.validate(widths[0] if node.owner == ALICE else widths[1])
        _validate(node.child0, depth + 1, cap, widths)
        if node.child1 is not node.child0:  # a shared child passes at the same depth
            _validate(node.child1, depth + 1, cap, widths)
    elif isinstance(node, OutputLeaf):
        node.fn.validate(widths[0], widths[2])
    elif not isinstance(node, StuckLeaf):
        raise UsageError(f"unknown node {node!r}")


# The branches of totalizer wraps already validated, per mode's help
# counts: (widths, lift, defaults), where the lift (route 1) and each
# default (route 0) are known to be valid at depth 1 of a tree of those
# widths.  Only help_bit_totalizer fills it, after a wrap has passed
# validation.  It keeps no node alive that the caches do not hold: the
# lift is the one in its mode's `_last_lift` slot and is replaced with it,
# and the defaults are `_literal_send`'s, all forgotten when it builds a
# new one, which may evict an old one.  Nodes are matched by identity
# (`_held`), so an equal node built elsewhere is walked.
_valid_branches: dict = {}


def _held(node: Node, nodes: tuple) -> bool:
    """True iff node is one of nodes, the object itself, not an equal one."""
    for held in nodes:
        if held is node:
            return True
    return False


def _validate_wrap(root: Speak, cap: int, widths: tuple) -> bool:
    """`_validate` of a speak root whose branches `_valid_branches` records are not walked.

    A branch is recorded if it sits in its place at these widths: a
    default in route 0, the lift in route 1.  The root's own fields and
    every branch not recorded are checked as `_validate` checks them.
    False, with nothing checked, if neither branch is recorded.
    """
    n = widths[2]
    known = _valid_branches.get((widths[0] - n, widths[1] - n))
    if known is None or known[0] != widths:
        return False
    _, lift, defaults = known
    zero, one = root.child0, root.child1
    walk0 = not _held(zero, defaults)
    walk1 = one is not lift and one is not zero
    if walk0 and one is not lift:
        return False
    if root.owner not in (ALICE, BOB):
        raise UsageError(f"unknown owner {root.owner!r}")
    root.fn.validate(widths[0] if root.owner == ALICE else widths[1])
    if walk0:
        _validate(zero, 1, cap, widths)
    if walk1:
        _validate(one, 1, cap, widths)
    return True


@dataclass(frozen=True)
class ProtocolTree:
    """A protocol with declared input lengths and output width.

    The tree is validated on construction: node functions must match the
    owner's input length, output functions the output width, and every
    root-to-leaf path must stay within the depth cap.  One walk checks it
    all (`_validate`).  It skips only a branch of the root that
    help_bit_totalizer has recorded as validated at these widths and in
    that place (a wrap's shared default and lift, `_valid_branches`): a
    frozen subtree valid at depth 1 stays valid there.  The root and every
    other node are walked.
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
        root = self.root
        if not (_valid_branches and type(root) is Speak and _validate_wrap(root, cap, widths)):
            _validate(root, 0, cap, widths)

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


# The help bits of each `help_bit_totalizer` mode, in the order the help-bit suite checks them
TOTALIZER_MODES = {"both": HelpSpec(1, 1), "alice-only": HelpSpec(1, 0), "bob-only": HelpSpec(0, 1)}


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
    node: Node, na: int, nb: int, suffix: str = "", cells: int | None = None, path: int = 1
) -> list[tuple[int, int, Node]]:
    """(cells, path, leaf) for every leaf, with the cells of the whole grid that reach it.

    Cell xa << nb | yb is the run on Alice's input xa and Bob's input yb,
    read as integers, where Bob's input is his nb bits followed by suffix;
    help bits trail the base input as in `_lift`.  path is the leaf's
    transcript as an integer behind a leading 1 bit, so its depth is
    path.bit_length() - 1 (`_transcript` spells it).

    Given cells and path, the fold starts at node as the branch that those
    cells reach after that transcript: one branch of a wrap's root is
    folded alone (`_correct_at`), with the same leaves as in the whole fold.
    """
    leaves = []
    todo = [(node, (1 << (1 << (na + nb))) - 1 if cells is None else cells, path)]
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
    rows = sum(1 << (ha << nb) for ha in range(1 << alice_bits))
    return rows * ((1 << (1 << bob_bits)) - 1) << corner


def _joined(rows: list, width: int) -> int:
    """rows[0] | rows[1] << width | rows[2] << 2 * width | ..., in time linear in the bits.

    Adding shifted rows one by one to a growing sum copies the sum each
    time.  Instead, pairs of rows narrower than a byte are merged until
    they fill whole bytes, and the rows are then laid out as bytes and read
    once.  The number of rows and width are powers of two.
    """
    while width < 8 and len(rows) > 1:
        rows = [rows[i] | rows[i + 1] << width for i in range(0, len(rows), 2)]
        width <<= 1
    if len(rows) == 1:
        return rows[0]
    size = width >> 3
    return int.from_bytes(b"".join([row.to_bytes(size, "little") for row in rows]), "little")


@lru_cache(maxsize=64)
def _answers(f: FunctionSpec, alice_bits: int, bob_bits: int):
    """The help-extended cells where an output function announces f on the base pair.

    The returned lookup takes the output function's kind and value; each
    mask is joined from its rows in one pass (`_joined`).
    """
    n = f.n
    nb = n + bob_bits
    block = (1 << (1 << bob_bits)) - 1
    # rows[x][v]: the cells of one extended row of x whose base column y has f(x, y) == v
    rows = []
    for x in range(1 << n):
        row: dict[str, int] = {}
        for j, v in enumerate(f.words[x << n:(x + 1) << n]):
            row[v] = row.get(v, 0) | block << (j << bob_bits)
        rows.append(row)

    @lru_cache(maxsize=1024)
    def cells(kind: str, value: str) -> int:
        outputs = OutputFunction(kind, value).evaluate_all(n + alice_bits, n)
        return _joined([rows[xa >> alice_bits].get(v, 0) for xa, v in enumerate(outputs)], 1 << nb)

    return cells


def _no_stuck(leaves) -> bool:
    return all(type(leaf) is not StuckLeaf for _, _, leaf in leaves)


def _add_hits(by_depth: dict, leaves, answers) -> None:
    """OR into by_depth[depth] the cells where an output leaf at that depth answers right."""
    for cells, path, leaf in leaves:
        if type(leaf) is OutputLeaf:
            hit = cells & answers(leaf.fn.kind, leaf.fn.value)
            if hit:
                depth = path.bit_length() - 1
                by_depth[depth] = by_depth.get(depth, 0) | hit


@lru_cache(maxsize=8192)
def _pairs_of(cells: int, n: int, alice_bits: int, bob_bits: int) -> int:
    """The base pairs with a help-extended cell in cells, as bit x << n | y.

    Each help string's cells are slid onto the pairs' all-zero help cells
    and read off in plain coordinates; without help bits each pair is one
    cell.  Keyed by the mask: the few masks a family of trees produces are
    each translated once.  A slide maps a union of masks to the union of
    their pairs, so `_pairs_within` translates the correct cells of one
    depth at a time: a family has fewer of those than of their running
    unions (4,147 against 6,646 in the `helpbits` suite), and all of them
    stay cached.
    """
    if not (alice_bits or bob_bits):
        return cells
    nb = n + bob_bits
    reached = 0
    for ha in range(1 << alice_bits):
        for hb in range(1 << bob_bits):
            reached |= cells >> (ha << nb | hb)
    row = alice_bits + nb
    return sum(
        1 << (x << n | y)
        for x in range(1 << n)
        for y in range(1 << n)
        if reached >> (x << row | y << bob_bits) & 1
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
    answer, so such a tree is also total.  Read from the fold of
    `_correct_at`: the correct cells of all depths are slid onto the base
    pairs at once, so one call adds one mask to `_pairs_of`.
    """
    correct = 0
    for _, cells in _correct_at(tree, f, help_spec):
        correct |= cells
    pairs = _pairs_of(correct, f.n, help_spec.alice_bits, help_spec.bob_bits)
    return pairs == (1 << (1 << 2 * f.n)) - 1


# The fold for the last (tree, f, help counts) asked about, as [tree, f,
# help_spec, alice_bits, bob_bits, correct_at, checked]: callers ask about
# every pair of one tree before moving on.  help_spec is the HelpSpec
# object last asked with, so a repeated cc_with_help call is three
# identity tests, and checked is `_checked_pairs` of the help counts.  It
# caches pure results, so it changes no answer.  Trees are frozen and the
# slot holds them, so an identity hit cannot be a recycled id.
_last_fold: list = [None, None, None, -1, -1, (), {}]

# The most pairs kept per `_checked_pairs` dict: its 16 dicts hold at most
# as many pairs as `_help_cells`, and the cells are its objects
_PAIR_SLOTS = 16


def _correct_at(tree: ProtocolTree, f: FunctionSpec, help_spec: HelpSpec) -> tuple:
    """(depth, cells) for every depth whose output leaves answer f on some cell.

    Ascending by depth, nonempty cells only.  One grid fold per (tree, f,
    help counts), held in a one-slot memo; the checks that read only that
    key run on a miss.

    A totalizer wrap is folded from its parts: its root routes by a help
    bit into the default or the lift, so its leaves are the default's
    below the route-0 half of the grid and the lift's below the route-1
    half.  The default's part is folded once per (f, help counts)
    (`_default_part`), and only the lift is folded here.  A root counts
    as a wrap by identity only (`_is_wrap`); any other tree, equal or not,
    is folded whole.
    """
    a, b = help_spec.alice_bits, help_spec.bob_bits
    memo = _last_fold
    if tree is memo[0] and a == memo[3] and b == memo[4] and (f is memo[1] or f == memo[1]):
        memo[1], memo[2] = f, help_spec
        return memo[5]
    _check_help_shape(tree, f, help_spec)
    _check_grid(tree)
    na, nb, root = tree.n_alice, tree.n_bob, tree.root
    if _is_wrap(root, f, a, b):
        route, hits = _default_part(f, a, b)
        by_depth = dict(hits)
        leaves = _leaf_masks(root.child1, na, nb, cells=route, path=0b11)
    else:
        by_depth = {}
        leaves = _leaf_masks(root, na, nb)
    _add_hits(by_depth, leaves, _answers(f, a, b))
    correct_at = tuple(sorted(by_depth.items()))
    memo[:] = tree, f, help_spec, a, b, correct_at, _checked_pairs(f.n, a, b)
    return correct_at


def _is_wrap(root: Node, f: FunctionSpec, alice_bits: int, bob_bits: int) -> bool:
    """True iff root is help_bit_totalizer's root for f and these help counts, object for object.

    The root must be a speak node of the routing party whose function is
    `_routing_read(n)` and whose route-0 branch is `_literal_send(f,
    alice_bits)` itself; the route-1 branch may be anything.
    """
    return (
        type(root) is Speak
        and root.owner == _router(bob_bits)
        and root.fn is _routing_read(f.n)
        and root.child0 is _literal_send(f, alice_bits)
    )


@lru_cache(maxsize=64)
def _default_part(f: FunctionSpec, alice_bits: int, bob_bits: int) -> tuple:
    """(route, hits): what every totalizer wrap of f with these help counts shares.

    route is the cells of the grid where the routing bit reads 1, and hits
    the (depth, cells) where the default answers f on the other half, one
    level down, ascending by depth: the default's part of `_correct_at`.
    """
    n = f.n
    na, nb = n + alice_bits, n + bob_bits
    route = _reads_one(_router(bob_bits), "bit", n, "", na, nb, "")
    half = ((1 << (1 << (na + nb))) - 1) ^ route
    by_depth: dict[int, int] = {}
    leaves = _leaf_masks(_literal_send(f, alice_bits), na, nb, cells=half, path=0b10)
    _add_hits(by_depth, leaves, _answers(f, alice_bits, bob_bits))
    return route, tuple(sorted(by_depth.items()))


@lru_cache(maxsize=16)
def _checked_pairs(n: int, alice_bits: int, bob_bits: int) -> dict:
    """{(x, y): `_help_cells(n, alice_bits, bob_bits, x, y)`} for pairs already checked.

    Filled by cc_with_help, up to `_PAIR_SLOTS` pairs, so a pair asked
    again under these help counts, for any tree, is one dict lookup.  A
    pair not in it goes through `_help_cells`, which checks x and y.
    """
    return {}


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

    A run of calls on one (tree, f, help_spec) reads the `_correct_at`
    memo inline, so only its first call pays the shape and grid checks and
    the fold, which for a totalizer wrap folds only its lift.  A pair is
    checked the first time it is asked under its help counts
    (`_help_cells`) and then read from the memo's dict of checked pairs.
    """
    memo = _last_fold
    if tree is not memo[0] or help_spec is not memo[2] or f is not memo[1]:
        _correct_at(tree, f, help_spec)
    checked = memo[6]
    pair = checked.get((x, y))
    if pair is None:
        pair = _help_cells(f.n, memo[3], memo[4], x, y)
        if len(checked) < _PAIR_SLOTS:
            checked[x, y] = pair
    for depth, cells in memo[5]:
        if cells & pair:
            return depth
    return math.inf


def _pairs_within(tree: ProtocolTree, f: FunctionSpec, help_spec: HelpSpec, most: int) -> list:
    """within[t] for t = 0 .. most: the base pairs whose `cc_with_help` is at most t.

    Pair (x, y) is bit x << n | y, whatever the help counts.  Read from the
    one fold of `_correct_at`: the correct cells of each depth are slid
    onto the base pairs (`_pairs_of`) and joined with the depths above, so
    no pair is asked on its own.
    """
    a, b = help_spec.alice_bits, help_spec.bob_bits
    within = [0] * (most + 1)
    reached = 0
    for depth, cells in _correct_at(tree, f, help_spec):
        if depth > most:
            break
        reached |= _pairs_of(cells, f.n, a, b)
        within[depth:] = [reached] * (most + 1 - depth)
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
def _literal_send(f: FunctionSpec, alice_bits: int) -> Node:
    """Bob spells out y and Alice answers f(x, y) from a table, built once per f and width.

    Alice's input may carry alice_bits trailing help bits, which her
    tables ignore; Bob's reads are bit reads, whatever his width.  Nodes
    are frozen, so every protocol that holds this default shares it.
    Building one may evict another, so `_valid_branches` forgets them all.
    """
    _valid_branches.clear()
    n = f.n
    return _spell_input(
        BOB, n, lambda y: OutputLeaf(OutputFunction.from_map(n + alice_bits, n, lambda u: f.value(u[:n], y)))
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
    lifted tree is total.  Lifted leaves come from `_lifted_leaf`, so each
    is built once, not once per tree.
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
        return _lifted_leaf("const", "0" * n, n, extra_alice)
    if isinstance(node, OutputLeaf) and extra_alice and node.fn.kind != "const":
        return _lifted_leaf(node.fn.kind, node.fn.value, n, extra_alice)
    return node


@lru_cache(maxsize=1024)
def _lifted_leaf(kind: str, value: str, n: int, extra_alice: int) -> OutputLeaf:
    """The lift of an output leaf announcing OutputFunction(kind, value).

    A stuck leaf is lifted as the constant answer 0...0.  A lifted leaf
    depends on nothing else, so it is keyed by the answer's fields, n and
    Alice's extra bits, and every lifted tree shares the frozen leaf.
    """
    fn = OutputFunction(kind, value)
    if kind != "const":
        fn = OutputFunction("table", _repeat_cells(fn.evaluate_all(n, n), extra_alice))
    return OutputLeaf(fn)


# The lift of the last tree wrapped in each mode, keyed by the help counts:
# the lift does not read f, so every function asked about one tree shares
# it.  Each slot holds its tree's root, so an identity hit is safe.
_last_lift: dict = {}


def _shared_lift(root: Node, n: int, extra_alice: int, extra_bob: int) -> Node:
    """`_lift` of root, built once per tree and mode and kept until the next tree."""
    last = _last_lift.get((extra_alice, extra_bob))
    if last is not None and last[0] is root and last[1] == n:
        return last[2]
    lifted = _lift(root, n, extra_alice, extra_bob)
    _last_lift[extra_alice, extra_bob] = root, n, lifted
    return lifted


def _router(bob_bits: int) -> str:
    """The party that speaks a wrap's routing bit: Bob if he gets help, else Alice."""
    return BOB if bob_bits else ALICE


@lru_cache(maxsize=32)
def _routing_read(n: int) -> NodeFunction:
    """The read of bit n, the helped party's help bit, at the root of every wrap of width n."""
    return NodeFunction.input_bit(n)


def help_bit_totalizer(
    tree: ProtocolTree, f: FunctionSpec, mode: str = "both"
) -> ProtocolTree:
    """Wrap a protocol so one help bit makes it total and correct everywhere.

    The helped party's extra bit is spoken first and routes the run: help
    bit 1 replays the wrapped protocol on the base inputs, help bit 0 runs
    a literal-send default that is correct on every pair.  On any pair the
    wrapped protocol answers correctly the wrapper therefore costs at most
    one bit more; elsewhere the default costs n + 1.

    mode selects who receives help (`TOTALIZER_MODES`): "both" (one bit
    each), "alice-only" or "bob-only".  The routing bit always belongs to a
    helped party; with "alice-only" Alice both holds and resends it, so the
    wrapper is never one-way even if the wrapped protocol was.

    Neither branch is rebuilt per wrap: the default is built once per f
    and Alice's help bits, at her extended width (`_literal_send`), and the
    lift of the protocol, which does not depend on f, is built once per
    mode for the last protocol wrapped, so the functions asked about one
    protocol share it.  A new protocol's lift builds only its speak nodes:
    its output leaves come lifted from `_lifted_leaf`, and the routing read
    is built once per width (`_routing_read`).  Each wrap's root is
    validated, and of its branches only those no earlier wrap of these
    widths has passed with: after a wrap passes, its default and lift are
    recorded (`_valid_branches`).
    """
    if not tree.is_symmetric or tree.n_alice != f.n:
        raise UsageError("protocol shape does not match the function")
    spec = TOTALIZER_MODES.get(mode) if isinstance(mode, str) else None
    if spec is None:
        raise UsageError(f"unknown totalizer mode {mode!r}")
    n, extra_alice, extra_bob = f.n, spec.alice_bits, spec.bob_bits
    default = _literal_send(f, extra_alice)
    lift = _shared_lift(tree.root, n, extra_alice, extra_bob)
    wrapped = ProtocolTree(
        n + extra_alice, n + extra_bob, n, Speak(_router(extra_bob), _routing_read(n), default, lift)
    )
    widths = (n + extra_alice, n + extra_bob, n)
    known = _valid_branches.get((extra_alice, extra_bob))
    if known is None or known[0] != widths:
        _valid_branches[extra_alice, extra_bob] = widths, lift, (default,)
    elif known[1] is not lift or not _held(default, known[2]):
        defaults = known[2] if _held(default, known[2]) else known[2] + (default,)
        _valid_branches[extra_alice, extra_bob] = widths, lift, defaults
    return wrapped


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
