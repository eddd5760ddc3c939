"""Hand-built protocols and pigeonhole hard instances, with exact bit counts.

Everything here is constructed directly rather than found by search: the
prefix-match sender, the equality shortcut, rectangle-index shortcuts, the
separating-index exchange, and the fiber-certificate generator that
produces input pairs on which every small enumerated one-way protocol must
talk a lot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import compress
from random import Random

from .bits import (
    _checked_hex,
    all_bitstrings,
    bits_from_hex,
    bits_from_int,
    bits_to_hex,
    check_bits,
    embed_bit,
    log2ceil,
)
from .codes import (
    _MAX_HARD_K,
    _MAX_HARD_SLOTS_LOG,
    PdlCode,
    _check_budget,
    decode_signature,
    enumerate_signature,
    pdl_encode,
)
from .errors import AuditFailure, UsageError
from .functions import FunctionSpec, equality_fn
from .protocol import (
    ALICE,
    BOB,
    NodeFunction,
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    Speak,
    _bob_message_classes,
    _literal_send,
    run,
)
from .rectangles import rectangle_color


# ---------------------------------------------------------------------------
# node-function fitting and the one-way message builder


def fit_node_function(targets: dict, m: int) -> NodeFunction:
    """Cheapest speak function agreeing with targets; don't-cares are free.

    Preference order mirrors the encoding grammar: const0, const1, bit-i,
    negated bit-i (i ascending), then a table with don't-cares set to 0.
    """
    if not targets:
        return NodeFunction.const(0)
    if all(v == 0 for v in targets.values()):
        return NodeFunction.const(0)
    if all(v == 1 for v in targets.values()):
        return NodeFunction.const(1)
    for i in range(m):
        if all(int(u[i]) == v for u, v in targets.items()):
            return NodeFunction.input_bit(i)
    for i in range(m):
        if all(1 - int(u[i]) == v for u, v in targets.items()):
            return NodeFunction.negated_bit(i)
    cells = ["0"] * (1 << m)
    for u, v in targets.items():
        cells[int(u, 2)] = str(v)
    return NodeFunction.from_table("".join(cells))


def message_protocol(messages: dict, n: int) -> ProtocolTree:
    """One-way identity protocol in which Bob speaks messages[y] and Alice outputs y.

    The message set must be prefix-free and injective; the trie of
    messages becomes the tree, with node functions fitted to the y's whose
    message passes through each node.  Branches no message reaches get a
    constant-zero leaf.
    """
    items = sorted(messages.items())
    for y, msg in items:
        check_bits(y, n)
        if msg:
            check_bits(msg)
    sorted_msgs = sorted(m for _, m in items)
    for a, b in zip(sorted_msgs, sorted_msgs[1:]):
        if b.startswith(a):
            raise UsageError(f"messages are not prefix-free: {a!r} prefixes {b!r}")
    filler = OutputLeaf(OutputFunction.const("0" * n))

    def build(prefix: str, ys: list) -> object:
        exact = [y for y in ys if messages[y] == prefix]
        if exact:
            return OutputLeaf(OutputFunction.const(exact[0]))
        if not ys:
            return filler
        targets = {y: int(messages[y][len(prefix)]) for y in ys}
        fn = fit_node_function(targets, n)
        zeros = [y for y in ys if targets[y] == 0]
        ones = [y for y in ys if targets[y] == 1]
        return Speak(BOB, fn, build(prefix + "0", zeros), build(prefix + "1", ones))

    root = build("", [y for y, _ in items]) if items else filler
    return ProtocolTree.symmetric(n, root)


# ---------------------------------------------------------------------------
# explicit protocols


def prefix_protocol(y_target: str, a: int) -> ProtocolTree:
    """Bob flags whether his prefix matches y_target and sends the rest.

    On match the message is 0 plus the remaining n - a bits (cost
    n - a + 1); on mismatch it is 1 plus all of y (cost n + 1).  Total and
    correct for the identity function, with the a matched bits effectively
    hard-wired into the tree.
    """
    n = len(check_bits(y_target))
    if not 0 <= a <= n:
        raise UsageError(f"prefix length {a} out of range for n={n}")
    messages = {}
    for y in all_bitstrings(n):
        if y[:a] == y_target[:a]:
            messages[y] = "0" + y[a:]
        else:
            messages[y] = "1" + y
    return message_protocol(messages, n)


def equality_shortcut_protocol(n: int) -> ProtocolTree:
    """Equality with a 2-bit fast path on the off-diagonal quadrant.

    Bob opens with his first bit.  On 1, Alice answers with her first bit;
    if hers is 0 the pair sits in the all-zero quadrant and she outputs 0
    after those 2 bits.  Every other branch falls back to Bob sending the
    rest of y literally: cost n + 1 when both first bits are 1, n when
    Bob's is 0.  Computes equality on every pair.
    """
    if n < 1:
        raise UsageError("need n >= 1")
    zero = OutputLeaf(OutputFunction.const(embed_bit(0, n)))
    send = _literal_send(equality_fn(n), 0)
    root = Speak(
        BOB,
        NodeFunction.input_bit(0),
        send.child0,
        Speak(ALICE, NodeFunction.input_bit(0), zero, send.child1),
    )
    return ProtocolTree.symmetric(n, root)


def large_rectangle_shortcut(f: FunctionSpec, rects: list) -> ProtocolTree:
    """Bob names the rectangle holding y; Alice answers its color if x fits.

    Bob sends a ceil(log2(len(rects)+1))-bit index, 0 meaning none.  On a
    hit Alice spends one bit saying whether her row is inside; if so she
    outputs the rectangle's color, otherwise (and on index 0) the literal
    default runs from scratch.  Rectangles must be pairwise disjoint and
    monochromatic.
    """
    if not f.boolean:
        raise UsageError("rectangle shortcut needs a truth-valued function")
    n = f.n
    colors = []
    for i, rect in enumerate(rects):
        color = rectangle_color(rect, f)
        if color is None:
            raise UsageError(f"rectangle {i} is not monochromatic")
        colors.append(color)
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            if rects[i].rows & rects[j].rows and rects[i].cols & rects[j].cols:
                raise UsageError(f"rectangles {i} and {j} overlap")
    width = log2ceil(len(rects) + 1)
    default = _literal_send(f, 0)

    def index_of(y: str) -> int:
        for i, rect in enumerate(rects):
            if y in rect.cols:
                return i + 1
        return 0

    def subtree(idx: int) -> object:
        if idx == 0:
            return default
        if idx > len(rects):
            return OutputLeaf(OutputFunction.const("0" * n))
        rect = rects[idx - 1]
        member = fit_node_function({x: int(x in rect.rows) for x in all_bitstrings(n)}, n)
        hit = OutputLeaf(OutputFunction.const(embed_bit(colors[idx - 1], n)))
        return Speak(ALICE, member, default, hit)

    def build(depth: int, acc: int) -> object:
        if depth == width:
            return subtree(acc)
        targets = {
            y: (index_of(y) >> (width - 1 - depth)) & 1 for y in all_bitstrings(n)
        }
        fn = fit_node_function(targets, n)
        return Speak(BOB, fn, build(depth + 1, acc << 1), build(depth + 1, acc << 1 | 1))

    return ProtocolTree.symmetric(n, build(0, 0))


# ---------------------------------------------------------------------------
# separating index sets and the index-exchange protocol


@dataclass(frozen=True)
class SeparatingIndexSet:
    """Positions on which a family of strings is pairwise distinguished."""

    indices: tuple
    k: int

    def restrict(self, z: str) -> str:
        return "".join(z[i] for i in self.indices)


def separating_index_set(z_list) -> SeparatingIndexSet:
    """Greedy position set splitting every pair of the family.

    Strings are inserted one at a time; a new string can collide with at
    most one already-placed string (the placed ones are pairwise split),
    and one position where the two differ repairs the collision.  Hence
    at most len(z_list) - 1 positions overall.
    """
    z_list = list(z_list)
    if len(set(z_list)) != len(z_list):
        raise UsageError("family members must be pairwise distinct")
    k = len(check_bits(z_list[0])) if z_list else 0
    for z in z_list:
        check_bits(z, k)
    indices: list = []

    def restrict(z: str) -> str:
        return "".join(z[i] for i in indices)

    placed: list = []
    for z in z_list:
        clash = next((w for w in placed if restrict(w) == restrict(z)), None)
        if clash is not None:
            d = next(i for i in range(k) if z[i] != clash[i])
            indices.append(d)
        placed.append(z)
    return SeparatingIndexSet(tuple(sorted(indices)), k)


def _exchange_tree(z_list: list, slots: list, out_len: int) -> object:
    """Alice announces the slot positions, Bob answers his bits there.

    Slot indices go out as hard-wired constant bits, ceil(log2 k) per
    slot; the branch not taken by a constant is a dead zero leaf.  Bob
    then answers one input bit per slot, and the leaf matching his
    restriction pattern announces the corresponding padded family member.
    Only the answer prefixes of some member get nodes of their own: every
    other branch of Bob's chain at one level is the same dead chain, which
    ends in zero leaves and is built once per level.
    """
    k = len(z_list[0])
    idx_width = log2ceil(k)
    slot_bits = "".join(bits_from_int(i, idx_width) for i in slots)
    dead = OutputLeaf(OutputFunction.const("0" * out_len))
    patterns = {
        "".join(z[i] for i in slots): z + "0" * (out_len - k) for z in z_list
    }
    live = {p[:j] for p in patterns for j in range(len(slots) + 1)}
    # one function per slot and per constant, shared by every node that asks it
    reads = [NodeFunction.input_bit(i) for i in slots]
    consts = NodeFunction.const(0), NodeFunction.const(1)
    # dead_chain[j]: Bob's chain from slot j on, with no member below it
    dead_chain = [dead]
    for fn in reversed(reads):
        dead_chain.insert(0, Speak(BOB, fn, dead_chain[0], dead_chain[0]))

    def bob_chain(j: int, acc: str) -> object:
        if acc not in live:
            return dead_chain[j]
        if j == len(slots):
            return OutputLeaf(OutputFunction.const(patterns[acc]))
        return Speak(BOB, reads[j], bob_chain(j + 1, acc + "0"), bob_chain(j + 1, acc + "1"))

    def alice_chain(d: int) -> object:
        if d == len(slot_bits):
            return bob_chain(0, "")
        b = int(slot_bits[d])
        rest = alice_chain(d + 1)
        child0 = rest if b == 0 else dead
        child1 = rest if b == 1 else dead
        return Speak(ALICE, consts[b], child0, child1)

    return alice_chain(0)


@dataclass
class IndexExchangeReport:
    tree: ProtocolTree
    cost: int
    closed_form_bound_bits: int


def th7_protocol(z_list, k: int | None = None) -> IndexExchangeReport:
    """Index-exchange protocol for x = concatenated family, y = a padded member.

    The family must have 2^s + 1 pairwise distinct members of length k.
    Alice sends 2^s slot positions (the greedy separating set, padded by
    repeating position 0), Bob replies with his bits there, and Alice
    names the matching member.  Cost is exactly 2^s * (ceil(log2 k) + 1)
    on every valid pair; the report carries it next to the looser
    closed-form bound 2^s * ceil(log2 (2k)).
    """
    z_list = tuple(z_list)
    root, bound = _index_exchange(z_list, k)
    tree = ProtocolTree.symmetric(len("".join(z_list)), root)
    return IndexExchangeReport(tree, _exchange_cost(tree, z_list), bound)


def _index_exchange(z_list, k: int | None = None) -> tuple:
    """(root, bound): `th7_protocol`'s exchange root, not yet validated, and its closed-form bound."""
    m = len(z_list)
    if m < 2 or (m - 1) & (m - 2):
        raise UsageError("family size must be 2^s + 1")
    s = log2ceil(m - 1)
    sep = separating_index_set(z_list)
    if k is not None and k != sep.k:
        raise UsageError(f"family members have {sep.k} bits, not {k}")
    k = sep.k
    slots = list(sep.indices) + [0] * ((1 << s) - len(sep.indices))
    return _exchange_tree(list(z_list), slots, m * k), (1 << s) * log2ceil(2 * k)


def _exchange_cost(tree: ProtocolTree, z_list) -> int:
    """The greatest cost of tree on x = the concatenated family and each padded member.

    Alice's input past x is all ones, which routes a help-routed exchange
    into it; a member the tree fails to name raises AuditFailure.
    """
    x = "".join(z_list)
    x += "1" * (tree.n_alice - len(x))
    cost = None
    for j, z in enumerate(z_list):
        y = z + "0" * (tree.n_bob - len(z))
        outcome = run(tree, x, y)
        if outcome.is_stuck or outcome.output != y:
            raise AuditFailure(f"index exchange failed to identify member {j}")
        cost = outcome.cost if cost is None else max(cost, outcome.cost)
    return cost


# ---------------------------------------------------------------------------
# hard instances by fiber pigeonhole

HARD_INSTANCE_SCHEMA = "cclab-hard-instance/1"

_HEX = (bits_to_hex, bits_from_hex)
# a code is stored as its hex form and kept as one, refused unless canonical
_CODE = (str, lambda h: _checked_hex(h) and h)
_INF = (lambda c: "inf" if c is None else c, lambda c: None if c == "inf" else c)
_ROW = (list, tuple)


def _json(shape: str, codec=None, key: str | None = None, **kwargs):
    """A HardInstance field whose metadata holds its certificate format.

    key is its JSON key ("companion.*" nests), the field's name when None;
    codec is the (to JSON, from JSON) conversion of the value, or of each
    list element.  Shapes: "int", "int?" (or null), "str", "strs", "ints"
    (lists, held as tuples) and "rows" (the served table, a tuple of
    [protocol index, Alice help, Bob help, member or null] rows).
    """
    return field(metadata={"json": (key, shape, codec)}, **kwargs)


_ROW_SHAPE = ("int", "str", "str", "int?")


def _has_shape(v, shape: str) -> bool:
    if shape == "int?" and v is None:
        return True
    if shape in ("int", "int?"):
        return isinstance(v, int) and not isinstance(v, bool)
    if shape == "str":
        return isinstance(v, str)
    if not isinstance(v, list):
        return False
    if shape == "rows":
        return all(
            isinstance(r, list) and len(r) == 4 and all(map(_has_shape, r, _ROW_SHAPE))
            for r in v
        )
    return all(_has_shape(e, shape[:-1]) for e in v)


def _convert(v, shape: str, codec, way: int):
    """Write a field's value as JSON (way 0) or read it back (way 1).

    The conversion applies to a scalar or to each element of a list.
    """
    if shape in ("int", "int?", "str"):
        return v if codec is None else codec[way](v)
    items = v if codec is None else map(codec[way], v)
    return tuple(items) if way else list(items)


def _check_hard_parameters(k: int, s: int, l: int, a: int, b: int, budget: int) -> None:
    if not 1 <= k <= _MAX_HARD_K:
        raise UsageError(f"k must be between 1 and {_MAX_HARD_K}, got {k}")
    if min(s, a, b) < 0:
        raise UsageError("s, a and b must be nonnegative")
    if l < 1:
        raise UsageError(f"l must be at least 1, got {l}")
    if a + b + s > min(k, _MAX_HARD_SLOTS_LOG):
        raise UsageError(f"a+b+s = {a + b + s} exceeds min(k, {_MAX_HARD_SLOTS_LOG})")
    _check_budget(budget)


@dataclass
class HardInstance:
    """Inputs plus a replayable certificate that small protocols fail.

    The fiber label of a k-bit block z records, for every enumerated
    one-way protocol and every Bob help string, Bob's message on the
    padded input when shorter than l (an infinity marker otherwise).  The
    fibers come from splitting all 2^k blocks into message classes once
    per (protocol, help string), not from running each block; the largest
    fiber wins, ties going to the greatest label, with the infinity
    marker above every message.  A fiber with more members than served
    triples yields a family whose concatenation is x; the certificate
    stores, per (protocol, help) triple, which family member it serves,
    and the hard index is the first member no triple serves.

    At every parameter set that builds, the fiber is all 2^k blocks: the
    few one-way protocols the serving bound admits never read Bob's
    block, so no message class splits the blocks and the label carries
    no information (checked for k 1-16, s 0-2, l 1-3, a and b 0-1 and
    budgets 0-20).

    Each field carries its certificate format (`_json`), read in field order.
    """

    k: int = _json("int")
    s: int = _json("int")
    l: int = _json("int")
    a: int = _json("int")
    b: int = _json("int")
    budget: int = _json("int")
    n: int = _json("int")
    protocols: tuple = _json("strs", _CODE)
    fiber_label: tuple = _json("strs", _INF)
    fiber_size: int = _json("int")
    fiber_floor: int = _json("int")
    z_blocks: tuple = _json("strs")
    x: str = _json("str", _HEX)
    y_family: tuple = _json("strs", _HEX)
    served: tuple = _json("rows", _ROW)  # (protocol index, h_a, h_b, served j or None)
    hard_index: int = _json("int")
    companion_kind: str = _json("str", key="companion.kind")
    companion_hex: str = _json("str", _CODE, key="companion.code")
    companion_signature: tuple = _json("ints", key="companion.signature")
    companion_cost: int = _json("int", key="companion.cost")
    companion_bound_bits: int = _json("int", key="companion.bound_bits")
    seed: int | None = _json("int?", default=None)

    @property
    def blocks(self) -> int:
        return (1 << (self.a + self.b + self.s)) + 1

    @property
    def hard_y(self) -> str:
        return self.y_family[self.hard_index]

    def to_json(self) -> str:
        data: dict = {"schema": HARD_INSTANCE_SCHEMA}
        for item in fields(self):
            key, shape, codec = item.metadata["json"]
            head, _, tail = (key or item.name).rpartition(".")
            where = data.setdefault(head, {}) if head else data
            where[tail] = _convert(getattr(self, item.name), shape, codec, 0)
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HardInstance":
        """Parse a stored certificate, rejecting any malformed field."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"instance is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise UsageError("instance must be a JSON object")
        if data.get("schema") != HARD_INSTANCE_SCHEMA:
            raise UsageError(f"unknown instance schema {data.get('schema')!r}")
        values = {}
        for item in fields(cls):
            key, shape, codec = item.metadata["json"]
            key = key or item.name
            head, _, tail = key.rpartition(".")
            where = data.get(head) if head else data
            if not (isinstance(where, dict) and tail in where and _has_shape(where[tail], shape)):
                raise UsageError(f"instance field {key!r} is missing or not of shape {shape}")
            try:
                values[item.name] = _convert(where[tail], shape, codec, 1)
            except ValueError as exc:
                raise UsageError(f"instance field {key!r} is malformed: {exc}")
        inst = cls(**values)
        _check_hard_parameters(inst.k, inst.s, inst.l, inst.a, inst.b, inst.budget)
        if inst.n != inst.blocks * inst.k:
            raise UsageError(f"n = {inst.n} does not equal (2^(a+b+s)+1)*k")
        if not 0 <= inst.hard_index < len(inst.y_family):
            raise UsageError("hard_index does not name a family member")
        return inst


# ASCII '0' and '1' to the byte values 0 and 1, as selectors for compress
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _build_hard_instance(
    k: int, s: int, l: int, a: int, b: int, budget: int, seed: int | None = None
) -> HardInstance:
    _check_hard_parameters(k, s, l, a, b, budget)
    blocks = (1 << (a + b + s)) + 1
    n = blocks * k
    if k < a + b + s + l * (1 << (s + b)):
        raise UsageError(
            f"need k >= a+b+s+l*2^(s+b) = {a + b + s + l * (1 << (s + b))}, got k={k}"
        )
    protos = list(enumerate_signature(n + a, n + b, n, budget, require_one_way=True))
    count = len(protos)
    # the serving argument needs strictly fewer (protocol, help) triples
    # than family members, and the fiber floor must clear the family size
    if count * (1 << (a + b)) >= blocks:
        raise UsageError(
            f"{count} protocols at budget {budget} give {count * (1 << (a + b))} "
            f"serving triples, too many for a family of {blocks}"
        )
    exponent = k - l * count * (1 << b)
    if exponent <= a + b + s:
        raise UsageError(
            f"fiber floor 2^{exponent} cannot exceed 2^{a + b + s}: "
            f"budget {budget} admits too many protocols for k={k}, l={l}"
        )
    # fibers as {label: mask}, bit z of the mask standing for block z,
    # refined by Bob's message classes one (protocol, help string) at a time
    suffixes = ["0" * (n - k) + hb for hb in all_bitstrings(b)]
    fibers = {(): (1 << (1 << k)) - 1}
    for _, tree in protos:
        for suffix in suffixes:
            classes = _bob_message_classes(tree, k, suffix, l)
            fibers = {
                label + (message,): both
                for label, fiber in fibers.items()
                for message, cls in classes.items()
                if (both := fiber & cls)
            }
    label, fiber = max(
        fibers.items(),
        key=lambda kv: (kv[1].bit_count(), tuple("~" if c is None else c for c in kv[0])),
    )
    # ascending block values, in the order all_bitstrings(k) spells them:
    # the fiber's bits, lowest first, as 0/1 bytes select block z
    selectors = format(fiber, "b")[::-1].encode().translate(_BIT_BYTES)
    members = list(compress(range(1 << k), selectors))
    floor = 1 << exponent
    if len(members) < floor:
        raise AuditFailure(
            f"best fiber has {len(members)} members, below the pigeonhole "
            f"floor 2^{exponent}"
        )
    if len(members) <= blocks - 1:
        raise AuditFailure(
            f"pigeonhole failed: best fiber has {len(members)} members, "
            f"needs more than {blocks - 1}"
        )
    picked = members[:blocks] if seed is None else sorted(Random(seed).sample(members, blocks))
    chosen = [bits_from_int(z, k) for z in picked]
    x = "".join(chosen)
    y_family = tuple(z + "0" * (n - k) for z in chosen)

    served_rows = []
    served_js = set()
    for idx, (_, tree) in enumerate(protos):
        for ha in all_bitstrings(a):
            for hb in all_bitstrings(b):
                hit = None
                for j, yj in enumerate(y_family):
                    outcome = run(tree, x + ha, yj + hb)
                    if (
                        not outcome.is_stuck
                        and outcome.output == yj
                        and outcome.cost < l
                    ):
                        if hit is not None:
                            raise AuditFailure(
                                f"protocol {idx} with help ({ha!r},{hb!r}) serves "
                                f"two members {hit} and {j} from one fiber"
                            )
                        hit = j
                if hit is not None:
                    served_js.add(hit)
                served_rows.append((idx, ha, hb, hit))
    hard_index = next(j for j in range(blocks) if j not in served_js)

    # with no help bits there is nothing to route on; one companion tree is
    # built and validated, and the cost audit runs on it
    companion_kind = "plain" if a == b == 0 else "help-routed"
    root, comp_bound = _index_exchange(chosen)
    if companion_kind == "plain":
        comp_tree = ProtocolTree.symmetric(n, root)
    else:
        comp_tree = _routed_companion(root, n)
        comp_bound += 1
    comp_cost = _exchange_cost(comp_tree, chosen)
    comp_code = pdl_encode(comp_tree)
    return HardInstance(
        k=k,
        s=s,
        l=l,
        a=a,
        b=b,
        budget=budget,
        n=n,
        protocols=tuple(code.hex() for code, _ in protos),
        fiber_label=label,
        fiber_size=len(members),
        fiber_floor=floor,
        z_blocks=tuple(chosen),
        x=x,
        y_family=y_family,
        served=tuple(served_rows),
        hard_index=hard_index,
        companion_kind=companion_kind,
        companion_hex=comp_code.hex(),
        companion_signature=(comp_tree.n_alice, comp_tree.n_bob, comp_tree.out_len),
        companion_cost=comp_cost,
        companion_bound_bits=comp_bound,
        seed=seed,
    )


def _routed_companion(exchange: object, n: int) -> ProtocolTree:
    """The exchange root behind one Alice help bit: 1 runs it, 0 answers zero.

    A genuine literal default would need 2^n leaves at these input
    lengths, and the cost claim only concerns the well-formed pairs, where
    the help bit is 1; routing costs one bit.
    """
    default = OutputLeaf(OutputFunction.const("0" * n))
    root = Speak(ALICE, NodeFunction.input_bit(n), default, exchange)
    return ProtocolTree(n + 1, n, n, root)


def th7_hard_instance(k: int, s: int, l: int, budget: int, seed: int | None = None) -> HardInstance:
    """Hard pair for one-way protocols below a description budget."""
    return _build_hard_instance(k, s, l, 0, 0, budget, seed)


def helpbit_hard_instance(
    k: int, s: int, l: int, a: int, b: int, budget: int, seed: int | None = None
) -> HardInstance:
    """Hard pair that survives a help bits for Alice and b for Bob.

    With a = b = 0 there is nothing to route on, so the result is the
    plain instance, companion included, field for field.
    """
    return _build_hard_instance(k, s, l, a, b, budget, seed)


@dataclass
class ReplayReport:
    ok: bool
    discrepancies: list = field(default_factory=list)


def replay_hard_instance(instance: HardInstance) -> ReplayReport:
    """Recompute the instance from its parameters and diff every field.

    The stored member choice is reproduced (including the seed, if any),
    so a clean replay means the certificate is byte-for-byte stable.  The
    companion is rebuilt, validated and encoded from scratch, with nothing
    kept from the build that made the instance.
    """
    fresh = _build_hard_instance(
        instance.k,
        instance.s,
        instance.l,
        instance.a,
        instance.b,
        instance.budget,
        instance.seed,
    )
    diffs = [
        f.name
        for f in fields(HardInstance)
        if f.name != "seed" and getattr(fresh, f.name) != getattr(instance, f.name)
    ]
    return ReplayReport(not diffs, diffs)


def verify_certificate(instance: HardInstance) -> bool:
    """Independent pass: the hard member defeats every enumerated protocol.

    Checks that the family is the instance's distinct blocks, each padded
    with zeros, and that x is their concatenation.  Then re-runs every
    (protocol, help) triple on every family member, refuses a triple with
    a correct conversation shorter than l on the hard member, and
    recomputes the serving table, which must equal the stored one row for
    row.  Raises AuditFailure on any discrepancy.
    """
    n, a, b, l = instance.n, instance.a, instance.b, instance.l
    blocks = instance.z_blocks
    want = tuple(z + "0" * (n - instance.k) for z in blocks), "".join(blocks)
    if (instance.y_family, instance.x) != want or not len(set(blocks)) == len(blocks) == instance.blocks:
        raise AuditFailure(f"the family is not the {instance.blocks} distinct zero-padded blocks of x")
    trees = [
        decode_signature(PdlCode.from_hex(h), n + a, n + b, n)
        for h in instance.protocols
    ]
    rows = []
    for idx, tree in enumerate(trees):
        for ha in all_bitstrings(a):
            for hb in all_bitstrings(b):
                hit = None
                for j, yj in enumerate(instance.y_family):
                    outcome = run(tree, instance.x + ha, yj + hb)
                    if not outcome.is_stuck and outcome.output == yj and outcome.cost < l:
                        if j == instance.hard_index:
                            raise AuditFailure(
                                f"protocol {idx} defeats the hard member with help ({ha!r},{hb!r})"
                            )
                        if hit is None:
                            hit = j
                rows.append((idx, ha, hb, hit))
    if tuple(rows) != instance.served:
        raise AuditFailure(
            f"serving table of {len(instance.served)} rows disagrees with the {len(rows)} re-run rows"
        )
    return True
