"""Per-input communication cost under a description-length budget.

A measure fixes a protocol family (total-and-correct-everywhere, total
partially correct, or partial), an interaction shape, help bits and a
code-length budget; its value on an input pair is the cheapest correct
conversation any admissible enumerated protocol has there.

The total-and-correct-everywhere (TCC) members depend on f, the help
counts and the budget but never on the pair, so they are one cached
record per (f, help counts, budget) (`_tcc_family`), read per pair: it
keeps the mask of the admitted fold classes and every pair's staircase,
the strict improvements of its cost over the members of each shape in
canonical order, each step with its code built once.  A TCC value is the
pair's last step and an identity profile's value at a budget is the last
step whose code fits, so no query walks the members; their checks still
run on every call.  The member list is built only where it is counted
(`_tcc_members`).  The record is read from fold classes
(`_fold_classes`): each enumerated tree of a signature is folded over
the whole grid once, trees that can strand a cell are dropped, and the
rest are grouped by their shape, one-way or two-way, and their leaves'
(depth, cells, output).  The cells that reach a leaf form a rectangle
fixed by the tree alone, so what a class can announce on each pair
depends on the signature and not on f: with the classes the signature
keeps an index, for each pair and value, of the classes with a leaf
announcing that value on the pair.  A new function admits the classes of
that index at its own value on every pair, one AND per pair, and a
class's cost on a pair is read off the same index: the least depth of a
leaf announcing f's value there (`_class_costs`).  Each staircase is
offered, in canonical order, the admitted classes of its shape, every
one for two-way, and costs only those that can lower it: those whose
least leaf depth, the first entry of the class's depth-sorted fold,
undercuts the shape's greatest last step.  Classes are numbered in
canonical order of their first members, and a smaller budget is a
prefix of that order, so its table and its classes are read off the
largest ones built for the signature; no query walks a member tree once
they exist.  CC and PCC need no enumeration: a tree of cost 0 on a pair
is a lone output leaf, and any tree correct on the pair holds a leaf
correct there that alone is total, one-way and no longer, so both values
are 0 once the canonically first correct lone leaf fits the budget and
infinite before (`individual_cc`).  On top of the measures sit the
one-way simulation of arbitrary total identity protocols, the exchange
between describable sets and one-way senders, structure profiles over
the budget axis, and the exhaustive search for columns on which every
cheap protocol must talk.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .bits import all_bitstrings, bits_from_int, bits_to_int, check_bits, log2ceil
from .codes import (
    _MAX_SET_N,
    PdlCode,
    _check_budget,
    _code_bits,
    _enumeration_table,
    enumerate_sets,
    pdl_encode,
)
from .constructions import message_protocol
from .errors import AuditFailure, UsageError
from .functions import FunctionSpec, _check_grid_bits, identity_fn
from .protocol import (
    HelpSpec,
    OutputFunction,
    ProtocolTree,
    _bob_message_classes,
    _check_grid,
    _help_cells,
    _leaf_masks,
    _no_stuck,
    _pairs_of,
    cc_with_help,
    computes_everywhere,
    default_depth_cap,
    is_one_way,
    node_is_one_way,
    run,
)

INF = float("inf")

FAMILIES = ("TCC", "CC", "PCC")


@dataclass(frozen=True)
class Measure:
    """A protocol family plus the budget its members must fit in.

    family picks the correctness demand: TCC admits only protocols that
    never strand a pair and answer correctly on all of them, CC admits
    total protocols correct at least on the queried pair, PCC admits any
    protocol correct on the queried pair.  one_way restricts to trees in
    which only Bob speaks; help extends both inputs by trusted bits.  CC
    and PCC never differ: both are answered by one lone output leaf, in
    either shape and for every help count (`individual_cc`).
    """

    family: str = "TCC"
    one_way: bool = False
    help: HelpSpec = HelpSpec()
    alpha: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise UsageError(f"unknown measure family {self.family!r}")
        if self.alpha < 0:
            raise UsageError("budget must be nonnegative")


# the largest input length the exhaustive families below accept
_EXHAUSTIVE_MAX_N = 3


def check_exhaustive_n(n: int, what: str = "exhaustive measures") -> None:
    """Refuse an input length past _EXHAUSTIVE_MAX_N before any work."""
    if n > _EXHAUSTIVE_MAX_N:
        raise UsageError(f"{what} support n <= {_EXHAUSTIVE_MAX_N}, got n = {n}")


# Fold classes and their index per signature (na, nb, out_len), most
# recently used last and oldest dropped past the limit; see _fold_classes.
_class_store: dict = {}
_CLASS_LIMIT = 64


@dataclass
class _FoldClasses:
    """The (shape, fold) classes of a signature's never-stuck trees, and an index of what they announce.

    Class c is the c-th distinct (shape, fold) met in canonical order:
    folds[c] is the sorted (depth, cells, output kind, output value) of its
    members' leaves, so folds[c][0][0] is the least leaf depth, which no
    member's cost on any pair undercuts; members[c] are their ascending
    table indices, and bit c of the one_way mask is set iff only Bob speaks
    in them.  A fold met in both shapes is two classes, twins that differ
    only in that bit.  A class is numbered when its first member is
    folded, so the classes of a table are a prefix of the numbering
    (`prefix`).  Neither the classes nor the index depends on a function.
    announced maps each distinct (cells, output kind, output value) leaf to
    the (value, pairs) it announces: pairs has bit x << n | y set for each
    base pair with a help-extended cell in the leaf on which the output is
    value, n being the output width.  cover[x << n | y][v] has bit c set
    iff some leaf of class c announces v on the pair (x, y).  folded counts
    the table roots folded so far.
    """

    folded: int = 0
    folds: list = field(default_factory=list)
    members: list = field(default_factory=list)
    one_way: int = 0
    numbers: dict = field(default_factory=dict)  # (one_way, fold) -> class number
    announced: dict = field(default_factory=dict)
    cover: list = field(default_factory=list)

    def prefix(self, size: int) -> int:
        """The mask of the classes whose first member is among a table's first size roots."""
        return (1 << bisect_left(self.members, size, key=itemgetter(0))) - 1


def _fold_classes(na: int, nb: int, out_len: int, roots: tuple) -> _FoldClasses:
    """The fold classes of the never-stuck trees among a table's roots, kept per signature.

    Each tree is folded over the whole (na, nb) grid once (`_leaf_masks`); a
    tree with a reachable stuck leaf can be in no TCC family and is dropped.
    The rest are grouped by their shape, read once per tree
    (`node_is_one_way`), and their fold, on which both TCC admissibility and
    the per-pair costs depend.  A new class sets its bit in cover
    at each (pair, value) its leaves announce; a new leaf's announcements
    are read off one tabulation, per distinct output, of the grid rows on
    which it announces each value, and slid onto the base pairs over the
    help strings (`_pairs_of`).  Help bits trail the n = out_len base
    bits of each input, so a signature with an input narrower than its
    output has no base pairs and an empty cover.  A table is a prefix of the
    signature's larger tables, so the entry covers the largest table seen
    and folds only the trees past it; a caller reads the classes below its
    own table's `prefix`.  The codes play no part.  Only this function reads the store.
    """
    signature = na, nb, out_len
    classes = _class_store.pop(signature, None)
    if classes is None:
        pair_count = 1 << 2 * out_len if min(na, nb) >= out_len else 0
        classes = _FoldClasses(cover=[{} for _ in range(pair_count)])
    n, alice_bits, bob_bits = out_len, na - out_len, nb - out_len
    full_row = (1 << (1 << nb)) - 1
    rows_by_output: dict = {}  # (kind, value) -> {v: cells of the rows on which the output is v}
    new_classes: dict = {}  # a class's {(v, pairs)} -> mask of the classes numbered here that announce it
    for i in range(classes.folded, len(roots)):
        leaves = _leaf_masks(roots[i], na, nb)
        if not _no_stuck(leaves):
            continue
        fold = tuple(sorted(
            (path.bit_length() - 1, cells, leaf.fn.kind, leaf.fn.value) for cells, path, leaf in leaves
        ))
        one_way = node_is_one_way(roots[i])
        c = classes.numbers.setdefault((one_way, fold), len(classes.folds))
        if c < len(classes.folds):
            classes.members[c].append(i)
            continue
        classes.folds.append(fold)
        classes.members.append([i])
        classes.one_way |= one_way << c
        if not classes.cover:
            continue
        pairs_by_value: dict = {}
        for _, cells, kind, value in fold:
            said = classes.announced.get((cells, kind, value))
            if said is None:
                rows = rows_by_output.get((kind, value))
                if rows is None:
                    rows = rows_by_output[kind, value] = {}
                    for xa, v in enumerate(OutputFunction(kind, value).evaluate_all(na, out_len)):
                        rows[v] = rows.get(v, 0) | full_row << (xa << nb)
                said = classes.announced[cells, kind, value] = tuple(
                    (v, _pairs_of(cells & r, n, alice_bits, bob_bits)) for v, r in rows.items() if cells & r
                )
            for v, pairs in said:
                pairs_by_value[v] = pairs_by_value.get(v, 0) | pairs
        # classes that announce alike share one pass over the pairs below
        key = frozenset(pairs_by_value.items())
        new_classes[key] = new_classes.get(key, 0) | 1 << c
    for key, mask in new_classes.items():
        for v, pairs in key:
            while pairs:
                by_value = classes.cover[(pairs & -pairs).bit_length() - 1]
                by_value[v] = by_value.get(v, 0) | mask
                pairs &= pairs - 1
    classes.folded = max(classes.folded, len(roots))
    _class_store[signature] = classes
    if len(_class_store) > _CLASS_LIMIT:
        del _class_store[next(iter(_class_store))]
    return classes


@lru_cache(maxsize=64)
def _tcc_family(f: FunctionSpec, alice_bits: int, bob_bits: int, alpha: int) -> tuple:
    """(admitted, steps): the mask of the TCC fold classes and every pair's staircase.

    The trees are those of `_enumeration_table(n + alice_bits, n + bob_bits,
    n, alpha)`, and admitted has bit c set for each class c of
    `_fold_classes` whose members are TCC members; `_tcc_members` lists
    them.  steps[shape][x << n | y] is the staircase of pair (x, y): the
    (code length, cost, code) at which its cost strictly falls over the
    shape's members in canonical order, shape 0 being two-way (every
    member) and shape 1 one-way, and each code a `PdlCode` built here once.
    Its last step is the pair's TCC value and witness, and the last step
    whose code fits a smaller budget is the value at that budget.  Nothing
    is checked here, so callers run their checks on every call before
    asking.

    Membership depends on the tree only through its fold, and the classes
    are shared by every function and budget of the signature.  A tree
    computes f everywhere iff on every pair some leaf announces f there
    under some help string, the rule of `computes_everywhere`, so the
    admitted classes are the table's prefix ANDed with the cover of every
    pair at f's value on it, one AND per pair and none after the mask
    empties.  An admitted class's members share its shape and its per-pair
    costs (`_class_costs`), so only its first member can add a step: a
    later one ties and loses on canonical order, and so does a later twin
    of the other shape in the two-way staircase.  Classes are numbered in canonical order of their
    first members, so the two-way staircase is offered the admitted classes
    in ascending order and the one-way staircase those of them in the
    one_way mask.  An offer adds no step unless its class's least leaf
    depth undercuts the greatest last step of its shape, since the class
    costs at least that depth everywhere; only then is the class costed.
    """
    n = f.n
    na, nb = n + alice_bits, n + bob_bits
    codes, roots = _enumeration_table(na, nb, n, alpha)
    classes = _fold_classes(na, nb, n, roots)
    admitted = classes.prefix(len(roots))
    for by_value, v in zip(classes.cover, f.words):
        admitted &= by_value.get(v, 0)
        if not admitted:
            empty = ((),) * (1 << 2 * n)
            return 0, (empty, empty)
    costs_of, steps = {}, []
    for offered in (admitted, admitted & classes.one_way):
        shape_steps = [[] for _ in f.words]
        ceiling = INF
        while offered:
            c = (offered & -offered).bit_length() - 1
            offered &= offered - 1
            if classes.folds[c][0][0] >= ceiling:
                continue
            costs = costs_of.get(c)
            if costs is None:
                costs = costs_of[c] = _class_costs(classes, c, f.words)
            bits = _code_bits(codes[classes.members[c][0]])
            length, code = len(bits), PdlCode(bits)
            for stairs, cost in zip(shape_steps, costs):
                if not stairs or cost < stairs[-1][1]:
                    stairs.append((length, cost, code))
            ceiling = max(stairs[-1][1] for stairs in shape_steps)
        steps.append(tuple(map(tuple, shape_steps)))
    return admitted, tuple(steps)


def _class_costs(classes: _FoldClasses, c: int, values: tuple) -> tuple:
    """Class c's cost on every pair x << n | y when values[x << n | y] is the answer there.

    The least depth of a leaf whose announcement index entry holds the
    pair's value on the pair, infinity where none does.  The fold is
    sorted by depth, so a pair's first hit is its cost.
    """
    costs = [INF] * len(values)
    for depth, cells, kind, value in classes.folds[c]:
        for v, pairs in classes.announced[cells, kind, value]:
            for p, want in enumerate(values):
                if costs[p] == INF and want == v and pairs >> p & 1:
                    costs[p] = depth
    return tuple(costs)


def _tcc_members(f: FunctionSpec, alice_bits: int, bob_bits: int, alpha: int) -> tuple:
    """The TCC members in canonical order, as (bits, one_way, costs), built on each call.

    The members of the classes `_tcc_family` admits, below its table's
    length: costs holds the class's cost on every pair x << n | y, the
    member's `cc_with_help` there (`_class_costs`), and one_way, read off
    the class, marks the trees in which only Bob speaks.  No query reads
    this; it serves the audits that list the family and the tests.
    """
    n = f.n
    na, nb = n + alice_bits, n + bob_bits
    admitted = _tcc_family(f, alice_bits, bob_bits, alpha)[0]
    codes, roots = _enumeration_table(na, nb, n, alpha)
    classes = _fold_classes(na, nb, n, roots)
    members = []
    while admitted:
        c = (admitted & -admitted).bit_length() - 1
        admitted &= admitted - 1
        entry = bool(classes.one_way >> c & 1), _class_costs(classes, c, f.words)
        members.extend((i, entry) for i in classes.members[c] if i < len(codes))
    members.sort(key=itemgetter(0))
    return tuple((_code_bits(codes[i]), *entry) for i, entry in members)


def individual_cc(m: Measure, f: FunctionSpec, x: str, y: str):
    """Cheapest correct conversation on (x, y) within the measure's family.

    Returns (bits, witness code); the minimum of an empty family is
    infinity with no witness, and ties go to the canonically first code.
    Every check runs on every call, before the family is looked at.

    CC and PCC are the module docstring's closed form in either shape and
    for every Bob help count.  The first correct lone leaf is `copy_x`
    ("10" "01") when v = f(x, y) is x and Alice has no help bits to widen
    her input, else the constant v ("10" "00" v): an xor leaf ties it in
    length but follows it in canonical order.  v is read from the table at
    the pair's checked indices.  A TCC value is the last step of the pair's
    staircase in the shape's part of the `_tcc_family` record, so a query
    reads one entry and walks no member.
    """
    n = f.n
    check_exhaustive_n(n)
    _check_budget(m.alpha)
    a, b = m.help.alice_bits, m.help.bob_bits
    _check_grid_bits(2 * n + a + b, "help-extended input grid")
    _help_cells(n, a, b, x, y)  # checks x and y
    row, col = int(x, 2), int(y, 2)
    if m.family != "TCC":
        v = f.words[row << n | col]
        if not a and v == x and m.alpha >= 4:
            return 0, PdlCode("1001")
        if m.alpha >= 4 + n:
            return 0, PdlCode("1000" + v)
        return INF, None
    stairs = _tcc_family(f, a, b, m.alpha)[1][m.one_way][row << n | col]
    if not stairs:
        return INF, None
    return stairs[-1][1:]


# ---------------------------------------------------------------------------
# one-way simulation of total identity protocols


@dataclass
class OneWaySimulation:
    """One-way sender distilled from a total two-way identity protocol.

    messages maps each column to the message Bob sends in tree; code is
    the tree's canonical description.
    """

    tree: ProtocolTree
    code: PdlCode
    messages: dict


def one_way_from_two_way(tree: ProtocolTree) -> OneWaySimulation:
    """Collapse a total identity protocol to its cheapest-per-column messages.

    For every column the sender transmits the (length, lex)-least
    transcript the original protocol produces on that column; since a
    total correct identity protocol pins each transcript to a single
    column, these messages are distinct and prefix-free, and the new
    cost on every pair never exceeds the old one.
    """
    if not tree.is_symmetric:
        raise UsageError("expected a symmetric identity protocol")
    n = tree.n
    f = identity_fn(n)
    _check_grid(tree)
    if not computes_everywhere(tree, f):
        raise UsageError("protocol is not total and correct for the identity")
    strings = list(all_bitstrings(n))
    transcripts = {(row, col): run(tree, row, col).transcript for row in strings for col in strings}
    messages = {
        col: min((transcripts[row, col] for row in strings), key=lambda t: (len(t), t))
        for col in strings
    }
    if len(set(messages.values())) != 1 << n:
        raise AuditFailure("two columns share a transcript in a correct protocol")
    sim = message_protocol(messages, n)
    for (row, col), transcript in transcripts.items():
        after = cc_with_help(sim, f, row, col)
        if after > len(transcript):
            raise AuditFailure(
                f"one-way cost {after} exceeds two-way cost {len(transcript)} on ({row},{col})"
            )
    return OneWaySimulation(sim, pdl_encode(sim), messages)


# ---------------------------------------------------------------------------
# describable sets vs one-way senders


def set_to_oneway(members, n: int) -> ProtocolTree:
    """Sender announcing membership rank, or the column itself outside.

    Inside the set the message is a 1 flag plus the ceil(log2 |S|)-bit
    rank in sorted order; outside it is a 0 flag plus the column
    literally.  Total and correct for the identity on every pair.
    """
    ordered = sorted(members)
    if not ordered:
        raise UsageError("the set must be nonempty")
    for m in ordered:
        check_bits(m, n)
    width = log2ceil(len(ordered))
    rank = {m: i for i, m in enumerate(ordered)}
    messages = {}
    for col in all_bitstrings(n):
        if col in rank:
            messages[col] = "1" + bits_from_int(rank[col], width)
        else:
            messages[col] = "0" + col
    return message_protocol(messages, n)


def _message_lengths(tree: ProtocolTree) -> list:
    """The length of Bob's message on every column, in column order.

    Read from one fold of `_bob_message_classes`; the tree must be one-way
    and never stuck, as the identity senders here are.
    """
    n = tree.n_bob
    classes = _bob_message_classes(tree, n, "", default_depth_cap(tree.n_alice, n) + 1)
    return [next(len(m) for m, cols in classes.items() if cols >> col & 1) for col in range(1 << n)]


def oneway_to_set(tree: ProtocolTree, y: str) -> frozenset:
    """Columns whose message length matches y's; a set of size <= 2^length.

    The sender must be one-way, total and correct for the identity, so
    distinct columns carry distinct messages and the same-length class
    containing y has at most 2^length members.
    """
    if not tree.is_symmetric:
        raise UsageError("expected a symmetric identity protocol")
    n = tree.n
    check_bits(y, n)
    if not is_one_way(tree):
        raise UsageError("expected a one-way protocol")
    if not computes_everywhere(tree, identity_fn(n)):
        raise UsageError("protocol is not total and correct for the identity")
    lengths = _message_lengths(tree)
    target = lengths[bits_to_int(y)]
    result = frozenset(
        col for col, length in zip(all_bitstrings(n), lengths) if length == target
    )
    if y not in result:
        raise AuditFailure("the defining column fell out of its own class")
    if len(result) > (1 << target):
        raise AuditFailure(
            f"{len(result)} columns share a {target}-bit message length"
        )
    return result


# ---------------------------------------------------------------------------
# profiles over the budget axis


def format_value(v) -> str:
    """A measure's value as `cclab cc` and the profile CSV print it."""
    if v == INF:
        return "inf"
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.10g}"
    return str(int(v))


@dataclass
class ComplexityProfile:
    """Value and witness per budget; values never increase with budget."""

    label: str
    entries: dict  # alpha -> (value, witness code or None)

    SCHEMA = "cclab-profile/1"

    def value(self, alpha: int):
        return self.entries[alpha][0]

    def witness(self, alpha: int):
        return self.entries[alpha][1]

    def assert_nonincreasing(self) -> None:
        last = INF
        for alpha in sorted(self.entries):
            v = self.entries[alpha][0]
            if v > last:
                raise AuditFailure(
                    f"profile {self.label} rises at budget {alpha}: {last} -> {v}"
                )
            last = v

    def to_csv(self) -> str:
        lines = ["alpha,value,witness_hex"]
        for alpha in sorted(self.entries):
            v, w = self.entries[alpha]
            lines.append(f"{alpha},{format_value(v)},{w.hex() if w else ''}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        rows = []
        for alpha in sorted(self.entries):
            v, w = self.entries[alpha]
            rows.append(
                {
                    "alpha": alpha,
                    "value": None if v == INF else v,
                    "witness": w.hex() if w else None,
                }
            )
        return json.dumps(
            {"schema": self.SCHEMA, "label": self.label, "entries": rows},
            indent=2,
        )


def _fold_profile(label: str, alpha_max: int, candidates) -> ComplexityProfile:
    """Prefix-minimum over code length; candidates iterate in canonical order."""
    entries = {a: (INF, None) for a in range(alpha_max + 1)}
    for length, value, witness in candidates:
        for a in range(length, alpha_max + 1):
            if value < entries[a][0]:
                entries[a] = (value, witness)
    profile = ComplexityProfile(label, entries)
    profile.assert_nonincreasing()
    return profile


def structure_function_profile(y: str, alpha_max: int) -> ComplexityProfile:
    """Least log-size of a describable set containing y, per set-code budget."""
    n = len(check_bits(y))
    if n > _MAX_SET_N:
        raise UsageError(f"set profiles support n <= {_MAX_SET_N}")
    _check_budget(alpha_max)

    def candidates():
        for code, members in enumerate_sets(n, alpha_max):
            if y in members:
                yield len(code.bits), math.log2(len(members)), code

    return _fold_profile(f"sets({y})", alpha_max, candidates())


@dataclass
class AgreementRow:
    alpha: int
    x: str
    two_way: float
    one_way: float

    @property
    def equal(self) -> bool:
        return self.two_way == self.one_way


@dataclass
class TccProfileReport:
    """Identity profiles of one column, with the x-freeness audit.

    one_way is the x-free profile (message length of the best admissible
    sender); two_way maps each row to its own profile.  agreement lists
    both values per (budget, row); a two-way value above the one-way
    value at the same budget fails the audit.
    """

    y: str
    one_way: ComplexityProfile
    two_way: dict
    agreement: list


def tcc_identity_profile(y: str, alpha_max: int, x: str | None = None) -> TccProfileReport:
    """One- and two-way TCC identity profiles of column y, from one cached record.

    Reads the staircases of `_tcc_family(identity_fn(n), 0, 0, alpha_max)`,
    which depends only on (n, alpha_max): a pair's value at a budget is its
    last step whose code fits, the prefix minimum of its steps
    (`_fold_profile`), one-way from pair (0, y), since a one-way tree's
    cost does not depend on the row, and two-way from (row, y) for each
    row.  The checks run on every call.
    """
    n = len(check_bits(y))
    check_exhaustive_n(n, "identity profiles")
    _check_budget(alpha_max)
    f = identity_fn(n)
    rows = [x] if x is not None else list(all_bitstrings(n))
    for row in rows:
        check_bits(row, n)

    steps = _tcc_family(f, 0, 0, alpha_max)[1]
    column = bits_to_int(y)
    one_way = _fold_profile(f"oneway({y})", alpha_max, steps[1][column])
    two_way = {
        row: _fold_profile(f"twoway({row},{y})", alpha_max, steps[0][bits_to_int(row) << n | column])
        for row in rows
    }

    agreement = [
        AgreementRow(a, row, two_way[row].value(a), one_way.value(a))
        for a in range(alpha_max + 1)
        for row in rows
    ]
    for r in agreement:
        if r.two_way > r.one_way:
            raise AuditFailure(
                "two-way minimum exceeds one-way minimum at equal budget"
            )
    return TccProfileReport(y, one_way, two_way, agreement)


# ---------------------------------------------------------------------------
# hard columns by counting


@dataclass
class HardYReport:
    """Exhaustive per-column cost map with the counting audit.

    threshold is n - alpha; qualifying columns reach it.  count_below
    must stay under 2^n for the hard column to exist by counting; when
    the threshold is nonpositive every column qualifies vacuously and
    the note says so.
    """

    n: int
    alpha: int
    x: str
    y: str
    value: float
    values: dict
    threshold: int
    count_below: int
    note: str = ""


def find_hard_y(n: int, alpha: int, x: str) -> HardYReport:
    """First column whose budget-limited cost reaches n - alpha.

    Scans all columns under the CC measure (total protocols, correct on
    the scanned pair), read in closed form from one lone leaf per column,
    and returns the lexicographically first column at or above the
    threshold, falling back to the first maximizer if the counting
    guarantee has no bite in the enumerated family.
    """
    check_exhaustive_n(n, "exhaustive searches")
    check_bits(x, n)
    m = Measure(family="CC", alpha=alpha)
    f = identity_fn(n)
    values = {}
    for y in all_bitstrings(n):
        values[y] = individual_cc(m, f, x, y)[0]
    threshold = n - alpha
    count_below = sum(1 for v in values.values() if v < threshold)
    if count_below >= 1 << n:
        raise AuditFailure("counting bound violated: every column is cheap")
    note = ""
    if threshold <= 0:
        note = "threshold is nonpositive, every column qualifies vacuously"
    hard = next((y for y, v in values.items() if v >= threshold), None)
    if hard is None:
        top = max(values.values())
        hard = next(y for y, v in values.items() if v == top)
        note = "no column reaches the threshold; returning the first maximizer"
    return HardYReport(
        n, alpha, x, hard, values[hard], values, threshold, count_below, note
    )
