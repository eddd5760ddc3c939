"""Per-input communication cost under a description-length budget.

A measure fixes a protocol family (total-and-correct-everywhere, total
partially correct, or partial), an interaction shape, help bits and a
code-length budget; its value on an input pair is the cheapest correct
conversation any admissible enumerated protocol has there.

Which trees the total-and-correct-everywhere family holds depends on f,
the help counts and the budget but never on the pair, so that family is
decided once per key and kept with each member's per-depth correct cells
(`_tcc_family`); TCC values and identity profiles are read from it, and
their checks still run on every call.  A family is read from fold
classes (`_fold_classes`): each enumerated tree of a signature is folded
over the whole grid once, trees that can strand a cell are dropped, and
the rest are grouped by their leaves' (cells, depth, output), so a new
function decides each class once instead of each tree: it judges each
distinct (cells, output) leaf of the signature once, as the base pairs
it serves, and admits a class iff its leaves serve every pair.  A smaller
budget is a prefix of the canonical order, so its table and its classes
are read off the largest ones built for the signature.  The pointwise
families CC and PCC scan the enumeration folded over the pair's cells
and stop at their first free witness.  On top of the measures sit the
one-way simulation of arbitrary total identity protocols, the exchange
between describable sets and one-way senders, structure profiles over
the budget axis, and the exhaustive search for columns on which every
cheap protocol must talk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

from .bits import all_bitstrings, bits_from_int, bits_to_int, check_bits, log2ceil
from .codes import (
    PdlCode,
    _check_budget,
    _enumeration_table,
    enumerate_sets,
    pdl_encode,
)
from .constructions import message_protocol
from .errors import AuditFailure, UsageError
from .functions import FunctionSpec, _check_grid_bits, identity_fn
from .protocol import (
    HelpSpec,
    Node,
    OutputLeaf,
    ProtocolTree,
    _answers,
    _answers_every_pair,
    _base_cells,
    _bob_message_classes,
    _check_grid,
    _correct_by_depth,
    _help_cells,
    _leaf_masks,
    _no_stuck,
    _slid_onto_pairs,
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
    which only Bob speaks; help extends both inputs by trusted bits.
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


# the largest input length the exhaustive family scans below accept
_EXHAUSTIVE_MAX_N = 3


def check_exhaustive_n(n: int, what: str = "exhaustive measures") -> None:
    """Refuse an input length past _EXHAUSTIVE_MAX_N before any work."""
    if n > _EXHAUSTIVE_MAX_N:
        raise UsageError(f"{what} support n <= {_EXHAUSTIVE_MAX_N}, got n = {n}")


def _admissible(root: Node, m: Measure, f: FunctionSpec) -> bool:
    """Whether the tree with this root belongs to the measure's protocol family."""
    if m.family == "PCC":
        return True
    # correct on every pair means no pair is stranded; with help bits only
    # one help string per pair has to answer, so the others still need the
    # totality test
    leaves = _leaf_masks(root, f.n + m.help.alice_bits, f.n + m.help.bob_bits)
    if not _no_stuck(leaves):
        return False
    return m.family == "CC" or _answers_every_pair(leaves, f, m.help)


# Fold classes per signature (na, nb, out_len), as (trees folded, classes,
# {(cells, output kind, output value): leaf id}), most recently used last
# and oldest dropped past the limit; see _fold_classes.
_class_store: dict = {}
_CLASS_LIMIT = 64


def _fold_classes(na: int, nb: int, out_len: int, table: tuple) -> dict:
    """{fold: ((leaf ids, leaves), members)} over the never-stuck trees of a table.

    Each tree is folded over the whole (na, nb) grid once (`_leaf_masks`);
    a tree with a reachable stuck leaf can be in no TCC family and is
    dropped.  The rest are grouped by their fold, the sorted (cells,
    depth, output kind, output value) of their leaves, on which both TCC
    admissibility and the per-depth correct cells depend; leaves is the
    fold of the class's first member and members its ascending table
    indices.  The leaf ids number the signature's distinct (cells, output
    kind, output value) leaves in the store, so `_tcc_family` judges each
    leaf once.  A table is a prefix of the signature's larger tables, so
    the store covers the largest table seen and folds (and numbers the
    leaves of) only the trees past it; a caller reads the members below
    its own table's length.
    """
    signature = na, nb, out_len
    folded, classes, leaf_ids = _class_store.pop(signature, (0, {}, {}))
    for i in range(folded, len(table)):
        leaves = _leaf_masks(table[i][1], na, nb)
        if not _no_stuck(leaves):
            continue
        fold = tuple(sorted(
            (cells, path.bit_length() - 1, leaf.fn.kind, leaf.fn.value) for cells, path, leaf in leaves
        ))
        entry = classes.get(fold)
        if entry is None:
            ids = tuple(leaf_ids.setdefault((c, k, v), len(leaf_ids)) for c, _, k, v in fold)
            classes[fold] = (ids, leaves), [i]
        else:
            entry[1].append(i)
    _class_store[signature] = max(folded, len(table)), classes, leaf_ids
    if len(_class_store) > _CLASS_LIMIT:
        del _class_store[next(iter(_class_store))]
    return classes


@lru_cache(maxsize=64)
def _tcc_family(f: FunctionSpec, alice_bits: int, bob_bits: int, alpha: int) -> tuple:
    """(bits, one_way, correct_at) for every TCC-admissible tree, in canonical order.

    The trees are those of `_enumeration_table(n + alice_bits, n + bob_bits,
    n, alpha)`; correct_at is the tree's ascending (depth, cells) of correct
    cells, as `protocol._correct_at` builds them.  Both depend on the tree
    only through its fold, so each class of `_fold_classes` is decided once
    and its members below the table's length take its correct_at; the
    classes are shared by every function and budget of the signature.
    Each distinct leaf of the signature, numbered in the class store, is
    judged once: the base pairs its correct cells serve
    (`_slid_onto_pairs`).  A smaller table judges them all as well; reading
    the verdicts by id is cheaper than a memo keyed by (cells, output).  A
    class is admitted iff the OR of its leaves' served pairs is every pair,
    the rule `computes_everywhere` applies to one tree.
    Both interaction shapes share an entry: one_way marks the trees in
    which only Bob speaks.  Nothing is checked here, so callers run their
    checks on every call before asking.
    """
    n = f.n
    na, nb = n + alice_bits, n + bob_bits
    answers = _answers(f, alice_bits, bob_bits)
    table = _enumeration_table(na, nb, n, alpha)
    classes = _fold_classes(na, nb, n, table)
    served = [
        _slid_onto_pairs(cells & answers(kind, value), n, alice_bits, bob_bits)
        for cells, kind, value in _class_store[na, nb, n][2]
    ]
    base = _base_cells(n, alice_bits, bob_bits)
    members = []
    for (ids, leaves), indices in classes.values():
        if indices[0] >= len(table):
            continue
        covered = 0
        for i in ids:
            covered |= served[i]
        if covered != base:
            continue
        correct_at = _correct_by_depth(leaves, answers)
        members.extend((i, correct_at) for i in indices if i < len(table))
    members.sort(key=lambda member: member[0])
    return tuple(
        (table[i][0], node_is_one_way(table[i][1]), correct_at) for i, correct_at in members
    )


def individual_cc(m: Measure, f: FunctionSpec, x: str, y: str):
    """Cheapest correct conversation on (x, y) within the measure's family.

    Returns (bits, witness code); the minimum of an empty family is
    infinity with no witness.  Ties go to the canonically first code, so
    a scan stops at the first admissible witness that costs nothing.
    A tree's cost is the least depth of a leaf that answers f on one of
    the cells of (x, y) and its help strings.  TCC reads the cached
    family of `_tcc_family`, where that is the least depth whose correct
    cells meet the pair's; CC and PCC scan the enumeration folded over
    the pair's cells only.  Every check runs on every call.
    """
    n = f.n
    check_exhaustive_n(n)
    _check_budget(m.alpha)
    a, b = m.help.alice_bits, m.help.bob_bits
    _check_grid_bits(2 * n + a + b, "help-extended input grid")
    pair = _help_cells(n, a, b, x, y)
    best, best_bits = INF, None
    if m.family == "TCC":
        for bits, bob_only, correct_at in _tcc_family(f, a, b, m.alpha):
            if m.one_way and not bob_only:
                continue
            cost = next((depth for depth, cells in correct_at if cells & pair), INF)
            if cost < best:
                best, best_bits = cost, bits
                if cost == 0:
                    break
        return best, None if best_bits is None else PdlCode(best_bits)
    answers = _answers(f, a, b)
    for bits, node in _enumeration_table(n + a, n + b, n, m.alpha):
        if m.one_way and not node_is_one_way(node):
            continue
        cost = INF
        for cells, path, leaf in _leaf_masks(node, n + a, n + b, pair):
            depth = path.bit_length() - 1
            if depth < cost and type(leaf) is OutputLeaf:
                if cells & answers(leaf.fn.kind, leaf.fn.value):
                    cost = depth
        if cost >= best or not _admissible(node, m, f):
            continue
        best, best_bits = cost, bits
        if cost == 0:
            break
    return best, None if best_bits is None else PdlCode(best_bits)


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

    @staticmethod
    def _format_value(v) -> str:
        if v == INF:
            return "inf"
        if isinstance(v, float) and not v.is_integer():
            return f"{v:.10g}"
        return str(int(v))

    def to_csv(self) -> str:
        lines = ["alpha,value,witness_hex"]
        for alpha in sorted(self.entries):
            v, w = self.entries[alpha]
            lines.append(f"{alpha},{self._format_value(v)},{w.hex() if w else ''}")
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


def _depth_at(correct_at, cell: int) -> int:
    """Depth of the correct leaf that the cell reaches; every cell must have one."""
    return next(depth for depth, cells in correct_at if cells >> cell & 1)


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
    if n > 4:
        raise UsageError("set profiles support n <= 4")
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
    """One- and two-way TCC identity profiles of column y, from one cached family.

    Folds `_tcc_family(identity_fn(n), 0, 0, alpha_max)`, which depends
    only on (n, alpha_max); its one-way members are exactly the one-way
    family, in the same canonical order.  The checks run on every call.
    """
    n = len(check_bits(y))
    check_exhaustive_n(n, "identity profiles")
    _check_budget(alpha_max)
    f = identity_fn(n)
    rows = [x] if x is not None else list(all_bitstrings(n))
    for row in rows:
        check_bits(row, n)

    admissible = [
        (PdlCode(bits), bob_only, correct_at)
        for bits, bob_only, correct_at in _tcc_family(f, 0, 0, alpha_max)
    ]
    column = bits_to_int(y)
    # an admissible tree answers every cell, so a cell's value is its leaf's depth
    one_way = _fold_profile(
        f"oneway({y})",
        alpha_max,
        (
            (len(code.bits), _depth_at(correct_at, column), code)
            for code, bob_only, correct_at in admissible
            if bob_only
        ),
    )
    two_way = {}
    for row in rows:
        cell = bits_to_int(row) << n | column
        two_way[row] = _fold_profile(
            f"twoway({row},{y})",
            alpha_max,
            ((len(code.bits), _depth_at(correct_at, cell), code) for code, _, correct_at in admissible),
        )

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
    the scanned pair) and returns the lexicographically first column at
    or above the threshold, falling back to the first maximizer if the
    counting guarantee has no bite in the enumerated family.
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
