"""Per-input communication cost under a description-length budget.

A measure fixes a protocol family (total-and-correct-everywhere, total
partially correct, or partial), an interaction shape, help bits and a
code-length budget; its value on an input pair is the cheapest correct
conversation any admissible enumerated protocol has there.  On top of
the measures sit the one-way simulation of arbitrary total identity
protocols, the exchange between describable sets and one-way senders,
structure profiles over the budget axis, and the exhaustive search for
columns on which every cheap protocol must talk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .bits import all_bitstrings, bits_from_int, check_bits, log2ceil
from .codes import PdlCode, budget_cap, enumerate_sets, enumerate_signature, pdl_encode
from .constructions import message_protocol
from .errors import AuditFailure, UsageError
from .functions import _EXHAUSTIVE_LIMIT, FunctionSpec, identity_fn
from .protocol import (
    HelpSpec,
    ProtocolTree,
    _check_grid,
    bob_message,
    cc_on_input,
    cc_with_help,
    computes_everywhere,
    is_one_way,
    is_total,
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


def _admissible(tree: ProtocolTree, m: Measure, f: FunctionSpec) -> bool:
    """Whether the tree belongs to the measure's protocol family."""
    if m.family == "PCC":
        return True
    if m.family == "CC":
        return is_total(tree)
    # correct on every pair means no pair is stranded; with help bits only
    # one help string per pair has to answer, so the others still need the
    # totality test
    return computes_everywhere(tree, f, m.help) and (m.help == HelpSpec() or is_total(tree))


def individual_cc(m: Measure, f: FunctionSpec, x: str, y: str):
    """Cheapest correct conversation on (x, y) within the measure's family.

    Returns (bits, witness code); the minimum of an empty family is
    infinity with no witness.  Ties go to the canonically first code, so
    the scan stops at the first admissible witness that costs nothing.
    """
    n = f.n
    if n > 3:
        raise UsageError("exhaustive measures support n <= 3")
    if m.alpha > budget_cap():
        raise UsageError(f"budget {m.alpha} exceeds the enumeration cap")
    a, b = m.help.alice_bits, m.help.bob_bits
    if 1 << (2 * n + a + b) > _EXHAUSTIVE_LIMIT:
        raise UsageError("help-extended input grid too large for an exhaustive measure")
    check_bits(x, n)
    check_bits(y, n)
    best: tuple = (INF, None)
    for code, tree in enumerate_signature(
        n + a, n + b, n, m.alpha, require_one_way=m.one_way
    ):
        cost = cc_with_help(tree, f, x, y, m.help)
        if cost >= best[0] or not _admissible(tree, m, f):
            continue
        best = (cost, code)
        if cost == 0:
            break
    return best


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
        after = cc_on_input(sim, f, row, col)
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
    target = len(bob_message(tree, y))
    result = frozenset(
        col for col in all_bitstrings(n) if len(bob_message(tree, col)) == target
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
    if alpha_max > budget_cap():
        raise UsageError(f"budget {alpha_max} exceeds the enumeration cap")

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
    """One- and two-way TCC identity profiles of column y, from one family scan.

    The one-way members of the admissible two-way family are exactly the
    one-way family, in the same canonical order.
    """
    n = len(check_bits(y))
    if n > 3:
        raise UsageError("identity profiles support n <= 3")
    if alpha_max > budget_cap():
        raise UsageError(f"budget {alpha_max} exceeds the enumeration cap")
    f = identity_fn(n)
    rows = [x] if x is not None else list(all_bitstrings(n))
    for row in rows:
        check_bits(row, n)

    admissible = [
        (code, tree)
        for code, tree in enumerate_signature(n, n, n, alpha_max)
        if computes_everywhere(tree, f)
    ]
    one_way = _fold_profile(
        f"oneway({y})",
        alpha_max,
        (
            (len(code.bits), len(bob_message(tree, y)), code)
            for code, tree in admissible
            if is_one_way(tree)
        ),
    )
    two_way = {}
    for row in rows:
        two_way[row] = _fold_profile(
            f"twoway({row},{y})",
            alpha_max,
            (
                (len(code.bits), cc_on_input(tree, f, row, y), code)
                for code, tree in admissible
            ),
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
    if n > 3:
        raise UsageError("exhaustive search supports n <= 3")
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
