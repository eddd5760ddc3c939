"""Verification suites: each headline claim re-checked as a replayable list.

Every suite walks the relevant family exhaustively at a stated budget and
records one CheckResult per claim.  Quantifiers over enumerated families
that are empty at the cap are reported as vacuous with the reason in the
witness text, never silently skipped; constructed reference protocols
then carry the non-vacuous content for the same claim.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import islice

from .bits import all_bitstrings, bits_from_int, bits_to_int, log2ceil
from .codes import (
    _MAX_CERTIFICATE_BYTES,
    PdlCode,
    _check_budget,
    _code_bits,
    _enumeration_table,
    decode_signature,
    enumerate_sets,
    enumerate_signature,
    pdl_complexity,
    sdl_encode,
)
from .complexity import (
    INF,
    _message_lengths,
    _tcc_members,
    find_hard_y,
    one_way_from_two_way,
    oneway_to_set,
    set_to_oneway,
    structure_function_profile,
    tcc_identity_profile,
)
from .constructions import (
    HardInstance,
    equality_shortcut_protocol,
    helpbit_hard_instance,
    replay_hard_instance,
    th7_hard_instance,
    th7_protocol,
    verify_certificate,
)
from .errors import AuditFailure, CclabError, RectangleViolation, UsageError
from .functions import _read_bounded, equality_fn, identity_fn, inner_product_fn
from .protocol import (
    TOTALIZER_MODES,
    HelpSpec,
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    _pairs_within,
    cc_with_help,
    computes_everywhere,
    help_bit_totalizer,
    is_total,
    run,
    value_as_help_protocol,
)
from .rectangles import (
    equality_diagonal_bound,
    ip_rectangle_audit,
    transcript_partition,
)
from .reference import equality_protocols, identity_protocols, ip_protocols

# suite sizes: codes sampled at n = 3 and the budgets the scans walk up to
_RECTANGLE_SAMPLE = 1000
_THEOREM1_BUDGET = 20
_COUNTING_BUDGET = 10
_PROFILES_BUDGET = 20
_TOTALIZER_BUDGET = 20


@dataclass(frozen=True)
class CheckResult:
    claim: str
    ok: bool
    slack: float | int | None = None
    witness: str = ""

    def to_text(self) -> str:
        mark = "[ OK ]" if self.ok else "[FAIL]"
        parts = [mark, self.claim]
        if self.slack is not None:
            s = self.slack
            parts.append(f"(slack={int(s) if isinstance(s, float) and s.is_integer() else s})")
        if self.witness:
            parts.append(f"-- {self.witness}")
        return " ".join(parts)


@dataclass
class VerificationReport:
    suite: str
    checks: list = field(default_factory=list)
    runtime: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        # runtime deliberately left out: stdout stays bit-for-bit reproducible
        lines = [f"suite: {self.suite}"]
        lines.extend(c.to_text() for c in self.checks)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"result: {verdict} ({len(self.checks)} checks)")
        return "\n".join(lines) + "\n"


class _Collector:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list = []
        self.started = time.perf_counter()

    def add(self, claim: str, ok: bool, slack=None, witness: str = "") -> None:
        self.checks.append(CheckResult(claim, bool(ok), slack, witness))

    def report(self) -> VerificationReport:
        return VerificationReport(self.suite, self.checks, time.perf_counter() - self.started)


# ---------------------------------------------------------------------------
# rectangles


def verify_rectangles() -> VerificationReport:
    out = _Collector("rectangles")

    audited = 0
    totals_covered = True
    failure = ""
    for code, tree in enumerate_signature(2, 2, 2, 10):
        try:
            partition = transcript_partition(tree)
        except RectangleViolation as exc:
            failure = f"{code.bits}: {exc}"
            break
        audited += 1
        if is_total(tree) and not partition.is_total_cover:
            totals_covered = False
            failure = f"total protocol {code.bits} leaves pairs uncovered"
            break
    out.add(
        "n2-exhaustive-rectangles",
        failure == "",
        slack=audited,
        witness=failure or f"all {audited} protocols at budget 10 partition into rectangles",
    )
    out.add(
        "n2-total-protocols-cover-grid",
        totals_covered,
        witness=failure if not totals_covered else "every total protocol covers all 16 pairs",
    )

    stream = enumerate_signature(3, 3, 3, 18)
    taken = 0
    failure = ""
    for code, tree in islice(stream, _RECTANGLE_SAMPLE):
        try:
            transcript_partition(tree)
        except RectangleViolation as exc:
            failure = f"{code.bits}: {exc}"
            break
        taken += 1
    out.add(
        "n3-sample-rectangles",
        failure == "" and taken == _RECTANGLE_SAMPLE,
        slack=taken,
        witness=failure or f"first {taken} canonical codes at n=3, budget 18",
    )
    return out.report()


# ---------------------------------------------------------------------------
# one-way simulation of two-way protocols


def _everywhere_correct(f, budget: int, one_way: bool = False):
    """(code, tree) for the total everywhere-correct protocols of f, in canonical order.

    Without help bits these are the TCC members that `_tcc_members` lists
    from the classes the cached record admits, and only they are built as
    trees.
    """
    _check_budget(budget)
    n = f.n
    for bits, bob_only, _ in _tcc_members(f, 0, 0, budget):
        if bob_only or not one_way:
            yield PdlCode(bits), decode_signature(bits, n, n, n)


def _simulation_scan(out, claim: str, protocols, n: int, gate: int | None):
    """Pointwise audit plus measured witness-code growth over a family."""
    f = identity_fn(n)
    worst_growth = None
    count = 0
    failure = ""
    for label, tree, source_len in protocols:
        count += 1
        try:
            sim = one_way_from_two_way(tree)
        except CclabError as exc:
            failure = f"{label}: {exc}"
            break
        for y in all_bitstrings(n):
            for x in all_bitstrings(n):
                if len(sim.messages[y]) > cc_with_help(tree, f, x, y):
                    failure = f"{label}: message beats no run on ({x},{y})"
                    break
            if failure:
                break
        if failure:
            break
        growth = len(sim.code.bits) - source_len
        if worst_growth is None or growth > worst_growth:
            worst_growth = growth
    ok = failure == "" and count > 0
    if gate is not None and worst_growth is not None:
        ok = ok and worst_growth <= gate
    out.add(
        claim,
        ok,
        slack=worst_growth,
        witness=failure
        or f"{count} protocols, worst one-way code growth {worst_growth} bits",
    )


def verify_theorem1() -> VerificationReport:
    out = _Collector("theorem1")

    family = [
        (code.bits, tree, len(code.bits))
        for code, tree in _everywhere_correct(identity_fn(1), _THEOREM1_BUDGET)
    ]
    _simulation_scan(out, "n1-enumerated-simulation", family, 1, gate=8)

    for y in all_bitstrings(1):
        profile = tcc_identity_profile(y, _THEOREM1_BUDGET)
        worst = 0
        for a in range(_THEOREM1_BUDGET + 1):
            two = min(p.value(a) for p in profile.two_way.values())
            if two == INF:
                continue
            g = next(
                (
                    g
                    for g in range(_THEOREM1_BUDGET + 1 - a)
                    if profile.one_way.value(a + g) <= two
                ),
                None,
            )
            if g is None:
                worst = INF
                break
            worst = max(worst, g)
        out.add(
            f"n1-profile-agreement-y{y}",
            worst != INF and worst <= 8,
            slack=worst,
            witness=f"one-way profile matches two-way within {worst} budget bits",
        )

    n2_family = list(_everywhere_correct(identity_fn(2), _THEOREM1_BUDGET))
    out.add(
        "n2-enumerated-family-empty",
        len(n2_family) == 0,
        slack=len(n2_family),
        witness="no total everywhere-correct identity protocol fits the cap at n=2; "
        "the pointwise quantifier is vacuous there",
    )

    for y in all_bitstrings(2):
        profile = tcc_identity_profile(y, _THEOREM1_BUDGET)
        mismatches = sum(1 for r in profile.agreement if not r.equal)
        out.add(
            f"n2-profile-agreement-y{y}",
            mismatches == 0,
            slack=0,
            witness="both profiles are identically infinite within the cap",
        )

    constructed = [
        (name, tree, pdl_complexity(tree))
        for name, tree in sorted(identity_protocols(2).items())
    ]
    _simulation_scan(out, "n2-constructed-simulation", constructed, 2, gate=None)
    return out.report()


# ---------------------------------------------------------------------------
# inner product


def verify_ip_bound() -> VerificationReport:
    out = _Collector("ip-bound")
    for n in (2, 3):
        for name, tree in sorted(ip_protocols(n).items()):
            try:
                report = ip_rectangle_audit(tree)
            except CclabError as exc:
                out.add(f"n{n}-{name}", False, witness=str(exc))
                continue
            out.add(
                f"n{n}-{name}",
                report.max_product <= report.bound,
                slack=report.bound - report.max_product,
                witness=f"{len(report.records)} refined classes, "
                f"max |X|*|Y| = {report.max_product} <= {report.bound}",
            )

    stray = sum(1 for _ in _everywhere_correct(inner_product_fn(2), 20))
    out.add(
        "n2-enumerated-family-empty",
        stray == 0,
        slack=stray,
        witness="no enumerated protocol computes inner product everywhere within "
        "the cap; constructed protocols carry the audit",
    )
    return out.report()


# ---------------------------------------------------------------------------
# equality


def verify_eq_shortcut() -> VerificationReport:
    out = _Collector("eq-shortcut")
    for n in (2, 3):
        f = equality_fn(n)
        tree = equality_shortcut_protocol(n)
        out.add(
            f"n{n}-shortcut-everywhere-correct",
            computes_everywhere(tree, f),
            witness="output matches equality on every pair",
        )
        expected = 1 << (2 * (n - 1))
        designated = [
            (x, y)
            for x in all_bitstrings(n)
            if x[0] == "0"
            for y in all_bitstrings(n)
            if y[0] == "1"
        ]
        bad = [(x, y) for x, y in designated if run(tree, x, y).cost != 2]
        out.add(
            f"n{n}-shortcut-two-bit-pairs",
            len(designated) == expected and not bad,
            slack=len(designated) - expected,
            witness=f"all {len(designated)} (x starts 0, y starts 1) pairs cost exactly 2"
            if not bad
            else f"pair {bad[0]} costs {run(tree, *bad[0]).cost}",
        )
        for name, audited in sorted(equality_protocols(n).items()):
            try:
                report = equality_diagonal_bound(audited)
            except CclabError as exc:
                out.add(f"n{n}-diagonal-{name}", False, witness=str(exc))
                continue
            out.add(
                f"n{n}-diagonal-{name}",
                report.distinct == 1 << n and report.max_length >= n,
                slack=report.max_length - n,
                witness=f"{report.distinct} distinct diagonal transcripts, "
                f"max length {report.max_length}",
            )
    return out.report()


# ---------------------------------------------------------------------------
# counting


def verify_counting() -> VerificationReport:
    out = _Collector("counting")
    n = 2
    for alpha in range(_COUNTING_BUDGET + 1):
        worst_count = 0
        failure = ""
        hard_reports = []
        for x in all_bitstrings(n):
            try:
                report = find_hard_y(n, alpha, x)
            except AuditFailure as exc:
                failure = f"x={x}: {exc}"
                break
            hard_reports.append(report)
            worst_count = max(worst_count, report.count_below)
            if report.threshold > 0 and report.value < report.threshold:
                failure = f"x={x}: hard column {report.y} has value {report.value}"
                break
        note = hard_reports[0].note if hard_reports else ""
        out.add(
            f"alpha{alpha}-count-bound",
            failure == "",
            slack=(1 << n) - worst_count,
            witness=failure or note or f"max #cheap columns {worst_count} < {1 << n}",
        )
        if failure:
            continue

        # independent scan: recompute the reported hard value straight from runs
        for report in hard_reports:
            best = INF
            for code, tree in enumerate_signature(n, n, n, alpha):
                if not is_total(tree):
                    continue
                outcome = run(tree, report.x, report.y)
                if outcome.is_stuck or outcome.output != report.y:
                    continue
                best = min(best, outcome.cost)
            if best != report.value:
                failure = f"x={report.x}: rescan got {best}, reported {report.value}"
                break
        out.add(
            f"alpha{alpha}-hard-value-rescan",
            failure == "",
            witness=failure or "direct enumeration agrees on every reported hard value",
        )
    return out.report()


# ---------------------------------------------------------------------------
# set / one-way exchange


def verify_equiv() -> VerificationReport:
    out = _Collector("equiv")

    audited = 0
    failure = ""
    for code, members in enumerate_sets(3, 20):
        tree = set_to_oneway(members, 3)
        want = 1 + log2ceil(len(members))
        lengths = _message_lengths(tree)
        for y in sorted(members):
            got = lengths[bits_to_int(y)]
            if got != want:
                failure = f"set {sorted(members)}: message {got} != {want} on y={y}"
                break
        audited += 1
        if failure:
            break
    out.add(
        "n3-set-to-oneway-exact",
        failure == "",
        slack=audited,
        witness=failure or f"all {audited} describable sets hit 1+ceil(log2|S|) exactly",
    )

    oneway_n2 = list(_everywhere_correct(identity_fn(2), 20, one_way=True))
    out.add(
        "n2-enumerated-oneway-family-empty",
        len(oneway_n2) == 0,
        slack=len(oneway_n2),
        witness="no one-way total identity protocol fits the cap at n=2; "
        "the bound is exercised at n=1 and on derived senders instead",
    )

    f1 = identity_fn(1)
    audited = 0
    failure = ""
    for code, tree in _everywhere_correct(f1, 20, one_way=True):
        audited += 1
        lengths = _message_lengths(tree)
        for y in all_bitstrings(1):
            members = oneway_to_set(tree, y)
            if math.log2(len(members)) > lengths[bits_to_int(y)]:
                failure = f"{code.bits}: set of {len(members)} beats its message on y={y}"
                break
        if failure:
            break
    out.add(
        "n1-oneway-to-set-bound",
        failure == "" and audited > 0,
        slack=audited,
        witness=failure or f"{audited} one-way total identity protocols at n=1",
    )

    failure = ""
    audited = 0
    for code, members in enumerate_sets(3, 20):
        sender = set_to_oneway(members, 3)
        y = min(members)
        back = oneway_to_set(sender, y)
        if not members <= back:
            failure = f"set {sorted(members)}: round trip lost members"
            break
        if math.log2(len(back)) > _message_lengths(sender)[bits_to_int(y)]:
            failure = f"set {sorted(members)}: recovered class too large"
            break
        audited += 1
    out.add(
        "n3-roundtrip-derived-senders",
        failure == "",
        slack=audited,
        witness=failure or f"{audited} derived senders round-trip within the bound",
    )
    return out.report()


# ---------------------------------------------------------------------------
# profiles


def _naive_set_profiles(n: int, alpha_max: int) -> dict:
    """All-subsets oracle for every y of length n, independent of enumeration.

    Each subset is encoded once and then improves the profile of every
    one of its members.
    """
    universe = [format(v, f"0{n}b") for v in range(1 << n)]
    best = {y: {a: INF for a in range(alpha_max + 1)} for y in universe}
    for mask in range(1, 1 << len(universe)):
        members = frozenset(universe[i] for i in range(len(universe)) if mask >> i & 1)
        cost = len(sdl_encode(members, n).bits)
        if cost > alpha_max:
            continue
        value = math.log2(len(members))
        for y in members:
            row = best[y]
            for a in range(cost, alpha_max + 1):
                if value < row[a]:
                    row[a] = value
    return best


def verify_profiles() -> VerificationReport:
    out = _Collector("profiles")

    oracles = _naive_set_profiles(2, _PROFILES_BUDGET)
    for y in all_bitstrings(2):
        sets = structure_function_profile(y, _PROFILES_BUDGET)
        identity = tcc_identity_profile(y, _PROFILES_BUDGET)
        failure = ""
        try:
            sets.assert_nonincreasing()
            identity.one_way.assert_nonincreasing()
            for p in identity.two_way.values():
                p.assert_nonincreasing()
        except AuditFailure as exc:
            failure = str(exc)
        out.add(f"n2-nonincreasing-y{y}", failure == "", witness=failure)

        oracle = oracles[y]
        mismatch = next(
            (a for a in range(_PROFILES_BUDGET + 1) if oracle[a] != sets.value(a)), None
        )
        out.add(
            f"n2-naive-oracle-y{y}",
            mismatch is None,
            witness="" if mismatch is None else f"first mismatch at budget {mismatch}",
        )

    oracles = _naive_set_profiles(4, _PROFILES_BUDGET)
    for y in all_bitstrings(4):
        sets = structure_function_profile(y, _PROFILES_BUDGET)
        failure = ""
        try:
            sets.assert_nonincreasing()
        except AuditFailure as exc:
            failure = str(exc)
        oracle = oracles[y]
        mismatch = next(
            (a for a in range(_PROFILES_BUDGET + 1) if oracle[a] != sets.value(a)), None
        )
        out.add(
            f"n4-sets-y{y}",
            failure == "" and mismatch is None,
            witness=failure
            or ("" if mismatch is None else f"first mismatch at budget {mismatch}"),
        )
    return out.report()


# ---------------------------------------------------------------------------
# index exchange (upper and lower bound engine)


def _lex_members(k: int, count: int) -> list:
    return [format(v, f"0{k}b") for v in range(count)]


def _instance_checks(out: _Collector, label: str, instance: HardInstance) -> None:
    try:
        verify_certificate(instance)
        cert = ""
    except CclabError as exc:
        cert = str(exc)
    out.add(
        f"{label}-certificate",
        cert == "",
        slack=len(instance.protocols),
        witness=cert
        or f"hard pair defeats all {len(instance.protocols)} enumerated protocols",
    )
    replay = replay_hard_instance(instance)
    out.add(
        f"{label}-replay",
        replay.ok,
        slack=len(replay.discrepancies),
        witness="; ".join(replay.discrepancies[:3]) or "zero discrepancies",
    )
    out.add(
        f"{label}-fiber-floor",
        instance.fiber_size >= instance.fiber_floor,
        slack=instance.fiber_size - instance.fiber_floor,
        witness=f"fiber {instance.fiber_size} >= floor {instance.fiber_floor}",
    )


def _replayed(suite: str, path: str) -> VerificationReport:
    out = _Collector(suite)
    instance = HardInstance.from_json(_read_bounded(path, _MAX_CERTIFICATE_BYTES, "certificate", "utf-8"))
    _instance_checks(out, "replayed", instance)
    return out.report()


def verify_th7(replay: str | None = None) -> VerificationReport:
    if replay is not None:
        return _replayed("th7", replay)
    out = _Collector("th7")

    for s, k in ((1, 2), (2, 4), (2, 8)):
        members = _lex_members(k, (1 << s) + 1)
        try:
            report = th7_protocol(members, k=k)
        except CclabError as exc:
            out.add(f"identify-s{s}-k{k}", False, witness=str(exc))
            continue
        bound = (1 << s) * log2ceil(2 * k)
        out.add(
            f"identify-s{s}-k{k}",
            report.cost <= bound,
            slack=bound - report.cost,
            witness=f"every member identified at cost {report.cost} <= {bound}",
        )

    instance = th7_hard_instance(10, 1, 2, 6)
    _instance_checks(out, "budget6", instance)

    degenerate = th7_hard_instance(10, 1, 2, 1)
    out.add(
        "budget1-degenerate",
        len(degenerate.protocols) == 0 and verify_certificate(degenerate),
        slack=degenerate.fiber_size,
        witness="empty enumerated family certifies vacuously; instance still replays",
    )
    return out.report()


# ---------------------------------------------------------------------------
# help bits


def _totalizer_violation(code, tree: ProtocolTree, f) -> str:
    """The first (mode, pair) at which a wrap costs more than min(cost + 1, n + 1), or "".

    Read from per-depth pair masks (`_pairs_within`): every pair must have
    helped cost at most n + 1, and for t = 1 .. n the pairs of base cost at
    most t - 1 helped cost at most t.  Only the lowest pair that breaks the
    first failing mode is asked on its own (`cc_with_help`), to spell the
    witness.
    """
    n = f.n
    every = (1 << (1 << 2 * n)) - 1
    base = _pairs_within(tree, f, HelpSpec(), n - 1)
    for mode, spec in TOTALIZER_MODES.items():
        wrapped = help_bit_totalizer(tree, f, mode)
        helped = _pairs_within(wrapped, f, spec, n + 1)
        broken = every & ~helped[n + 1]
        for t in range(1, n + 1):
            broken |= base[t - 1] & ~helped[t]
        if broken:
            p = (broken & -broken).bit_length() - 1
            pair = tuple(bits_from_int(v, n) for v in divmod(p, 1 << n))
            cost = cc_with_help(tree, f, *pair)
            bound = n + 1 if cost == INF else min(cost + 1, n + 1)
            got = cc_with_help(wrapped, f, *pair, spec)
            return f"{code.bits} mode {mode}: helped cost {got} > {bound} on {pair}"
    return ""


def verify_helpbits(replay: str | None = None) -> VerificationReport:
    if replay is not None:
        return _replayed("helpbits", replay)
    out = _Collector("helpbits")

    # every tree is wrapped for both functions in turn, so they share its lifts
    fns = (identity_fn(2), equality_fn(2))
    checked = [0] * len(fns)
    failure = [""] * len(fns)
    for code, tree in enumerate_signature(2, 2, 2, _TOTALIZER_BUDGET):
        live = [i for i, text in enumerate(failure) if not text]
        if not live:
            break
        for i in live:
            failure[i] = _totalizer_violation(code, tree, fns[i])
            checked[i] += 1
    for f, count, text in zip(fns, checked, failure):
        out.add(
            f"totalizer-exhaustive-{f.name}",
            text == "",
            slack=count,
            witness=text or f"{count} protocols x 3 modes stay within min(cost+1, n+1)",
        )

    # a zero-extra-bits totalizer cannot exist in this tree model: any
    # speaking root already costs one bit, and a bare output leaf with one
    # help bit per side reaches at most 2 of the 4 identity outputs per row
    spec = HelpSpec(1, 1)
    leaf_roots = 0
    speak_roots = 0
    failure = ""
    # only the roots are read, so no tree is built; a root is decided row
    # by row from the outputs on x + ha for both help strings ha
    outputs_wanted = set(all_bitstrings(2))
    rows = [(x + "0", x + "1") for x in all_bitstrings(2)]
    for code, root in zip(*_enumeration_table(3, 3, 2, 20)):
        if isinstance(root, OutputLeaf):
            leaf_roots += 1
            evaluate = root.fn.evaluate
            covered = all(
                outputs_wanted <= {evaluate(u0, 2), evaluate(u1, 2)} for u0, u1 in rows
            )
            if covered:
                failure = f"{_code_bits(code)}: leaf covers every pair at cost 0"
                break
        else:
            speak_roots += 1
    # stuck runs are never correct, so only completed runs need cost >= 1
    speak_cost_ok = True
    for _, tree in islice(enumerate_signature(3, 3, 2, 20), 200):
        if isinstance(tree.root, OutputLeaf):
            continue
        outcome = run(tree, "000", "000")
        if not outcome.is_stuck and outcome.cost < 1:
            speak_cost_ok = False
            break
    out.add(
        "plus-zero-refuted-n2",
        failure == "" and speak_cost_ok and leaf_roots > 0,
        slack=leaf_roots,
        witness=failure
        or f"{leaf_roots} leaf-rooted codes all miss some pair; "
        f"{speak_roots} speaking roots each cost >= 1 structurally",
    )

    f1 = identity_fn(1)
    passthrough = ProtocolTree(
        2, 2, 1, OutputLeaf(OutputFunction.from_map(2, 1, lambda u: u[1]))
    )
    zero_everywhere = all(
        cc_with_help(passthrough, f1, x, y, spec) == 0
        for x in all_bitstrings(1)
        for y in all_bitstrings(1)
    )
    out.add(
        "plus-zero-realized-n1",
        zero_everywhere,
        witness="help-bit passthrough answers every n=1 identity pair at cost 0",
    )

    for n in (2, 3):
        for f in (equality_fn(n), inner_product_fn(n)):
            tree = value_as_help_protocol(f)
            costs = {
                cc_with_help(tree, f, x, y, HelpSpec(1, 0))
                for x in all_bitstrings(n)
                for y in all_bitstrings(n)
            }
            out.add(
                f"value-as-help-{f.name}-n{n}",
                costs == {0},
                witness="announced help bit is correct at cost 0 on every pair",
            )

    plain = th7_hard_instance(10, 1, 2, 6)
    routed_off = helpbit_hard_instance(10, 1, 2, 0, 0, 6)
    out.add(
        "a0b0-reproduces-plain-instance",
        routed_off == plain,
        witness="helpbit engine with a=b=0 returns the identical certificate",
    )

    instance = helpbit_hard_instance(11, 1, 2, 1, 1, 6)
    _instance_checks(out, "a1b1", instance)
    return out.report()


SUITES = {
    "rectangles": verify_rectangles,
    "theorem1": verify_theorem1,
    "ip-bound": verify_ip_bound,
    "eq-shortcut": verify_eq_shortcut,
    "counting": verify_counting,
    "equiv": verify_equiv,
    "profiles": verify_profiles,
    "th7": verify_th7,
    "helpbits": verify_helpbits,
}

REPLAYABLE = ("th7", "helpbits")


def run_suite(name: str, replay: str | None = None) -> VerificationReport:
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    if replay is not None:
        if name not in REPLAYABLE:
            raise UsageError(f"suite {name!r} does not accept --replay")
        return SUITES[name](replay=replay)
    return SUITES[name]()
