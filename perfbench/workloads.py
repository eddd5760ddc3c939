"""The benchmark's workloads: the operations each one makes from a seed.

A workload's warm_up() lists the calls that warm it up (the same public
calls its operations make, once per distinct protocol family, so every lazy
cache is full before timing); rounds() then yields rounds.  A round holds the same kinds of operation in the
same numbers every time, with inputs drawn from the seed; no operation
repeats within a run.  A workload whose pool of distinct inputs runs dry
ends the run after its last whole round.

Operations call the program through module attributes at call time, so the
traced run sees the wrappers that tracer.install puts in place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import cclab
from cclab.rectangles import Rectangle

import checks
from checks import require, strings


@dataclass
class Op:
    """One operation; timed=False marks a refusal probe, counted only as attempted or failed."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    timed: bool = True


@dataclass
class Round:
    ops: list
    after: Callable[[dict], None] | None = None  # checks across operations, on {name: result}


def _drawn(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _make_fn(name: str, n: int):
    return {"identity": cclab.identity_fn, "eq": cclab.equality_fn, "ip": cclab.inner_product_fn}[name](n)


# ---------------------------------------------------------------------------
# queries: per-input values and profiles from the measure layer

QUERY_FUNCTIONS = ("identity", "eq", "ip")
FAMILIES = ("TCC", "CC", "PCC")
# budget per (n, help bits): the upper part of the enumerable range, picked
# so that a helped query walks about as long as a plain one
QUERY_BUDGETS = {
    (1, (0, 0)): 20, (1, (1, 0)): 20, (1, (0, 1)): 19, (1, (1, 1)): 19,
    (2, (0, 0)): 20, (2, (1, 0)): 19, (2, (0, 1)): 19, (2, (1, 1)): 19,
    (3, (0, 0)): 20, (3, (1, 0)): 20, (3, (0, 1)): 20, (3, (1, 1)): 20,
}
PROFILE_BUDGETS = {1: (18, 19, 20), 2: (19,)}
HARD_Y_BUDGETS = (15, 16, 17, 18)


class Queries:
    """individual_cc on sibling measures, tcc_identity_profile and find_hard_y."""

    def __init__(self) -> None:
        self.fns = {(name, n): _make_fn(name, n) for name in QUERY_FUNCTIONS for n in (1, 2, 3)}

    def warm_up(self) -> list:
        calls = []
        for (n, help_bits), alpha in QUERY_BUDGETS.items():
            for one_way in (False, True):
                measure = cclab.Measure("TCC", one_way, cclab.HelpSpec(*help_bits), alpha)
                f = self.fns["identity", n]
                calls.append(lambda m=measure, f=f, z="0" * n: cclab.individual_cc(m, f, z, z))
        for n, alphas in PROFILE_BUDGETS.items():
            for alpha in alphas:
                calls.append(lambda z="0" * n, a=alpha: cclab.tcc_identity_profile(z, a, x=z))
        for alpha in HARD_Y_BUDGETS:
            calls.append(lambda a=alpha: cclab.find_hard_y(2, a, "00"))
        return calls

    def rounds(self, rng: random.Random):
        groups = {
            key: _drawn(rng, [
                (f, x, y) for f in QUERY_FUNCTIONS for x in strings(key[0]) for y in strings(key[0])
                if (f, x, y) != ("identity", "0" * key[0], "0" * key[0])
            ])
            for key in QUERY_BUDGETS
        }
        profiles = {
            n: _drawn(rng, [
                (y, x, alpha) for alpha in alphas for y in strings(n) for x in [None] + strings(n)
                if (y, x) != ("0" * n, "0" * n)
            ])
            for n, alphas in PROFILE_BUDGETS.items()
        }
        hard = _drawn(rng, [(x, a) for a in HARD_Y_BUDGETS for x in strings(2) if x != "00"])
        pools = list(groups.values()) + list(profiles.values()) + [hard]
        r = 0
        while all(r < len(pool) for pool in pools):
            units = [self._group(key, *groups[key][r]) for key in QUERY_BUDGETS]
            units += [[self._profile(*profiles[n][r])] for n in PROFILE_BUDGETS]
            units.append([self._hard_y(*hard[r])])
            rng.shuffle(units)
            ops = [op for unit in units for op in unit]
            yield Round(ops, self._siblings)
            r += 1

    def _group(self, key, fname: str, x: str, y: str) -> list:
        n, help_bits = key
        alpha = QUERY_BUDGETS[key]
        f = self.fns[fname, n]
        ops = []
        for family in FAMILIES:
            for one_way in (False, True):
                measure = cclab.Measure(family, one_way, cclab.HelpSpec(*help_bits), alpha)
                name = f"cc/{fname}/{x}/{y}/h{help_bits[0]}{help_bits[1]}/{family}/{'one' if one_way else 'two'}"
                ops.append(Op(
                    name,
                    lambda m=measure: cclab.individual_cc(m, f, x, y),
                    lambda res, fam=family, ow=one_way: checks.check_individual(
                        res, fname, x, y, fam, ow, help_bits, alpha),
                ))
        return ops

    @staticmethod
    def _siblings(results: dict) -> None:
        groups: dict = {}
        for name, result in results.items():
            if name.startswith("cc/"):
                _, fname, x, y, help_tag, family, way = name.split("/")
                groups.setdefault((fname, x, y, help_tag), {})[family, way == "one"] = result[0]
        for values in groups.values():
            if len(values) == 2 * len(FAMILIES):  # a failed sibling is already counted
                checks.check_siblings(values)

    @staticmethod
    def _profile(y: str, x: str | None, alpha: int) -> Op:
        return Op(
            f"profile/{y}/{x}/{alpha}",
            lambda: cclab.tcc_identity_profile(y, alpha, x=x),
            lambda report: checks.check_profile(report, y, alpha, x),
        )

    @staticmethod
    def _hard_y(x: str, alpha: int) -> Op:
        return Op(
            f"hard_y/{x}/{alpha}",
            lambda: cclab.find_hard_y(2, alpha, x),
            lambda report: checks.check_hard_y(report, 2, alpha),
        )


# ---------------------------------------------------------------------------
# helpbits: the help-bit laws on enumerated (2,2,2) protocols

HELP_MODES = (("both", (1, 1)), ("alice-only", (1, 0)), ("bob-only", (0, 1)))
HELPBITS_BUDGET = 20  # the helpbits suite's totalizer budget
PAIRS = [(x, y) for x in strings(2) for y in strings(2)]


class HelpBits:
    """Base cost and the three totalizer modes on all 16 pairs, for identity and equality."""

    def __init__(self) -> None:
        self.fns = {"identity": cclab.identity_fn(2), "eq": cclab.equality_fn(2)}
        self.trees: list = []

    def warm_up(self) -> list:
        def enumerate_family():
            self.trees = [tree for _, tree in cclab.enumerate_signature(2, 2, 2, HELPBITS_BUDGET)]

        return [enumerate_family, lambda: self._laws(self.trees[0])]

    def _laws(self, tree) -> dict:
        out = {}
        for fname, f in self.fns.items():
            base = {(x, y): cclab.cc_on_input(tree, f, x, y) for x, y in PAIRS}
            helped = {}
            for mode, help_bits in HELP_MODES:
                wrapped = cclab.help_bit_totalizer(tree, f, mode)
                spec = cclab.HelpSpec(*help_bits)
                helped[mode] = {(x, y): cclab.cc_with_help(wrapped, f, x, y, spec) for x, y in PAIRS}
            out[fname] = base, helped
        return out

    def _check(self, tree, result: dict) -> None:
        require(sorted(result) == sorted(self.fns), "help-bit laws miss a function")
        for fname, (base, helped) in result.items():
            require(sorted(helped) == sorted(m for m, _ in HELP_MODES), "help-bit laws miss a mode")
            checks.check_helpbits(tree, fname, base, helped)

    def rounds(self, rng: random.Random):
        for i in _drawn(rng, range(1, len(self.trees))):
            tree = self.trees[i]
            yield Round([Op(f"helpbits/{i}", lambda t=tree: self._laws(t),
                            lambda res, t=tree: self._check(t, res))])


# ---------------------------------------------------------------------------
# certificates: hard instances, whole-table baselines and rectangle audits

TH7 = dict(s=1, l=2, budget=6)          # the th7 suite's parameters
HELPBIT = dict(s=1, l=2, a=1, b=1, budget=6)
RECT_N = {"eq": 5, "ip": 4}
# One round's ten timed operations fall into three cost tiers: four near
# 25 ms (a dcc batch, th7 at k=10, the two audits), three near 55 ms (th7
# at k=11) and three near 105 ms (help-bit instances).  The median then
# lies inside the middle tier and the 90th percentile inside the top one,
# each a single kind of operation, away from the gaps between tiers.
ROUND_TH7_K = (10, 11, 11, 11)
ROUND_HELPBIT = 3
ROUND_DCC = 1
MALFORMED = (
    # HardInstance.from_json must refuse these with UsageError
    lambda r: '{"schema": "cclab-hard-instance/1", "round": %d}' % r,
    lambda r: '["cclab-hard-instance/1", %d]' % r,
)


def _certificate(build) -> tuple:
    instance = build()
    back = cclab.HardInstance.from_json(instance.to_json())
    return instance, back, cclab.replay_hard_instance(back), cclab.verify_certificate(back)


def _check_certificate(result) -> None:
    instance, back, replay, verified = result
    require(verified is True, "verify_certificate did not confirm the certificate")
    checks.check_instance(instance, back, replay)


def _refuses(text: str) -> bool:
    try:
        cclab.HardInstance.from_json(text)
    except cclab.UsageError:
        return True
    return False


def _solve_tables(tables) -> list:
    return [cclab.dcc_exact(cclab.FunctionSpec("table", 2, boolean, cells)) for cells, boolean in tables]


def _check_tables(tables, results) -> None:
    require(len(results) == len(tables), "dcc answers missing")
    for (cells, boolean), result in zip(tables, results):
        checks.check_dcc(result, cells, boolean)


def _audited(fname: str, rect: Rectangle) -> tuple:
    tree = cclab.large_rectangle_shortcut(_make_fn(fname, RECT_N[fname]), [rect])
    audit = cclab.ip_rectangle_audit if fname == "ip" else cclab.equality_diagonal_bound
    return tree, cclab.transcript_partition(tree), audit(tree)


def _check_audited(fname: str, result) -> None:
    tree, partition, report = result
    (checks.check_ip_audit if fname == "ip" else checks.check_diagonal)(tree, partition, report)


class PoolExhausted(Exception):
    """No fresh input left to draw."""


class Certificates:
    """th7 and help-bit hard instances, dcc_exact on random n=2 tables, rectangle audits."""

    def warm_up(self) -> list:
        eq_universe, ip_universe = strings(RECT_N["eq"]), strings(RECT_N["ip"])
        quadrant = Rectangle(frozenset(x for x in eq_universe if x[0] == "0"),
                             frozenset(y for y in eq_universe if y[0] == "1"))
        return [
            lambda: _certificate(lambda: cclab.th7_hard_instance(10, **TH7)),
            lambda: _certificate(lambda: cclab.th7_hard_instance(11, **TH7)),
            lambda: _certificate(lambda: cclab.helpbit_hard_instance(11, **HELPBIT)),
            lambda: _solve_tables([(cclab.equality_fn(2).cells, True), (cclab.identity_fn(2).cells, False)]),
            lambda: _audited("eq", quadrant),
            lambda: _audited("ip", Rectangle(frozenset([ip_universe[0]]), frozenset(ip_universe))),
        ]

    def rounds(self, rng: random.Random):
        seen: set = set()

        def fresh(draw):
            for _ in range(1000):
                key = draw()
                if key not in seen:
                    seen.add(key)
                    return key
            raise PoolExhausted

        r = 0
        while True:
            try:
                th7 = [fresh(lambda k=k: ("th7", k, rng.getrandbits(32)))[1:] for k in ROUND_TH7_K]
                helpbit_seeds = [fresh(lambda: ("helpbit", rng.getrandbits(32)))[1]
                                 for _ in range(ROUND_HELPBIT)]
                tables = [[fresh(lambda b=b: _random_table(rng, b)) for b in (True, False, True, False)]
                          for _ in range(ROUND_DCC)]
                rects = [fresh(lambda: _random_eq_rectangle(rng)), fresh(lambda: _random_ip_rectangle(rng))]
            except PoolExhausted:
                return
            ops = [
                Op(f"th7/{k}/{seed}",
                   lambda k=k, seed=seed: _certificate(lambda: cclab.th7_hard_instance(k, seed=seed, **TH7)),
                   _check_certificate)
                for k, seed in th7
            ]
            ops += [Op(f"helpbit/{seed}",
                       lambda seed=seed: _certificate(lambda: cclab.helpbit_hard_instance(11, seed=seed, **HELPBIT)),
                       _check_certificate)
                    for seed in helpbit_seeds]
            ops += [Op(f"dcc/{r}/{i}", lambda t=t: _solve_tables(t), lambda res, t=t: _check_tables(t, res))
                    for i, t in enumerate(tables)]
            ops += [Op(f"rect/{fname}/{r}/{i}", lambda fname=fname, rect=rect: _audited(fname, rect),
                       lambda res, fname=fname: _check_audited(fname, res))
                    for i, (fname, rect) in enumerate(rects)]
            ops += [Op(f"malformed/{i}/{r}", lambda text=make(r): _refuses(text),
                       lambda refused: require(refused, "malformed certificate accepted"), timed=False)
                    for i, make in enumerate(MALFORMED)]
            rng.shuffle(ops)
            yield Round(ops)
            r += 1


def _random_table(rng: random.Random, boolean: bool) -> tuple:
    values = ("0", "1") if boolean else ("00", "01", "10", "11")
    cells = tuple(tuple(rng.choice(values) for _ in range(4)) for _ in range(4))
    return cells, boolean


def _random_eq_rectangle(rng: random.Random) -> tuple:
    """Disjoint rows and columns, a quarter of the inputs each, so equality is 0 throughout."""
    order = _drawn(rng, strings(RECT_N["eq"]))
    quarter = len(order) // 4
    return "eq", Rectangle(frozenset(order[:quarter]), frozenset(order[quarter:2 * quarter]))


def _random_ip_rectangle(rng: random.Random) -> tuple:
    """Rows zero on half the positions S, columns zero off S, so inner product is 0 throughout."""
    n = RECT_N["ip"]
    support = set(rng.sample(range(n), n // 2))
    xs = [x for x in strings(n) if all(x[i] == "0" for i in support)]
    ys = [y for y in strings(n) if all(y[i] == "0" for i in range(n) if i not in support)]
    rows = frozenset(rng.sample(xs, rng.choice((2, 3))))
    cols = frozenset(rng.sample(ys, rng.choice((2, 3))))
    return "ip", Rectangle(rows, cols)


WORKLOADS = {"queries": Queries, "helpbits": HelpBits, "certificates": Certificates}
