"""Checks kept apart from the program under test.

The benchmark judges every answer with a tree walker of its own, written
against the public node classes (Speak, OutputLeaf, StuckLeaf and the
kind/index/table/value fields of their functions), and with function values
computed here from their definitions.  Nothing in this module calls the
program's run, cc_on_input, cc_with_help or FunctionSpec.value.

Every check raises CheckFailure with a message naming what went wrong.
"""

from __future__ import annotations

import math
from itertools import product

from cclab.codes import decode_signature, pdl_encode
from cclab.protocol import OutputLeaf, Speak, StuckLeaf

INF = math.inf


class CheckFailure(Exception):
    """An answer of the program disagrees with the independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def strings(n: int) -> list[str]:
    """Every n-bit string in ascending order ("" for n = 0)."""
    return ["".join(t) for t in product("01", repeat=n)]


# ---------------------------------------------------------------------------
# the walker


def _node_bit(fn, u: str) -> int:
    if fn.kind == "const0":
        return 0
    if fn.kind == "const1":
        return 1
    if fn.kind == "bit":
        return int(u[fn.index])
    if fn.kind == "notbit":
        return 1 - int(u[fn.index])
    if fn.kind == "table":
        return int(fn.table[int(u, 2)])
    raise CheckFailure(f"unknown node function kind {fn.kind!r}")


def _leaf_output(fn, x: str, width: int) -> str:
    if fn.kind == "const":
        return fn.value
    if fn.kind == "copy_x":
        return x
    if fn.kind == "xor_mask":
        return "".join("1" if a != b else "0" for a, b in zip(x, fn.value))
    if fn.kind == "table":
        i = int(x, 2)
        return fn.value[i * width:(i + 1) * width]
    raise CheckFailure(f"unknown output function kind {fn.kind!r}")


def walk(tree, x: str, y: str) -> tuple[str, str | None]:
    """Transcript and announced output of tree on (x, y); None when stuck.

    A walk longer than four times the longer input counts as stuck, which
    is the depth cap of the protocol model.
    """
    cap = 4 * max(tree.n_alice, tree.n_bob, 1)
    node = tree.root
    spoken: list[str] = []
    while True:
        if isinstance(node, OutputLeaf):
            return "".join(spoken), _leaf_output(node.fn, x, tree.out_len)
        if isinstance(node, StuckLeaf) or len(spoken) >= cap:
            return "".join(spoken), None
        if not isinstance(node, Speak):
            raise CheckFailure(f"unknown node {node!r}")
        b = _node_bit(node.fn, x if node.owner == "A" else y)
        spoken.append(str(b))
        node = node.child1 if b else node.child0


def has_alice_node(node) -> bool:
    if isinstance(node, Speak):
        return node.owner == "A" or has_alice_node(node.child0) or has_alice_node(node.child1)
    return False


def helped_cost(tree, want: str, x: str, y: str) -> float:
    """Cheapest correct walk over every help string appended to x and y."""
    best = INF
    for ha in strings(tree.n_alice - len(x)):
        for hb in strings(tree.n_bob - len(y)):
            transcript, out = walk(tree, x + ha, y + hb)
            if out == want:
                best = min(best, len(transcript))
    return best


# ---------------------------------------------------------------------------
# function values from their definitions


def embed(bit: int, n: int) -> str:
    return "0" * (n - 1) + str(bit)


def reference_value(name: str, x: str, y: str) -> str:
    """f(x, y) for the built-in functions, as an n-bit string."""
    if name == "identity":
        return y
    if name == "eq":
        return embed(int(x == y), len(x))
    if name == "ip":
        return embed(bin(int(x, 2) & int(y, 2)).count("1") & 1, len(x))
    raise CheckFailure(f"no reference for function {name!r}")


# ---------------------------------------------------------------------------
# queries


def _decoded_witness(witness, alpha: int, na: int, nb: int, out_len: int):
    require(witness is not None, "finite value without a witness")
    require(len(witness.bits) <= alpha, f"witness of {len(witness.bits)} bits exceeds budget {alpha}")
    tree = decode_signature(witness, na, nb, out_len)
    require(pdl_encode(tree).bits == witness.bits, "witness is not a canonical code")
    return tree


def check_individual(answer, fname: str, x: str, y: str, family: str, one_way: bool,
                     help_bits: tuple[int, int], alpha: int) -> None:
    """One individual_cc answer against the walker."""
    value, witness = answer
    if value == INF:
        require(witness is None, "infinite value with a witness")
        return
    n = len(x)
    a, b = help_bits
    tree = _decoded_witness(witness, alpha, n + a, n + b, n)
    if one_way:
        require(not has_alice_node(tree.root), "one-way witness has an Alice node")
    got = helped_cost(tree, reference_value(fname, x, y), x, y)
    require(got == value, f"walker cost {got} differs from reported value {value}")
    if family in ("TCC", "CC"):
        for xe in strings(n + a):
            for ye in strings(n + b):
                require(walk(tree, xe, ye)[1] is not None, f"witness gets stuck on ({xe}, {ye})")
    if family == "TCC":
        for xs in strings(n):
            for ys in strings(n):
                require(helped_cost(tree, reference_value(fname, xs, ys), xs, ys) < INF,
                        f"TCC witness is wrong on ({xs}, {ys})")


def check_siblings(values: dict) -> None:
    """values[(family, one_way)] on one input: PCC <= CC <= TCC and two-way <= one-way."""
    for one_way in (False, True):
        require(values["PCC", one_way] <= values["CC", one_way] <= values["TCC", one_way],
                f"family order broken ({'one' if one_way else 'two'}-way): {values}")
    for family in ("TCC", "CC", "PCC"):
        require(values[family, False] <= values[family, True],
                f"two-way above one-way for {family}: {values}")


def _everywhere_identity_cost(tree, n: int) -> dict:
    costs = {}
    for xs in strings(n):
        for ys in strings(n):
            transcript, out = walk(tree, xs, ys)
            require(out == ys, f"profile witness is wrong on ({xs}, {ys})")
            costs[xs, ys] = len(transcript)
    return costs


def _check_profile_entries(profile, alpha_max: int, n: int, cost_of) -> None:
    last = INF
    for alpha in range(alpha_max + 1):
        value, witness = profile.entries[alpha]
        require(value <= last, f"profile {profile.label} rises at budget {alpha}")
        last = value
        if value == INF:
            require(witness is None, f"profile {profile.label} has a witness for infinity")
            continue
        tree = _decoded_witness(witness, alpha, n, n, n)
        require(cost_of(tree) == value,
                f"profile {profile.label} value {value} at budget {alpha} disagrees with the walker")


def check_profile(report, y: str, alpha_max: int, x: str | None) -> None:
    """Monotone profiles, two-way <= one-way, and walker-checked witnesses."""
    n = len(y)
    rows = [x] if x is not None else strings(n)
    require(sorted(report.two_way) == sorted(rows), "profile rows differ from the request")
    memo: dict = {}

    def costs(tree):
        key = pdl_encode(tree).bits
        if key not in memo:
            memo[key] = _everywhere_identity_cost(tree, n)
        return memo[key]

    def one_way_cost(tree):
        require(not has_alice_node(tree.root), "one-way profile witness has an Alice node")
        return costs(tree)[rows[0], y]

    _check_profile_entries(report.one_way, alpha_max, n, one_way_cost)
    for row in rows:
        _check_profile_entries(report.two_way[row], alpha_max, n, lambda t, r=row: costs(t)[r, y])
        for alpha in range(alpha_max + 1):
            require(report.two_way[row].value(alpha) <= report.one_way.value(alpha),
                    f"two-way above one-way at budget {alpha} on row {row}")


def check_hard_y(report, n: int, alpha: int) -> None:
    """The counting bound and the consistency of the reported column."""
    require(sorted(report.values) == strings(n), "hard-y report misses columns")
    threshold = n - alpha
    below = sum(1 for v in report.values.values() if v < threshold)
    require(report.threshold == threshold, "wrong threshold")
    require(report.count_below == below, f"count_below {report.count_below} != {below}")
    require(below < 1 << n, "counting bound violated")
    require(report.values[report.y] == report.value, "reported value is not the column's value")
    if report.value < threshold:
        require(report.value == max(report.values.values()), "fallback column is not a maximizer")


# ---------------------------------------------------------------------------
# help bits


def check_helpbits(tree, fname: str, base: dict, helped: dict) -> None:
    """Base costs and every helped cost, which must be 1 + min(n, r).

    r is the base transcript length when the base run answers f(x, y), or
    when it gets stuck on a pair whose value is 0...0 (the totalizer fills
    stuck leaves with that constant); otherwise r is infinite.
    """
    n = tree.out_len
    for (x, y), cost in base.items():
        want = reference_value(fname, x, y)
        transcript, out = walk(tree, x, y)
        require(cost == (len(transcript) if out == want else INF),
                f"base cost {cost} on ({x}, {y}) disagrees with the walker")
        r = len(transcript) if out == want or (out is None and want == "0" * n) else INF
        for mode, costs in helped.items():
            require(costs[x, y] == 1 + min(n, r),
                    f"{mode}: helped cost {costs[x, y]} on ({x}, {y}), expected {1 + min(n, r)}")
    require(len(base) == 1 << (2 * n), "base costs miss pairs")


# ---------------------------------------------------------------------------
# certificates


def check_instance(instance, round_trip, replay) -> None:
    """A hard-instance certificate, its JSON round trip and its replay."""
    n, a, b, l = instance.n, instance.a, instance.b, instance.l
    require(round_trip == instance, "JSON round trip changed the certificate")
    require(replay.ok and not replay.discrepancies, f"replay discrepancies: {replay.discrepancies}")
    require(instance.fiber_size >= instance.fiber_floor, "fiber below its floor")
    require(len(instance.y_family) == instance.blocks, "family size is not 2^(a+b+s) + 1")
    hard = instance.hard_y
    for code in instance.protocols:
        tree = decode_signature(_from_hex(code), n + a, n + b, n)
        for ha in strings(a):
            for hb in strings(b):
                transcript, out = walk(tree, instance.x + ha, hard + hb)
                require(not (out == hard and len(transcript) < l),
                        f"stored protocol {code} answers the hard member in {len(transcript)} bits")
    na, nb, out_len = instance.companion_signature
    require(nb == n and out_len == n, "companion has an unexpected signature")
    companion = decode_signature(_from_hex(instance.companion_hex), na, nb, out_len)
    for y in instance.y_family:
        transcript, out = walk(companion, instance.x + "1" * (na - n), y)
        require(out == y, "companion misses a member")
        require(len(transcript) == instance.companion_cost,
                f"companion spends {len(transcript)} bits, stated {instance.companion_cost}")
    require(instance.companion_cost <= instance.companion_bound_bits, "companion cost above its bound")


def _from_hex(h: str) -> str:
    count, _, digits = h.partition(":")
    return format(int(digits, 16), f"0{4 * len(digits)}b")[:int(count)] if int(count) else ""


def check_dcc(result, cells: tuple, boolean: bool) -> None:
    """dcc_exact: the witness is right on every pair and its deepest run is the answer."""
    bits, tree = result
    n = tree.n_alice
    deepest = 0
    for i, xs in enumerate(strings(n)):
        for j, ys in enumerate(strings(n)):
            want = embed(int(cells[i][j]), n) if boolean else cells[i][j]
            transcript, out = walk(tree, xs, ys)
            require(out == want, f"dcc witness is wrong on ({xs}, {ys})")
            deepest = max(deepest, len(transcript))
    require(deepest == bits, f"deepest run {deepest} differs from reported {bits} bits")


def check_partition(tree, partition) -> dict:
    """Every transcript class is exactly the product set of its rows and columns.

    Returns the walker's (transcript, output) for every non-stuck pair.
    """
    seen = {}
    for xs in strings(tree.n_alice):
        for ys in strings(tree.n_bob):
            transcript, out = walk(tree, xs, ys)
            if out is not None:
                seen[xs, ys] = transcript, out
    covered = 0
    for transcript, rect in partition.classes.items():
        for xs in rect.rows:
            for ys in rect.cols:
                require(seen.get((xs, ys), (None,))[0] == transcript,
                        f"({xs}, {ys}) is in class {transcript!r} but walks elsewhere")
        covered += len(rect.rows) * len(rect.cols)
    require(covered == len(seen), "transcript classes do not cover the non-stuck pairs")
    return seen


def _require_computes(fname: str, n: int, seen: dict) -> None:
    require(len(seen) == 1 << (2 * n), f"protocol gets stuck, so it does not compute {fname}")
    for (xs, ys), (_, out) in seen.items():
        require(out == reference_value(fname, xs, ys), f"protocol is wrong for {fname} on ({xs}, {ys})")


def check_ip_audit(tree, partition, report) -> None:
    """Output-refined classes of an inner-product protocol hold at most 2^n pairs."""
    n = tree.n_alice
    seen = check_partition(tree, partition)
    _require_computes("ip", n, seen)
    largest = 0
    for rect in partition.classes.values():
        col = min(rect.cols)
        for value in (0, 1):
            rows = sum(1 for xs in rect.rows if seen[xs, col][1] == embed(value, n))
            largest = max(largest, rows * len(rect.cols))
    require(largest <= 1 << n, f"class of {largest} pairs exceeds 2^{n}")
    require(report.max_product == largest, f"audit max product {report.max_product} != {largest}")


def check_diagonal(tree, partition, report) -> None:
    """Diagonal transcripts of an equality protocol are distinct, the longest >= n."""
    n = tree.n_alice
    seen = check_partition(tree, partition)
    _require_computes("eq", n, seen)
    diagonal = [seen[xs, xs][0] for xs in strings(n)]
    require(len(set(diagonal)) == 1 << n, "diagonal transcripts collide")
    longest = max(len(t) for t in diagonal)
    require(longest >= n, "diagonal transcripts shorter than n")
    require(report.max_length == longest and report.distinct == 1 << n,
            "diagonal report disagrees with the walker")
