"""Tests of the benchmark's own checks: the walker agrees with the program's
run, and every check rejects a deliberately wrong answer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import cclab  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure, strings, walk  # noqa: E402


@pytest.mark.parametrize("signature, budget, count", [((2, 2, 2), 14, 538), ((3, 3, 2), 14, 53)])
def test_walker_agrees_with_run(signature, budget, count):
    na, nb, _ = signature
    trees = [tree for _, tree in cclab.enumerate_signature(*signature, budget)]
    assert len(trees) == count
    for tree in trees:
        for x in strings(na):
            for y in strings(nb):
                outcome = cclab.run(tree, x, y)
                assert walk(tree, x, y) == (outcome.transcript, outcome.output)


@pytest.mark.parametrize("name", ["identity", "eq", "ip"])
def test_reference_values_match_the_tables(name):
    for n in (1, 2, 3):
        f = workloads._make_fn(name, n)
        for x in strings(n):
            for y in strings(n):
                assert checks.reference_value(name, x, y) == f.value(x, y)


def _cc(family, one_way, help_bits, alpha, fname, x, y):
    measure = cclab.Measure(family, one_way, cclab.HelpSpec(*help_bits), alpha)
    return cclab.individual_cc(measure, workloads._make_fn(fname, len(x)), x, y)


def test_individual_check_rejects_wrong_answers():
    args = ("identity", "0", "1", "TCC", False, (0, 0), 16)
    value, witness = _cc("TCC", False, (0, 0), 16, "identity", "0", "1")
    assert value == 1
    checks.check_individual((value, witness), *args)
    with pytest.raises(CheckFailure):
        checks.check_individual((value + 1, witness), *args)
    with pytest.raises(CheckFailure):
        checks.check_individual((value, witness), *args[:-1], len(witness.bits) - 1)
    with pytest.raises(CheckFailure):
        checks.check_individual((math.inf, witness), *args)
    partial = _cc("PCC", False, (0, 0), 16, "identity", "0", "1")
    checks.check_individual(partial, "identity", "0", "1", "PCC", False, (0, 0), 16)
    with pytest.raises(CheckFailure):
        checks.check_individual(partial, "identity", "0", "1", "TCC", False, (0, 0), 16)


def test_helped_individual_check():
    answer = _cc("CC", True, (1, 1), 14, "eq", "1", "0")
    checks.check_individual(answer, "eq", "1", "0", "CC", True, (1, 1), 14)
    with pytest.raises(CheckFailure):
        checks.check_individual((answer[0] + 1, answer[1]), "eq", "1", "0", "CC", True, (1, 1), 14)


def test_sibling_check_rejects_disorder():
    values = {(f, w): 1 for f in ("TCC", "CC", "PCC") for w in (False, True)}
    checks.check_siblings(values)
    with pytest.raises(CheckFailure):
        checks.check_siblings({**values, ("PCC", False): 2})
    with pytest.raises(CheckFailure):
        checks.check_siblings({**values, ("CC", False): 2, ("TCC", False): 2, ("PCC", True): 0})


def test_profile_check_rejects_a_rise():
    report = cclab.tcc_identity_profile("1", 16)
    checks.check_profile(report, "1", 16, None)
    entries = dict(report.one_way.entries)
    entries[16] = (entries[15][0] + 1, entries[15][1])
    risen = dataclasses.replace(report, one_way=cclab.ComplexityProfile(report.one_way.label, entries))
    with pytest.raises(CheckFailure):
        checks.check_profile(risen, "1", 16, None)


def test_hard_y_check_rejects_a_wrong_count():
    report = cclab.find_hard_y(2, 12, "01")
    checks.check_hard_y(report, 2, 12)
    with pytest.raises(CheckFailure):
        checks.check_hard_y(dataclasses.replace(report, count_below=report.count_below + 1), 2, 12)


def test_helpbits_check_rejects_a_wrong_cost():
    laws = workloads.HelpBits()
    tree = next(t for _, t in cclab.enumerate_signature(2, 2, 2, 12) if not cclab.is_one_way(t))
    result = laws._laws(tree)
    laws._check(tree, result)
    base, helped = result["eq"]
    helped["both"]["01", "10"] += 1
    with pytest.raises(CheckFailure):
        laws._check(tree, result)


def test_certificate_check_rejects_tampering():
    result = workloads._certificate(lambda: cclab.th7_hard_instance(10, **workloads.TH7))
    workloads._check_certificate(result)
    instance, back, replay, verified = result
    cheaper = dataclasses.replace(instance, companion_cost=instance.companion_cost - 1)
    with pytest.raises(CheckFailure):
        workloads._check_certificate((cheaper, cheaper, replay, verified))
    with pytest.raises(CheckFailure):
        workloads._check_certificate((instance, back, cclab.ReplayReport(False, ["x"]), verified))
    short = dataclasses.replace(instance, fiber_size=instance.fiber_floor - 1)
    with pytest.raises(CheckFailure):
        workloads._check_certificate((short, short, replay, verified))


def test_dcc_check_rejects_wrong_answers():
    tables = [(cclab.equality_fn(2).cells, True), (cclab.identity_fn(2).cells, False)]
    results = workloads._solve_tables(tables)
    workloads._check_tables(tables, results)
    bits, tree = results[0]
    with pytest.raises(CheckFailure):
        workloads._check_tables(tables[:1], [(bits + 1, tree)])
    with pytest.raises(CheckFailure):
        workloads._check_tables([(cclab.inner_product_fn(2).cells, True)], results[:1])


@pytest.mark.parametrize("fname", ["eq", "ip"])
def test_audit_checks_reject_tampering(fname):
    rect = workloads._random_eq_rectangle(random.Random(1)) if fname == "eq" else \
        workloads._random_ip_rectangle(random.Random(1))
    tree, partition, report = workloads._audited(fname, rect[1])
    workloads._check_audited(fname, (tree, partition, report))
    universe = set(strings(tree.n_bob))
    first, rect0 = next((t, r) for t, r in partition.classes.items() if r.cols != universe)
    moved = dict(partition.classes)
    moved[first] = cclab.Rectangle(rect0.rows, rect0.cols | {min(universe - rect0.cols)})
    bad_partition = dataclasses.replace(partition, classes=moved)
    with pytest.raises(CheckFailure):
        workloads._check_audited(fname, (tree, bad_partition, report))
    if fname == "ip":
        bad_report = dataclasses.replace(report, records=[])
    else:
        bad_report = dataclasses.replace(report, max_length=report.max_length + 1)
    with pytest.raises(CheckFailure):
        workloads._check_audited(fname, (tree, partition, bad_report))


@pytest.mark.parametrize("workload, rounds", [("queries", 11), ("certificates", 40)])
def test_rounds_repeat_their_make_up_and_never_an_operation(workload, rounds):
    def names(seed):
        made = []
        for i, rnd in enumerate(workloads.WORKLOADS[workload]().rounds(random.Random(seed))):
            made.append([op.name for op in rnd.ops])
            if i + 1 == rounds:
                break
        return made

    made = names(7)
    assert len(made) == rounds
    flat = [name for rnd in made for name in rnd]
    assert len(flat) == len(set(flat))
    kinds = [Counter(name.split("/")[0] for name in rnd) for rnd in made]
    assert all(k == kinds[0] for k in kinds)
    assert names(7) == made
