"""Acceptance gate.

One test per shipped claim, named so the verbose pytest report doubles as
the pass/fail checklist.  Criteria 1 through 9 run the matching library
verification suite and fail with its full report text, and each report
must match its committed golden text in tests/golden byte for byte;
criterion 10 is an independent in-line sweep.  Two suites carry
wall-clock budgets.
"""

import time
from pathlib import Path

from cclab import (
    Measure,
    all_bitstrings,
    equality_fn,
    identity_fn,
    individual_cc,
    inner_product_fn,
)
from cclab.verify import run_suite

GOLDEN = Path(__file__).parent / "golden"


def _passes(name, limit=None):
    start = time.perf_counter()
    report = run_suite(name)
    elapsed = time.perf_counter() - start
    assert report.ok, "\n" + report.to_text()
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert report.to_text() == golden, f"{name} report differs from tests/golden/{name}.txt"
    if limit is not None:
        assert elapsed <= limit, f"{name} took {elapsed:.1f}s, budget {limit}s"


def test_criterion_01_rectangle_property():
    _passes("rectangles", limit=300.0)


def test_criterion_02_one_way_simulation():
    _passes("theorem1")


def test_criterion_03_inner_product_bound():
    _passes("ip-bound")


def test_criterion_04_equality_shortcut():
    _passes("eq-shortcut")


def test_criterion_05_hard_input_counting():
    _passes("counting")


def test_criterion_06_set_code_exchange():
    _passes("equiv")


def test_criterion_07_profile_audits():
    _passes("profiles")


def test_criterion_08_separating_family_hardness():
    _passes("th7", limit=600.0)


def test_criterion_09_help_bit_laws():
    _passes("helpbits")


def test_criterion_10_family_nesting_order():
    # partial >= total >= everywhere-correct as families, so the values
    # order the other way around; inf rows compare fine pointwise
    functions = (identity_fn(2), equality_fn(2), inner_product_fn(2))
    for f in functions:
        for alpha in range(11):
            loose = Measure(family="PCC", alpha=alpha)
            total = Measure(family="CC", alpha=alpha)
            strict = Measure(family="TCC", alpha=alpha)
            for x in all_bitstrings(2):
                for y in all_bitstrings(2):
                    vp = individual_cc(loose, f, x, y)[0]
                    vc = individual_cc(total, f, x, y)[0]
                    vt = individual_cc(strict, f, x, y)[0]
                    assert vp <= vc <= vt, (f.name, alpha, x, y, vp, vc, vt)
