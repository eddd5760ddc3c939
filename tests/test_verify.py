"""The help-bit suite's totalizer law against a plain per-pair loop."""

from itertools import islice

import pytest

from cclab import (
    INF,
    HelpSpec,
    NodeFunction,
    OutputLeaf,
    ProtocolTree,
    Speak,
    StuckLeaf,
    all_bitstrings,
    computes_everywhere,
    enumerate_signature,
    equality_fn,
    help_bit_totalizer,
    identity_fn,
)
from cclab import protocol, verify
from cclab.codes import _enumeration_table
from cclab.protocol import ALICE, BOB

_MODES = (("both", HelpSpec(1, 1)), ("alice-only", HelpSpec(1, 0)), ("bob-only", HelpSpec(0, 1)))
_PAIRS = [(x, y) for x in all_bitstrings(2) for y in all_bitstrings(2)]
_PREFIX = 40  # trees of each enumeration the suite is shown


def _walked(tree, f, x, y, spec):
    """Least depth of a run on (x, y) that announces f(x, y), over every help string."""
    best = INF
    for ha in all_bitstrings(spec.alice_bits):
        for hb in all_bitstrings(spec.bob_bits):
            xa, yb = x + ha, y + hb
            node, depth = tree.root, 0
            while isinstance(node, Speak):
                bit = node.fn.evaluate(xa if node.owner == ALICE else yb)
                node = node.child1 if bit else node.child0
                depth += 1
            if isinstance(node, OutputLeaf) and node.fn.evaluate(xa, len(x)) == f.value(x, y):
                best = min(best, depth)
    return best


def _reference(trees, wrap):
    """(ok, slack, witness) of each totalizer claim, one pair at a time."""
    results = []
    for f in (identity_fn(2), equality_fn(2)):
        checked, failure = 0, ""
        for code, tree in trees:
            for mode, spec in _MODES:
                wrapped = wrap(tree, f, mode)
                for x, y in _PAIRS:
                    cost = _walked(tree, f, x, y, HelpSpec())
                    bound = 3 if cost == INF else min(cost + 1, 3)
                    got = _walked(wrapped, f, x, y, spec)
                    if got > bound:
                        failure = f"{code.bits} mode {mode}: helped cost {got} > {bound} on {(x, y)}"
                        break
                if failure:
                    break
            checked += 1
            if failure:
                break
        witness = failure or f"{checked} protocols x 3 modes stay within min(cost+1, n+1)"
        results.append((failure == "", checked, witness))
    return results


def _bob_root(tree, f, mode):
    return f.name == "identity" and mode == "bob-only" and getattr(tree.root, "owner", "") == BOB


def _alice_root(tree, f, mode):
    return mode == "both" and getattr(tree.root, "owner", "") == ALICE


def _eq_alice_only(tree, f, mode):
    return f.name == "eq" and mode == "alice-only" and isinstance(tree.root, Speak)


def _eq_leaf_root(tree, f, mode):
    return f.name == "eq" and mode == "bob-only" and not isinstance(tree.root, Speak)


def _never(tree, f, mode):
    return False


def _extra_bit(root):
    """One more bit on every run: breaks min(cost + 1, n + 1) on every pair."""
    return Speak(ALICE, NodeFunction.const(0), root, StuckLeaf())


def _stuck_default(root):
    """No default: keeps cost + 1 but breaks n + 1 where the protocol costs more."""
    return Speak(root.owner, root.fn, StuckLeaf(), root.child1)


def _slow_protocol(root):
    """One more bit on the protocol's branch: at a leaf root it breaks cost + 1 only at 0."""
    return Speak(root.owner, root.fn, root.child0, _extra_bit(root.child1))


def _late_bit(root):
    """One more bit after the protocol's first bit: breaks cost + 1 only from 1 up."""
    lifted = root.child1
    if isinstance(lifted, Speak):
        lifted = Speak(lifted.owner, lifted.fn, _extra_bit(lifted.child0), _extra_bit(lifted.child1))
    return Speak(root.owner, root.fn, root.child0, lifted)


@pytest.mark.parametrize(
    "breaks, damage",
    [
        (_bob_root, _extra_bit),
        (_alice_root, _extra_bit),
        (_eq_alice_only, _stuck_default),
        (_alice_root, _late_bit),
        (_eq_leaf_root, _slow_protocol),
        (_never, None),
    ],
)
def test_totalizer_law_matches_a_per_pair_loop_when_wraps_break_it(monkeypatch, breaks, damage):
    def wrap(tree, f, mode):
        wrapped = help_bit_totalizer(tree, f, mode)
        if not breaks(tree, f, mode):
            return wrapped
        return ProtocolTree(wrapped.n_alice, wrapped.n_bob, wrapped.out_len, damage(wrapped.root))

    trees = list(islice(enumerate_signature(2, 2, 2, 20), _PREFIX))
    monkeypatch.setattr(verify, "help_bit_totalizer", wrap)
    monkeypatch.setattr(
        verify, "enumerate_signature", lambda *args: islice(enumerate_signature(*args), _PREFIX)
    )
    monkeypatch.setattr(
        verify, "_enumeration_table", lambda *args: tuple(part[:_PREFIX] for part in _enumeration_table(*args))
    )
    report = verify.verify_helpbits()
    want = _reference(trees, wrap)
    assert [(c.ok, c.slack, c.witness) for c in report.checks[:2]] == want
    # a function fails exactly when one of its wraps was damaged
    damaged = [
        any(breaks(tree, f, mode) for _, tree in trees for mode, _ in _MODES)
        for f in (identity_fn(2), equality_fn(2))
    ]
    assert [not ok for ok, _, _ in want] == damaged


def _scanned_violation(code, tree, f, wrap):
    """The first (mode, pair) whose helped cost breaks min(cost + 1, n + 1), pair by pair, or ""."""
    n = f.n
    for mode, spec in protocol.TOTALIZER_MODES.items():
        wrapped = wrap(tree, f, mode)
        for x, y in _PAIRS:
            cost = _walked(tree, f, x, y, HelpSpec())
            bound = n + 1 if cost == INF else min(cost + 1, n + 1)
            got = _walked(wrapped, f, x, y, spec)
            if got > bound:
                return f"{code.bits} mode {mode}: helped cost {got} > {bound} on {(x, y)}"
    return ""


@pytest.mark.parametrize("damaged", [("both", "alice-only", "bob-only"), ("bob-only",)], ids=["every mode", "bob-only"])
def test_totalizer_violation_names_the_first_breaking_mode_and_pair(monkeypatch, damaged):
    """The mask check spells the lowest breaking pair of the first breaking mode, as a scan would.

    The damaged wraps have a stuck leaf for help bit 0, so every tree that
    misses a pair breaks the law there.
    """
    def wrap(tree, f, mode):
        wrapped = help_bit_totalizer(tree, f, mode)
        if mode not in damaged:
            return wrapped
        return ProtocolTree(wrapped.n_alice, wrapped.n_bob, wrapped.out_len, _stuck_default(wrapped.root))

    trees = list(islice(enumerate_signature(2, 2, 2, 20), 64))
    for f in (identity_fn(2), equality_fn(2)):
        for code, tree in trees:
            assert verify._totalizer_violation(code, tree, f) == ""
        monkeypatch.setattr(verify, "help_bit_totalizer", wrap)
        for code, tree in trees:
            want = _scanned_violation(code, tree, f, wrap)
            assert want and f" mode {damaged[0]}: " in want
            assert verify._totalizer_violation(code, tree, f) == want, (f.name, code.bits)
        monkeypatch.undo()


@pytest.mark.parametrize("f", [identity_fn(1), equality_fn(1)], ids=lambda f: f.name)
@pytest.mark.parametrize("one_way", [False, True], ids=["two-way", "one-way"])
def test_everywhere_correct_family_matches_a_filtered_enumeration(f, one_way):
    got = list(verify._everywhere_correct(f, 20, one_way))
    want = [
        (code, tree)
        for code, tree in enumerate_signature(1, 1, 1, 20, require_one_way=one_way)
        if computes_everywhere(tree, f)
    ]
    assert got == want and want
