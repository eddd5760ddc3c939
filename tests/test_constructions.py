"""Protocol builders and the hard-instance engine."""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from cclab import (
    AuditFailure,
    HardInstance,
    NodeFunction,
    OutputFunction,
    OutputLeaf,
    PdlCode,
    ProtocolTree,
    Speak,
    StuckLeaf,
    UsageError,
    all_bitstrings,
    bits_to_hex,
    bob_message,
    computes_everywhere,
    decode_signature,
    equality_fn,
    equality_shortcut_protocol,
    fit_node_function,
    helpbit_hard_instance,
    is_one_way,
    large_rectangle_shortcut,
    message_protocol,
    pdl_encode,
    prefix_protocol,
    replay_hard_instance,
    run,
    separating_index_set,
    th7_hard_instance,
    th7_protocol,
    verify_certificate,
)
from cclab import constructions
from cclab.protocol import BOB
from cclab.rectangles import Rectangle
from cclab.reference import off_diagonal_quadrant


# ---------------------------------------------------------------------------
# function fitting


def test_fit_prefers_cheap_kinds():
    assert fit_node_function({"00": 0, "11": 0}, 2).kind == "const0"
    assert fit_node_function({"00": 1, "11": 1}, 2).kind == "const1"
    fn = fit_node_function({"00": 0, "10": 1}, 2)
    assert fn.kind == "bit" and fn.index == 0
    fn = fit_node_function({"01": 0, "00": 1}, 2)
    assert fn.kind == "notbit" and fn.index == 1
    fn = fit_node_function({"00": 0, "01": 1, "10": 1, "11": 0}, 2)
    assert fn.kind == "table"


def test_fit_dont_cares_are_free():
    # one constrained point always fits a constant
    fn = fit_node_function({"10": 1}, 2)
    assert fn.kind == "const1"


# ---------------------------------------------------------------------------
# message tries


def test_message_protocol_builds_trie():
    messages = {"00": "0", "01": "10", "10": "110", "11": "111"}
    tree = message_protocol(messages, 2)
    assert is_one_way(tree)
    for y, msg in messages.items():
        assert bob_message(tree, y) == msg
        outcome = run(tree, "00", y)
        assert outcome.output == y
        assert outcome.cost == len(msg)


def test_message_protocol_rejects_prefix_collision():
    with pytest.raises(UsageError):
        message_protocol({"0": "1", "1": "10"}, 1)


def test_prefix_protocol_routing():
    # matching columns ride the short branch, everyone else resends fully
    sender = prefix_protocol("1010", 2)
    assert bob_message(sender, "1010") == "010"
    assert bob_message(sender, "1001") == "001"
    assert bob_message(sender, "0110") == "10110"


# ---------------------------------------------------------------------------
# equality and rectangle shortcuts


def test_equality_shortcut_costs():
    for n in (2, 3):
        tree = equality_shortcut_protocol(n)
        assert computes_everywhere(tree, equality_fn(n))
        for x in all_bitstrings(n):
            for y in all_bitstrings(n):
                cost = run(tree, x, y).cost
                if x[0] == "0" and y[0] == "1":
                    assert cost == 2


def test_large_rectangle_shortcut():
    f = equality_fn(2)
    tree = large_rectangle_shortcut(f, [off_diagonal_quadrant(2)])
    assert computes_everywhere(tree, f)
    # hit pairs: rectangle index bit plus the membership answer
    assert run(tree, "00", "10").cost == 2


def test_rectangle_shortcuts_share_the_literal_send_default():
    # the index-0 branch is the default; a second call on f builds nothing anew
    f = equality_fn(5)
    first, second = (large_rectangle_shortcut(f, [off_diagonal_quadrant(5)]) for _ in range(2))
    assert first.root.child0 is second.root.child0
    code = pdl_encode(first)
    assert len(code.bits) == 11017
    assert hashlib.sha256(code.hex().encode()).hexdigest() == (
        "9cce31c01c76a71f40b17dbf7d074493c6420e87abf679af1a425def0b378389"
    )


def test_large_rectangle_shortcut_validation():
    f = equality_fn(2)
    mixed = Rectangle(frozenset(("00",)), frozenset(("00", "01")))
    with pytest.raises(UsageError):
        large_rectangle_shortcut(f, [mixed])
    quadrant = off_diagonal_quadrant(2)
    with pytest.raises(UsageError):
        large_rectangle_shortcut(f, [quadrant, quadrant])


# ---------------------------------------------------------------------------
# separating indices and the exchange protocol


def test_separating_index_set_example():
    result = separating_index_set(["000", "011", "101"])
    assert result.indices == (0, 1)
    restricted = result.restrict("011")
    assert restricted == "01"


def test_separating_index_set_property():
    rng = random.Random(20240817)
    for _ in range(1000):
        k = rng.randint(2, 8)
        count = rng.randint(2, min(5, 1 << k))
        members = rng.sample([format(v, f"0{k}b") for v in range(1 << k)], count)
        result = separating_index_set(members)
        views = {result.restrict(z) for z in members}
        assert len(views) == len(members)
        # determinism: the same family yields the same indices
        assert separating_index_set(members).indices == result.indices


def test_separating_index_set_rejects_duplicates():
    with pytest.raises(UsageError):
        separating_index_set(["00", "00", "01"])


def test_th7_protocol_scales():
    for s, k, bound in ((1, 2, 4), (2, 4, 12), (2, 8, 16)):
        members = [format(v, f"0{k}b") for v in range((1 << s) + 1)]
        report = th7_protocol(members, k=k)
        assert report.cost <= bound
        assert report.closed_form_bound_bits == bound


def test_th7_protocol_validation():
    with pytest.raises(UsageError):
        th7_protocol(["00", "01", "10", "11"])  # 4 members is not 2^s + 1
    with pytest.raises(UsageError):
        th7_protocol(["00", "01", "10"], k=3)
    with pytest.raises(UsageError):
        th7_protocol(["00", "00", "01"])


# ---------------------------------------------------------------------------
# hard instances


def test_th7_hard_instance_pinned_shape():
    inst = th7_hard_instance(10, 1, 2, 6)
    assert inst.n == 30
    assert inst.blocks == 3
    assert len(inst.protocols) == 2
    assert inst.fiber_size == 1024
    assert inst.fiber_floor == 64
    assert inst.hard_index == 0
    assert inst.companion_kind == "plain"
    assert inst.companion_cost == inst.companion_bound_bits == 10
    assert verify_certificate(inst)


def test_helpbit_hard_instance_pinned_shape():
    inst = helpbit_hard_instance(11, 1, 2, 1, 1, 6)
    assert inst.n == 99
    assert inst.blocks == 9
    assert inst.fiber_size == 2048
    assert inst.fiber_floor == 128
    assert inst.companion_kind == "help-routed"
    assert inst.companion_cost == inst.companion_bound_bits == 41
    assert verify_certificate(inst)


# SHA-256 of every certificate and refusal over a small parameter sweep,
# taken while the fiber scan still ran each block on its own
_CERTIFICATES_HASH = "3b61883559cb473075403f690cec4db6653d85eefd94a6de1c526a28a3c15422"


def test_certificates_are_pinned():
    digest = hashlib.sha256()
    speaking = 0
    for k, s, l, a, b, budget, seed in itertools.product(
        range(1, 9), (0, 1, 2), (1, 2), (0, 1), (0, 1), (0, 2, 4, 6, 9, 12, 16), (None, 3)
    ):
        try:
            inst = helpbit_hard_instance(k, s, l, a, b, budget, seed)
        except (UsageError, AuditFailure) as exc:
            digest.update(str(exc).encode() + b"\n")
            continue
        digest.update(inst.to_json().encode() + b"\n")
        speaking += any(
            isinstance(decode_signature(PdlCode.from_hex(h), inst.n + a, inst.n + b, inst.n).root, Speak)
            for h in inst.protocols
        )
    # budgets up to 16 at s = 2 and k >= 7 admit protocols in which Bob speaks
    assert speaking
    assert digest.hexdigest() == _CERTIFICATES_HASH


def _fiber_by_walk(trees, k, n, b, l):
    """The widest fiber, from one bob_message walk per block and Bob help string."""
    fibers = {}
    for z in all_bitstrings(k):
        label = []
        for tree in trees:
            for hb in all_bitstrings(b):
                message = bob_message(tree, z + "0" * (n - k) + hb)
                label.append(None if message is None or len(message) >= l else message)
        fibers.setdefault(tuple(label), []).append(z)
    return max(fibers.items(), key=lambda kv: (len(kv[1]), tuple("~" if c is None else c for c in kv[0])))


def _bob(fn, child0, child1):
    return Speak(BOB, fn, child0, child1)


@pytest.mark.parametrize("b,l", [(0, 2), (1, 3)])
def test_fibers_that_split_match_a_walk_per_block(monkeypatch, b, l):
    # the enumerated pools that the serving bound admits hold only leaves
    # and constant speak nodes, which split nothing, so these hand-built
    # pools of Bob speak nodes on the block (and on the help bit) stand in;
    # every split below halves the blocks, so the widest fibers tie and
    # the label decides
    k, n = 8, 24
    zero, copy = OutputLeaf(OutputFunction.const("0" * n)), OutputLeaf(OutputFunction.copy_x())
    bit, notbit = NodeFunction.input_bit, NodeFunction.negated_bit
    if b == 0:
        roots = [
            _bob(bit(0), StuckLeaf(), zero),
            _bob(bit(1), copy, _bob(bit(2), zero, copy)),
        ]
    else:
        roots = [_bob(bit(n), _bob(bit(0), StuckLeaf(), zero), _bob(notbit(3), copy, StuckLeaf()))]
    trees = [ProtocolTree(n, n + b, n, root) for root in roots]
    monkeypatch.setattr(
        constructions, "enumerate_signature", lambda *args, **kw: [(pdl_encode(t), t) for t in trees]
    )
    label, members = _fiber_by_walk(trees, k, n, b, l)
    assert len(members) == 1 << k - 2
    for seed in (None, 3, 8):
        inst = helpbit_hard_instance(k, 1 - b, l, 0, b, 0, seed)
        chosen = members[:3] if seed is None else sorted(random.Random(seed).sample(members, 3))
        assert (inst.fiber_label, inst.fiber_size, inst.z_blocks) == (label, len(members), tuple(chosen))


def test_helpbit_precondition_guard():
    with pytest.raises(UsageError):
        helpbit_hard_instance(10, 1, 2, 1, 1, 6)


def test_helpbit_without_help_matches_plain_engine():
    assert helpbit_hard_instance(10, 1, 2, 0, 0, 6) == th7_hard_instance(10, 1, 2, 6)


def test_replay_derives_the_companion_kind():
    # the kind follows from a = b = 0; a stored kind that disagrees is a discrepancy
    edited = dataclasses.replace(th7_hard_instance(10, 1, 2, 6), companion_kind="help-routed")
    assert replay_hard_instance(edited).discrepancies == ["companion_kind"]


def test_each_build_validates_one_companion(monkeypatch):
    """A build and its replay each validate the companion once, as its own root or the exchange inside it."""
    validated = []
    post_init = ProtocolTree.__post_init__

    def record(tree):
        validated.append(tree.root)
        post_init(tree)

    monkeypatch.setattr(ProtocolTree, "__post_init__", record)
    for build, kind in (
        (lambda: th7_hard_instance(10, 1, 2, 6), "plain"),
        (lambda: helpbit_hard_instance(10, 1, 2, 1, 0, 6), "help-routed"),
        (lambda: helpbit_hard_instance(11, 1, 2, 1, 1, 6), "help-routed"),
    ):
        del validated[:]
        inst = build()
        walks = [validated[:]]
        del validated[:]
        assert replay_hard_instance(inst).ok
        walks.append(validated[:])
        assert inst.companion_kind == kind
        companion = decode_signature(PdlCode.from_hex(inst.companion_hex), *inst.companion_signature).root
        exchange = companion if kind == "plain" else companion.child1
        for roots in walks:
            assert sum(root == companion or root == exchange for root in roots) == 1, kind


def test_full_size_companion_hex_round_trips():
    # the help-routed companion of the benchmark's help-bit instance: 256
    # leaves, each a 99-bit constant
    inst = helpbit_hard_instance(11, 1, 2, 1, 1, 6)
    code = PdlCode.from_hex(inst.companion_hex)
    assert len(code) == 32999
    assert code.hex() == inst.companion_hex
    tree = decode_signature(code, *inst.companion_signature)
    assert pdl_encode(tree).hex() == inst.companion_hex
    assert PdlCode(code.bits).hex() == bits_to_hex(code.bits)


def test_hard_instance_json_round_trip():
    inst = th7_hard_instance(10, 1, 2, 6)
    text = inst.to_json()
    assert json.loads(text)["schema"] == "cclab-hard-instance/1"
    assert HardInstance.from_json(text) == inst


def test_every_hard_instance_field_carries_its_json_key():
    keys = []
    for item in dataclasses.fields(HardInstance):
        key, shape, _codec = item.metadata["json"]
        assert shape in ("int", "int?", "str", "strs", "ints", "rows"), item.name
        keys.append(key or item.name)
    # the companion's fields nest under "companion", under their own keys
    assert [k for k in keys if k.startswith("companion")] == [
        "companion.kind", "companion.code", "companion.signature", "companion.cost", "companion.bound_bits",
    ]
    data = json.loads(helpbit_hard_instance(11, 1, 2, 1, 1, 6, seed=3).to_json())
    written = [key for key in data if key != "companion"] + [f"companion.{key}" for key in data["companion"]]
    assert sorted(written) == sorted(keys + ["schema"])


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("served"),
        lambda d: d.update(k=True),
        lambda d: d.update(k=40, n=120),
        lambda d: d.update(n=31),
        lambda d: d.update(budget=-1),
        lambda d: d.update(hard_index=3),
        lambda d: d.update(x="5:zz"),
        lambda d: d.update(x="+" + d["x"]),
        lambda d: d.update(x=" " + d["x"]),
        lambda d: d.update(x=d["x"][:5] + "_" + d["x"][6:]),
        lambda d: d.update(x="0" + d["x"]),
        lambda d: d.update(x="3" + "\u0660" + d["x"][2:]),
        lambda d: d.update(x="0:0"),
        lambda d: d["y_family"].__setitem__(1, "+" + d["y_family"][1]),
        lambda d: d["protocols"].__setitem__(0, "zz"),
        lambda d: d["protocols"].__setitem__(-1, "+" + d["protocols"][-1]),
        lambda d: d["protocols"].__setitem__(0, d["protocols"][0].upper()),
        lambda d: d["companion"].update(code=d["companion"]["code"] + "0"),
        lambda d: d["companion"].update(code="4:\uff10"),
        lambda d: d.update(served=[[0, "", ""]]),
        lambda d: d.update(companion=[]),
        lambda d: d["companion"].pop("cost"),
        lambda d: d["companion"].update(signature=[30, "30"]),
    ],
    ids=[
        "missing-field", "bool-k", "k-over-bound", "n-mismatch", "negative-budget",
        "hard-index-range", "bad-hex", "signed-hex", "spaced-hex", "underscored-hex",
        "zero-led-hex", "non-ascii-count", "empty-with-digit", "signed-member",
        "bad-protocol", "signed-protocol", "uppercase-protocol", "long-companion",
        "full-width-companion", "short-served-row", "companion-not-object",
        "companion-missing-cost", "signature-not-ints",
    ],
)
def test_hard_instance_from_json_rejects_malformed_fields(edit):
    data = json.loads(th7_hard_instance(10, 1, 2, 6).to_json())
    edit(data)
    with pytest.raises(UsageError):
        HardInstance.from_json(json.dumps(data))


# one value of each JSON type; a key whose value is swapped for one of
# another type must be refused
_JSON_VALUES = (True, 7, 1.5, "7", [], {}, None)


def _malformed_copies(data):
    """(label, edited copy) for every key deleted or retyped, top level and companion."""
    for prefix, obj in [("", data), ("companion.", data["companion"])]:
        for key, value in obj.items():
            # the seed is the one key that may hold an integer or null
            kinds = {int, type(None)} if key == "seed" else {type(value)}
            edits = [("delete", None)] + [
                (f"as {bad!r}", bad) for bad in _JSON_VALUES if type(bad) not in kinds
            ]
            if isinstance(value, list) and value:
                edits += [
                    (f"element as {bad!r}", [bad] + value[1:])
                    for bad in _JSON_VALUES
                    if type(bad) is not type(value[0])
                ]
            for label, bad in edits:
                copy = json.loads(json.dumps(data))
                target = copy["companion"] if prefix else copy
                if label == "delete":
                    del target[key]
                else:
                    target[key] = bad
                yield f"{prefix}{key} {label}", copy


@pytest.mark.parametrize("seed", [None, 3])
def test_hard_instance_from_json_refuses_every_missing_or_retyped_key(seed):
    data = json.loads(helpbit_hard_instance(11, 1, 2, 1, 1, 6, seed=seed).to_json())
    accepted = []
    for label, copy in _malformed_copies(data):
        try:
            HardInstance.from_json(json.dumps(copy))
        except UsageError:
            continue
        accepted.append(label)
    assert accepted == []


def test_hard_instance_parameters_bounded():
    for args in ((17, 1, 2, 6), (0, 1, 2, 6), (10, -1, 2, 6), (10, 1, 0, 6), (10, 1, 2, 99)):
        with pytest.raises(UsageError):
            th7_hard_instance(*args)
    with pytest.raises(UsageError):
        helpbit_hard_instance(4, 2, 1, 1, 1, 6)  # a+b+s = 4 > k
    with pytest.raises(UsageError):
        helpbit_hard_instance(16, 0, 1, 5, 0, 0)  # 2^(2^5) companion leaves


def test_hard_instance_replay():
    inst = th7_hard_instance(10, 1, 2, 6)
    assert replay_hard_instance(inst).ok
    tampered = dataclasses.replace(inst, fiber_size=999)
    report = replay_hard_instance(tampered)
    assert not report.ok
    assert any("fiber_size" in d for d in report.discrepancies)


def test_hard_instance_tampered_certificate_fails():
    inst = th7_hard_instance(10, 1, 2, 6)
    # claim the stuck protocol serves member 0; the re-run disagrees
    forged = (0, "", "", 0)
    tampered = dataclasses.replace(inst, served=(forged,))
    with pytest.raises(AuditFailure):
        verify_certificate(tampered)


@pytest.mark.parametrize("edit", ["emptied", "extra row", "doubled"])
def test_hard_instance_serving_table_must_be_whole(edit):
    """Every stored row agrees with the re-run, yet the table is not the re-run's."""
    inst = th7_hard_instance(10, 1, 2, 6)
    assert len(inst.served) == 2 and verify_certificate(inst)
    served = {
        "emptied": (),
        "extra row": inst.served + ((999, "xyz", "", None),),
        "doubled": inst.served * 2,
    }[edit]
    with pytest.raises(AuditFailure, match="serving table"):
        verify_certificate(dataclasses.replace(inst, served=served))


@pytest.mark.parametrize("edit", ["hard member only", "family repeated", "zero blocks"])
def test_hard_instance_family_must_be_the_blocks_of_x(edit):
    """A family that is not the padded blocks of x fails, whatever the serving table says."""
    inst = th7_hard_instance(10, 1, 2, 6)
    assert inst.blocks == 3 and verify_certificate(inst)
    tampered = {
        "hard member only": dict(y_family=(inst.hard_y,), hard_index=0),
        "family repeated": dict(y_family=inst.y_family * 500),
        "zero blocks": dict(z_blocks=("0" * 10,) * 3),
    }[edit]
    with pytest.raises(AuditFailure, match="the family is not the 3 distinct zero-padded blocks of x"):
        verify_certificate(dataclasses.replace(inst, **tampered))


def test_planted_protocol_announcing_the_hard_member_fails():
    """A constant leaf announcing the hard member serves it at cost 0 < l."""
    inst = th7_hard_instance(10, 1, 2, 6)
    planted = pdl_encode(ProtocolTree.symmetric(inst.n, OutputLeaf(OutputFunction.const(inst.hard_y))))
    protocols = inst.protocols + (planted.hex(),)
    served = inst.served + ((len(inst.protocols), "", "", inst.hard_index),)
    tampered = HardInstance.from_json(dataclasses.replace(inst, protocols=protocols, served=served).to_json())
    with pytest.raises(AuditFailure, match=f"protocol {len(inst.protocols)} defeats the hard member"):
        verify_certificate(tampered)


def test_seeded_instance_is_deterministic():
    a = th7_hard_instance(10, 1, 2, 6, seed=7)
    b = th7_hard_instance(10, 1, 2, 6, seed=7)
    assert a == b
    assert replay_hard_instance(a).ok
    assert verify_certificate(a)


def test_degenerate_budget_has_no_protocols():
    inst = th7_hard_instance(10, 1, 2, 1)
    assert inst.protocols == ()
    assert verify_certificate(inst)
    assert replay_hard_instance(inst).ok
