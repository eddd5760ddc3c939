"""Hand-built reference protocols for the three built-in functions.

The enumerable code space cuts off well below the size of most protocols
that compute a built-in on every pair, so audits that quantify over
"protocols computing f everywhere" would be vacuous if they only looked
at enumerated trees.  These families supply concrete members: literal
senders, wasteful two-way variants, and the shortcut constructions,
each total and correct for its function.
"""

from __future__ import annotations

from .bits import all_bitstrings, embed_bit
from .constructions import equality_shortcut_protocol, large_rectangle_shortcut
from .errors import UsageError
from .functions import FunctionSpec, equality_fn, identity_fn, inner_product_fn
from .protocol import (
    ALICE,
    BOB,
    NodeFunction,
    OutputFunction,
    OutputLeaf,
    ProtocolTree,
    Speak,
    _literal_send,
    _spell_input,
)
from .rectangles import Rectangle


def literal_send_protocol(f: FunctionSpec) -> ProtocolTree:
    """Bob spells out y, Alice answers from the table.  Cost n everywhere."""
    return ProtocolTree.symmetric(f.n, _literal_send(f, 0))


def alice_flag_identity(n: int) -> ProtocolTree:
    """Alice opens with a constant 0 bit, then Bob sends y.  Cost n + 1.

    The wasted opener makes this two-way without changing what is
    computed; the 1-branch of the opener is dead (a constant function
    never takes it) and holds a zero leaf.
    """
    chain = _literal_send(identity_fn(n), 0)
    dead = OutputLeaf(OutputFunction.const("0" * n))
    return ProtocolTree.symmetric(
        n, Speak(ALICE, NodeFunction.const(0), chain, dead)
    )


def alice_bit_identity(n: int) -> ProtocolTree:
    """Alice opens with her first bit, then Bob sends y.  Cost n + 1.

    Alice's bit carries no information about y, so both branches hold a
    full literal sender; a genuinely two-way tree whose one-way collapse
    saves exactly one bit.
    """
    chain = _literal_send(identity_fn(n), 0)
    return ProtocolTree.symmetric(n, Speak(ALICE, NodeFunction.input_bit(0), chain, chain))


def interleaved_identity(n: int) -> ProtocolTree:
    """Bob's first bit, one Alice interjection, then the rest of y.

    Cost n + 1 on every pair with speakers strictly alternating at the
    top, exercising simulations on trees where Alice talks mid-stream.
    """
    if n < 1:
        raise UsageError("need n >= 1")

    def leaf(y: str):
        return OutputLeaf(OutputFunction.const(y))

    def alice_node(prefix: str):
        after_alice = _spell_input(BOB, n, leaf, prefix)
        return Speak(ALICE, NodeFunction.input_bit(0), after_alice, after_alice)

    root = Speak(BOB, NodeFunction.input_bit(0), alice_node("0"), alice_node("1"))
    return ProtocolTree.symmetric(n, root)


def identity_protocols(n: int) -> dict:
    return {
        "literal-send": literal_send_protocol(identity_fn(n)),
        "alice-flag": alice_flag_identity(n),
        "alice-bit": alice_bit_identity(n),
        "interleaved": interleaved_identity(n),
    }


def alice_sends_x_ip(n: int) -> ProtocolTree:
    """Alice spells out x, Bob answers the dot product with one bit.

    Cost n + 1 everywhere; the final leaf embeds Bob's announced bit, so
    Alice's output only depends on the transcript and her own input as
    required.
    """
    f = inner_product_fn(n)

    def bob_reply(x_prefix: str):
        fn = NodeFunction(
            "table",
            table="".join(
                str(f.bit(x_prefix, y)) for y in all_bitstrings(n)
            ),
        )
        return Speak(
            BOB,
            fn,
            OutputLeaf(OutputFunction.const(embed_bit(0, n))),
            OutputLeaf(OutputFunction.const(embed_bit(1, n))),
        )

    return ProtocolTree.symmetric(n, _spell_input(ALICE, n, bob_reply))


def zero_indicator_ip(n: int) -> ProtocolTree:
    """Alice flags whether x is all zeros; if so the product is 0 instantly.

    On the flag the cost is 1; otherwise Bob sends y literally and Alice
    answers from the table, for 1 + n total.
    """
    f = inner_product_fn(n)
    zero_leaf = OutputLeaf(OutputFunction.const(embed_bit(0, n)))
    fn = NodeFunction(
        "table",
        table="".join("1" if x == "0" * n else "0" for x in all_bitstrings(n)),
    )
    return ProtocolTree.symmetric(
        n, Speak(ALICE, fn, _literal_send(f, 0), zero_leaf)
    )


def ip_protocols(n: int) -> dict:
    return {
        "literal-table": literal_send_protocol(inner_product_fn(n)),
        "alice-sends-x": alice_sends_x_ip(n),
        "zero-indicator": zero_indicator_ip(n),
    }


def off_diagonal_quadrant(n: int) -> Rectangle:
    """Rows starting 0 against columns starting 1: equality is 0 throughout."""
    return Rectangle(
        frozenset(x for x in all_bitstrings(n) if x[0] == "0"),
        frozenset(y for y in all_bitstrings(n) if y[0] == "1"),
    )


def equality_protocols(n: int) -> dict:
    return {
        "shortcut": equality_shortcut_protocol(n),
        "literal-table": literal_send_protocol(equality_fn(n)),
        "rect-shortcut": large_rectangle_shortcut(
            equality_fn(n), [off_diagonal_quadrant(n)]
        ),
    }
