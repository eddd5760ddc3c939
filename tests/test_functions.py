"""Built-in functions, truth-table I/O and bit-string checks."""

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import (
    FunctionSpec,
    equality_fn,
    identity_fn,
    inner_product_fn,
    parse_function,
    table_fn,
)
from cclab.bits import check_bits


def test_identity_values():
    f = identity_fn(2)
    assert f.value("00", "10") == "10"
    assert f.value("11", "01") == "01"
    assert not f.boolean


def test_equality_values():
    f = equality_fn(2)
    assert f.bit("01", "01") == 1
    assert f.bit("01", "10") == 0
    # truth values come back embedded at full width
    assert f.value("01", "01") == "01"
    assert f.value("01", "10") == "00"


def test_inner_product_values():
    f = inner_product_fn(2)
    assert f.bit("11", "11") == 0
    assert f.bit("01", "11") == 1
    assert f.bit("00", "11") == 0
    f3 = inner_product_fn(3)
    assert f3.bit("111", "111") == 1
    assert f3.bit("101", "010") == 0


def test_spec_validates_grid_shape():
    with pytest.raises(ValueError):
        FunctionSpec("bad", 1, True, (("0", "1"),))
    with pytest.raises(ValueError):
        FunctionSpec("bad", 1, True, (("0", "1"), ("0",)))
    with pytest.raises(ValueError):
        FunctionSpec("bad", 1, True, (("0", "2"), ("0", "1")))


@pytest.mark.parametrize("make", [identity_fn, equality_fn, inner_product_fn])
def test_builtins_refuse_nonpositive_n_before_tabulating(make):
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            make(n)


def test_spec_rejects_wrong_width_cells():
    # string-valued cells must be exactly n bits wide
    with pytest.raises(ValueError):
        FunctionSpec("bad", 1, False, (("00", "1"), ("0", "1")))


def test_table_round_trip_boolean(tmp_path):
    f = equality_fn(2)
    path = tmp_path / "eq.txt"
    path.write_text(f.to_text())
    back = table_fn(path)
    assert back.cells == f.cells
    assert back.boolean


def test_table_round_trip_string_valued(tmp_path):
    f = identity_fn(2)
    path = tmp_path / "id.txt"
    path.write_text(f.to_text())
    back = table_fn(path, "id")
    assert back.value("10", "01") == "01"
    assert not back.boolean


def test_widest_legal_table_file_loads(tmp_path):
    # word-valued at the largest grid-limited n, as written and with CRLF line ends and padding
    f = identity_fn(8)
    path = tmp_path / "id8.txt"
    for text in (f.to_text(), f.to_text().replace("\n", " \r\n")):
        path.write_bytes(text.encode("ascii"))
        assert table_fn(path).cells == f.cells


def _random_table(rng, n, boolean):
    width = 1 if boolean else n
    size = 1 << n
    cells = tuple(
        tuple("".join(rng.choice("01") for _ in range(width)) for _ in range(size))
        for _ in range(size)
    )
    return FunctionSpec("random", n, boolean, cells)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_text_round_trips_through_function_spec(n):
    rng = random.Random(n)
    specs = [identity_fn(n), equality_fn(n), inner_product_fn(n)]
    specs += [_random_table(rng, n, boolean) for boolean in (True, False) for _ in range(3)]
    for f in specs:
        assert FunctionSpec.from_text(f.to_text(), f.name) == f


def test_table_text_format():
    assert equality_fn(1).to_text() == "n=1\n10\n01\n"
    assert identity_fn(1).to_text() == "n=1\n0;1\n0;1\n"


def test_table_parse_errors():
    bad = ["m=1\n10\n01\n", "n=1\n10\n", "n=1\n10\n02\n", "n=1\n0;1\n0\n", "", "n=x\n"]
    # a header past the grid limit is refused before 2^n is computed
    bad.append("n=100000\n0\n")
    for text in bad:
        with pytest.raises(ValueError):
            FunctionSpec.from_text(text, "t")


def test_parse_function_builtins_and_table(tmp_path):
    assert parse_function("identity", 2).name == "identity"
    assert parse_function("eq", 3).n == 3
    assert parse_function("ip", 2).boolean
    path = tmp_path / "t.txt"
    path.write_text(equality_fn(2).to_text())
    assert parse_function(f"table:{path}", 2).bit("00", "00") == 1
    with pytest.raises(ValueError):
        parse_function(f"table:{path}", 3)
    with pytest.raises(ValueError):
        parse_function("nope", 2)


def test_bit_requires_boolean():
    with pytest.raises(ValueError):
        identity_fn(1).bit("0", "0")


@pytest.mark.parametrize(
    "s,ok",
    [
        ("", True),
        ("01", True),
        ("0110" * 7 + "10", True),
        ("012", False),
        (" 01", False),
        ("01\n", False),
        ("\u0660\u0661", False),  # Arabic-Indic zero and one
        ("0" * 14 + "2" + "1" * 15, False),
        (None, False),
        (b"01", False),
        pytest.param("01" * 16500, True, id="long"),
        pytest.param("x" + "01" * 16500, False, id="long-bad-first"),
        pytest.param("01" * 8250 + "x" + "01" * 8250, False, id="long-bad-middle"),
        pytest.param("01" * 16500 + "x", False, id="long-bad-last"),
        ("\x00", False),
        pytest.param("01" * 8250 + "\u0661" + "01" * 8250, False, id="long-arabic-indic-one"),
    ],
)
def test_check_bits_accepts_exactly_the_bit_strings(s, ok):
    if ok:
        assert check_bits(s) is s
    else:
        with pytest.raises(ValueError):
            check_bits(s)


@settings(max_examples=300, deadline=None)
@given(st.text("01", max_size=40) | st.text(st.sampled_from("01") | st.characters(), max_size=40))
def test_check_bits_agrees_with_the_alphabet(s):
    if set(s) <= {"0", "1"}:
        assert check_bits(s) is s
    else:
        with pytest.raises(ValueError):
            check_bits(s)


def test_a_spec_hashes_its_fields_once_and_copies_rehash():
    f = identity_fn(2)
    g = FunctionSpec(f.name, f.n, f.boolean, f.cells)
    assert f is not g and f == g
    assert hash(f) == hash(g) == hash((f.name, f.n, f.boolean, f.cells))
    assert f.__dict__["_hash"] == hash(f)
    assert f != equality_fn(2) and f != FunctionSpec("other", 2, False, f.cells)
    # a string hash is only valid in the process that computed it
    copy = pickle.loads(pickle.dumps(f))
    assert "_hash" not in copy.__dict__
    assert copy == f and hash(copy) == hash(f)


def _word_table(n, seed):
    rng = random.Random(seed)
    words = [format(v, f"0{n}b") for v in range(1 << n)]
    return FunctionSpec("words", n, False, tuple(tuple(rng.choice(words) for _ in words) for _ in words))


def test_words_hold_the_value_on_every_pair():
    """words[x << n | y] is f(x, y), the cell zero-padded to n bits, also on copies and on a spec with other cells."""
    specs = [make(n) for make in (identity_fn, equality_fn, inner_product_fn) for n in (1, 2, 3)]
    specs += [_word_table(n, seed=n) for n in (1, 2, 3)]
    for f in specs:
        copy = pickle.loads(pickle.dumps(f))
        flipped = dataclasses.replace(f, cells=f.cells[::-1])
        for g in (f, copy, flipped):
            n = g.n
            assert len(g.words) == 1 << 2 * n
            for x in range(1 << n):
                for y in range(1 << n):
                    xs, ys = format(x, f"0{n}b"), format(y, f"0{n}b")
                    cell = g.cells[x][y].zfill(n)
                    assert g.words[x << n | y] == g.value(xs, ys) == cell, (g.name, n, xs, ys)
        assert copy.words == f.words and f.words is f.words


def test_named_functions_are_built_once_per_n():
    for make in (identity_fn, equality_fn, inner_product_fn):
        for n in (1, 2, 5):
            f = make(n)
            assert make(n) is f
            assert make(n) == FunctionSpec(f.name, n, f.boolean, f.cells)
            assert hash(make(n)) == hash(f)
            assert {f: n}[make(n)] == n
        assert make(1) is not make(2)
    # a refused n raises on every call and leaves nothing behind
    for _ in range(2):
        with pytest.raises(ValueError):
            identity_fn(0)
