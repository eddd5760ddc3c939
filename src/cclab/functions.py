"""Target functions and their truth tables.

A FunctionSpec is a total map f(x, y) on pairs of n-bit strings.  Values are
always reported as width-n strings: string-valued functions (identity) use
the natural value, truth-valued functions (equality, inner product) use the
zero-padded embedding 0...0b so that protocol outputs and function values
live in the same space.

Truth-table files are plain text: a first line "n=<int>" followed by 2**n
rows (x ascending lexicographic), each row listing the 2**n values for y
ascending: a string of 0/1 symbols for truth-valued tables, semicolon
separated n-bit strings otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

from .bits import all_bitstrings, bits_to_int, check_bits, embed_bit, inner_product_bit
from .errors import UsageError

__all__ = [
    "FunctionSpec",
    "identity_fn",
    "equality_fn",
    "inner_product_fn",
    "table_fn",
    "parse_function",
    "BUILTIN_NAMES",
]

BUILTIN_NAMES = ("identity", "eq", "ip")

# Exhaustive checks walk the full input grid (or tabulate a function over
# all its inputs); beyond this many cells they refuse rather than silently
# taking forever.
_EXHAUSTIVE_LIMIT = 1 << 16


def _check_grid_bits(bits: int, what: str = "input grid") -> None:
    """Refuse a grid of 2^bits cells past the limit without building 2^bits."""
    if bits > _EXHAUSTIVE_LIMIT.bit_length() - 1:
        raise UsageError(f"the 2^{bits}-cell {what} exceeds the limit of {_EXHAUSTIVE_LIMIT} cells")


# The largest table file read: word-valued rows at the largest n the grid
# limit admits, as to_text writes them, and as many bytes again of whitespace.
_MAX_TABLE_N = (_EXHAUSTIVE_LIMIT.bit_length() - 1) // 2
_MAX_TABLE_BYTES = 2 * (len(f"n={_MAX_TABLE_N}\n") + (1 << 2 * _MAX_TABLE_N) * (_MAX_TABLE_N + 1))


def _read_bounded(path: str | os.PathLike, limit: int, what: str, encoding: str) -> str:
    """The text of a file of at most limit bytes; a longer one is refused after limit + 1 bytes."""
    with open(path, "rb") as fh:
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise UsageError(f"{what} file {path} exceeds the limit of {limit} bytes")
    return data.decode(encoding)


@dataclass(frozen=True)
class FunctionSpec:
    """A named total function on n-bit input pairs.

    cells[i][j] is the value on (x_i, y_j) with rows and columns in
    ascending lexicographic order.  For truth-valued functions the cells
    store the raw bit; value() and words always give the width-n embedding.
    """

    name: str
    n: int
    boolean: bool
    cells: tuple[tuple[str, ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        _check_grid_bits(2 * self.n)
        size = 1 << self.n
        if len(self.cells) != size or any(len(row) != size for row in self.cells):
            raise ValueError("cells must form a 2^n by 2^n grid")
        width = 1 if self.boolean else self.n
        for row in self.cells:
            for v in row:
                check_bits(v, width)

    def __hash__(self) -> int:
        # the generated hash walks all 2^(2n) cells, once per cache lookup
        # keyed by the function; computed on first use, kept per instance
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.n, self.boolean, self.cells))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # string hashes differ between processes, so a copy recomputes its own
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def words(self) -> tuple:
        """The width-n value on every pair, indexed x << n | y; built on first use, kept per instance."""
        words = self.__dict__.get("_words")
        if words is None:
            words = tuple(embed_bit(int(v), self.n) if self.boolean else v for row in self.cells for v in row)
            object.__setattr__(self, "_words", words)
        return words

    def value(self, x: str, y: str) -> str:
        """f(x, y) as a width-n string."""
        return self.words[bits_to_int(check_bits(x, self.n)) << self.n | bits_to_int(check_bits(y, self.n))]

    def bit(self, x: str, y: str) -> int:
        """Truth value on (x, y); only defined for truth-valued functions."""
        if not self.boolean:
            raise ValueError(f"{self.name} is not truth-valued")
        return int(self.cells[bits_to_int(x)][bits_to_int(y)])

    def to_text(self) -> str:
        """The table-file form of the cells, which from_text reads back."""
        sep = "" if self.boolean else ";"
        return "\n".join([f"n={self.n}"] + [sep.join(row) for row in self.cells]) + "\n"

    @classmethod
    def from_text(cls, text: str, name: str) -> "FunctionSpec":
        """Split a table file into its header and rows; __post_init__ checks them.

        A table is truth-valued when its first row holds no ";".
        """
        header, *rows = [ln.strip() for ln in text.splitlines() if ln.strip()] or [""]
        if not header.startswith("n="):
            raise ValueError("table file must start with n=<int>")
        try:
            n = int(header[2:])
        except ValueError as exc:
            raise ValueError("table file must start with n=<int>") from exc
        boolean = not rows or ";" not in rows[0]
        cells = tuple(tuple(row) if boolean else tuple(row.split(";")) for row in rows)
        return cls(name, n, boolean, cells)


def _grid(n: int, fn) -> tuple[tuple[str, ...], ...]:
    # refused here, as FunctionSpec would, before any string of n bits is made
    if n < 1:
        raise ValueError("n must be positive")
    _check_grid_bits(2 * n)
    xs = list(all_bitstrings(n))
    return tuple(tuple(fn(x, y) for y in xs) for x in xs)


# The named functions are frozen, so one instance per n is shared: building
# one tabulates all 2^(2n) cells.  Every admitted n is at most 8, so the
# caches stay small; a refused n raises and is not kept.


@lru_cache(maxsize=16)
def identity_fn(n: int) -> FunctionSpec:
    """f(x, y) = y."""
    return FunctionSpec("identity", n, False, _grid(n, lambda x, y: y))


@lru_cache(maxsize=16)
def equality_fn(n: int) -> FunctionSpec:
    """f(x, y) = 1 iff x == y."""
    return FunctionSpec("eq", n, True, _grid(n, lambda x, y: str(int(x == y))))


@lru_cache(maxsize=16)
def inner_product_fn(n: int) -> FunctionSpec:
    """f(x, y) = parity of the bitwise AND of x and y."""
    return FunctionSpec("ip", n, True, _grid(n, lambda x, y: str(inner_product_bit(x, y))))


def table_fn(path: str | os.PathLike, name: str | None = None) -> FunctionSpec:
    text = _read_bounded(path, _MAX_TABLE_BYTES, "table", "ascii")
    return FunctionSpec.from_text(text, name if name is not None else f"table:{path}")


def parse_function(spec: str, n: int) -> FunctionSpec:
    """Resolve a CLI function argument: identity | eq | ip | table:<path>."""
    if spec == "identity":
        return identity_fn(n)
    if spec == "eq":
        return equality_fn(n)
    if spec == "ip":
        return inner_product_fn(n)
    if spec.startswith("table:"):
        fn = table_fn(spec[len("table:"):], name=spec)
        if fn.n != n:
            raise ValueError(f"table has n={fn.n}, requested n={n}")
        return fn
    raise ValueError(f"unknown function spec: {spec!r}")
