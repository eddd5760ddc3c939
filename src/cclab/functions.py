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

from .bits import all_bitstrings, bits_to_int, check_bits, embed_bit, inner_product_bit
from .errors import UsageError

__all__ = [
    "FunctionSpec",
    "FunctionTable",
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


@dataclass(frozen=True)
class FunctionSpec:
    """A named total function on n-bit input pairs.

    cells[i][j] is the value on (x_i, y_j) with rows and columns in
    ascending lexicographic order.  For truth-valued functions the cells
    store the raw bit; value() always returns the width-n embedding.
    """

    name: str
    n: int
    boolean: bool
    cells: tuple[tuple[str, ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        size = 1 << self.n
        if len(self.cells) != size or any(len(row) != size for row in self.cells):
            raise ValueError("cells must form a 2^n by 2^n grid")
        width = 1 if self.boolean else self.n
        for row in self.cells:
            for v in row:
                check_bits(v, width)

    def value(self, x: str, y: str) -> str:
        """f(x, y) as a width-n string."""
        raw = self.cells[bits_to_int(check_bits(x, self.n))][bits_to_int(check_bits(y, self.n))]
        return embed_bit(int(raw), self.n) if self.boolean else raw

    def bit(self, x: str, y: str) -> int:
        """Truth value on (x, y); only defined for truth-valued functions."""
        if not self.boolean:
            raise ValueError(f"{self.name} is not truth-valued")
        return int(self.cells[bits_to_int(x)][bits_to_int(y)])

    def table(self) -> FunctionTable:
        return FunctionTable(self.n, self.boolean, self.cells)


@dataclass(frozen=True)
class FunctionTable:
    """Raw truth-table form of a FunctionSpec, with file round-tripping."""

    n: int
    boolean: bool
    cells: tuple[tuple[str, ...], ...] = field(repr=False)

    def spec(self, name: str = "table") -> FunctionSpec:
        return FunctionSpec(name, self.n, self.boolean, self.cells)

    def to_text(self) -> str:
        lines = [f"n={self.n}"]
        for row in self.cells:
            lines.append("".join(row) if self.boolean else ";".join(row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FunctionTable":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("n="):
            raise ValueError("table file must start with n=<int>")
        try:
            n = int(lines[0][2:])
        except ValueError as exc:
            raise ValueError("table file must start with n=<int>") from exc
        if n < 1:
            raise ValueError("n must be positive")
        size = 1 << n
        rows = lines[1:]
        if len(rows) != size:
            raise ValueError(f"expected {size} rows, got {len(rows)}")
        boolean = ";" not in rows[0] and len(rows[0]) == size
        cells = []
        for row in rows:
            entries = tuple(row) if boolean else tuple(row.split(";"))
            if len(entries) != size:
                raise ValueError(f"row has {len(entries)} entries, expected {size}")
            width = 1 if boolean else n
            for v in entries:
                check_bits(v, width)
            cells.append(entries)
        return cls(n, boolean, tuple(cells))

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path: str | os.PathLike) -> "FunctionTable":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())


def _grid(n: int, fn) -> tuple[tuple[str, ...], ...]:
    if 4**n > _EXHAUSTIVE_LIMIT:
        raise UsageError(f"n={n}: the 2^{2 * n}-cell input grid is too large to tabulate")
    xs = list(all_bitstrings(n))
    return tuple(tuple(fn(x, y) for y in xs) for x in xs)


def identity_fn(n: int) -> FunctionSpec:
    """f(x, y) = y."""
    return FunctionSpec("identity", n, False, _grid(n, lambda x, y: y))


def equality_fn(n: int) -> FunctionSpec:
    """f(x, y) = 1 iff x == y."""
    return FunctionSpec("eq", n, True, _grid(n, lambda x, y: str(int(x == y))))


def inner_product_fn(n: int) -> FunctionSpec:
    """f(x, y) = parity of the bitwise AND of x and y."""
    return FunctionSpec("ip", n, True, _grid(n, lambda x, y: str(inner_product_bit(x, y))))


def table_fn(path: str | os.PathLike, name: str | None = None) -> FunctionSpec:
    table = FunctionTable.load(path)
    return table.spec(name if name is not None else f"table:{path}")


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
