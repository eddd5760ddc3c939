"""Bit-string primitives shared by the whole package.

Inputs, transcripts, masks and code payloads are all plain Python strings
over the alphabet {'0', '1'}, most significant position first.  Keeping a
single textual representation makes transcripts diffable and keeps every
report deterministic.
"""

from __future__ import annotations

import re
from itertools import product

__all__ = [
    "all_bitstrings",
    "bits_from_int",
    "bits_to_int",
    "bits_to_hex",
    "bits_from_hex",
    "check_bits",
    "embed_bit",
    "inner_product_bit",
    "log2ceil",
    "xor_bits",
]


# str.translate deletes every '0' and '1' in one C-level pass; any character
# left over makes the string invalid
_DELETE_BITS = str.maketrans("", "", "01")


def check_bits(s: str, length: int | None = None) -> str:
    """Validate that s is a bit string (optionally of a fixed length)."""
    if not isinstance(s, str) or s.translate(_DELETE_BITS):
        raise ValueError(f"not a bit string: {s!r}")
    if length is not None and len(s) != length:
        raise ValueError(f"expected {length} bits, got {len(s)}: {s!r}")
    return s


def all_bitstrings(n: int):
    """Yield every length-n bit string in ascending lexicographic order."""
    for tup in product("01", repeat=n):
        yield "".join(tup)


def bits_to_int(s: str) -> int:
    return int(s, 2) if s else 0


def bits_from_int(v: int, width: int) -> str:
    if v < 0 or v >= (1 << width) and width > 0:
        raise ValueError(f"{v} does not fit in {width} bits")
    if width == 0:
        if v != 0:
            raise ValueError(f"{v} does not fit in 0 bits")
        return ""
    return format(v, f"0{width}b")


def log2ceil(k: int) -> int:
    """Smallest w with 2**w >= k; 0 for k <= 1."""
    if k <= 1:
        return 0
    return (k - 1).bit_length()


def xor_bits(a: str, b: str) -> str:
    if len(a) != len(b):
        raise ValueError("length mismatch in xor")
    return "".join("1" if ca != cb else "0" for ca, cb in zip(a, b))


def inner_product_bit(x: str, y: str) -> int:
    """Parity of the bitwise AND of two equal-length strings."""
    if len(x) != len(y):
        raise ValueError("length mismatch in inner product")
    return (bits_to_int(x) & bits_to_int(y)).bit_count() & 1


def embed_bit(b: int, width: int) -> str:
    """A single truth value written as a width-n string, zero padded left."""
    if b not in (0, 1):
        raise ValueError(f"not a bit: {b!r}")
    if width < 1:
        raise ValueError("width must be positive")
    return "0" * (width - 1) + str(b)


def bits_to_hex(s: str) -> str:
    """Length-preserving hex form "<bitcount>:<hexdigits>" used in reports."""
    return _hex_of(check_bits(s))


def _hex_of(s: str) -> str:
    """bits_to_hex of a string already known to be a bit string."""
    if not s:
        return "0:"
    pad = (-len(s)) % 4
    digits = format(int(s + "0" * pad, 2), f"0{(len(s) + pad) // 4}x")
    return f"{len(s)}:{digits}"


# the only forms bits_to_hex writes: a count in ASCII decimal without a
# leading zero, then lowercase ASCII hex digits (int() alone would also
# read signs, spaces, underscores and non-ASCII digits)
_HEX_FORM = re.compile(r"(0|[1-9][0-9]*):([0-9a-f]*)")


def bits_from_hex(h: str) -> str:
    """Inverse of bits_to_hex; anything it would not write is a ValueError."""
    count, digits = _checked_hex(h)
    return bits_from_int(int(digits or "0", 16) >> (4 * len(digits) - count), count)


def _checked_hex(h: str) -> tuple[int, str]:
    """Bit count and hex digits of h, which must read exactly as bits_to_hex writes."""
    match = _HEX_FORM.fullmatch(h) if isinstance(h, str) else None
    if match is None:
        raise ValueError(f"not a hex form: {h!r}")
    count, digits = int(match[1]), match[2]
    pad = 4 * len(digits) - count
    if pad not in range(4):
        raise ValueError(f"inconsistent hex form: {h!r}")
    if digits and int(digits[-1], 16) & ((1 << pad) - 1):
        raise ValueError(f"hex form has nonzero padding bits: {h!r}")
    return count, digits
