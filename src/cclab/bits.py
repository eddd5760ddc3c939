"""Bit-string primitives shared by the whole package.

Inputs, transcripts, masks and code payloads are all plain Python strings
over the alphabet {'0', '1'}, most significant position first.  Keeping a
single textual representation makes transcripts diffable and keeps every
report deterministic.
"""

from __future__ import annotations

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


def check_bits(s: str, length: int | None = None) -> str:
    """Validate that s is a bit string (optionally of a fixed length)."""
    if not isinstance(s, str) or s.strip("01"):
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
    check_bits(s)
    if not s:
        return "0:"
    pad = (-len(s)) % 4
    digits = format(int(s + "0" * pad, 2), f"0{(len(s) + pad) // 4}x")
    return f"{len(s)}:{digits}"


def bits_from_hex(h: str) -> str:
    count_s, _, digits = h.partition(":")
    count = int(count_s)
    if count == 0:
        return ""
    width = 4 * len(digits)
    if width < count or width - count >= 4:
        raise ValueError(f"inconsistent hex form: {h!r}")
    return bits_from_int(int(digits, 16), width)[:count]
