"""Transcript classes, rectangle audits, and GF(2) rank certificates.

A deterministic protocol partitions the non-stuck part of the input grid
into transcript classes, and every class is a combinatorial rectangle:
the set of pairs producing a given conversation is a product X x Y.  The
functions here extract that partition, check it, and run the audits that
hang off it (monochromaticity, the rank-based product bound for inner
product, the diagonal argument for equality).

All grids are tiny by construction, so rectangles are stored as explicit
sets of bit strings and every audit is exhaustive.  The partition comes
from one `_leaf_masks` fold of the tree, the same fold every grid question
reads: the cells that reach a leaf are its class, the fold's path spells
its transcript, and a class is a rectangle exactly when its cell count is
the number of rows it meets times the number of columns it meets.  The
audits' own per-row and per-diagonal runs stay as independent checks of
the fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bits import all_bitstrings, bits_to_int, embed_bit, xor_bits
from .errors import AuditFailure, RectangleViolation, UsageError
from .functions import FunctionSpec, equality_fn, inner_product_fn
from .protocol import (
    ProtocolTree,
    StuckLeaf,
    _check_grid,
    _leaf_masks,
    _transcript,
    computes_everywhere,
    run,
)


@dataclass(frozen=True)
class Rectangle:
    """A product set of inputs: rows are Alice's side, cols are Bob's."""

    rows: frozenset
    cols: frozenset

    @property
    def size(self) -> int:
        return len(self.rows) * len(self.cols)


@dataclass
class TranscriptPartition:
    """Transcript -> rectangle map covering every non-stuck input pair."""

    classes: dict
    covered: set
    n_alice: int
    n_bob: int

    @property
    def is_total_cover(self) -> bool:
        return len(self.covered) == (1 << self.n_alice) * (1 << self.n_bob)

    def class_of(self, transcript: str) -> Rectangle:
        return self.classes[transcript]

    def sorted_transcripts(self) -> list:
        return sorted(self.classes, key=lambda t: (len(t), t))


def _product_sides(transcript: str, cells: int, xs: list, ys: list) -> tuple[list, list]:
    """The rows and columns that a class's cells meet, when the cells are their product.

    Otherwise RectangleViolation names the transcript and up to four of the
    missing pairs, in ascending order.
    """
    nb = len(ys).bit_length() - 1
    row = (1 << len(ys)) - 1
    rows = [xa for xa in range(len(xs)) if cells >> (xa << nb) & row]
    met = 0
    for xa in rows:
        met |= cells >> (xa << nb) & row
    cols = [yb for yb in range(len(ys)) if met >> yb & 1]
    if cells.bit_count() != len(rows) * len(cols):
        missing = [
            (xs[xa], ys[yb]) for xa in rows for yb in cols if not cells >> (xa << nb | yb) & 1
        ]
        raise RectangleViolation(transcript, missing[:4])
    return rows, cols


def transcript_partition(tree: ProtocolTree) -> TranscriptPartition:
    """Group all pairs by conversation and verify each class is a rectangle.

    One `_leaf_masks` fold gives the cells that reach each leaf and the
    path that spells its transcript; the cells are a product set exactly
    when their count is the number of rows they meet times the number of
    columns they meet.  The rectangle property is a theorem for protocol
    trees, so a violation here means the execution engine itself is
    broken; it is reported as a RectangleViolation carrying the transcript
    and up to four of the missing pairs rather than silently producing a
    bad partition.
    """
    _check_grid(tree)
    na, nb = tree.n_alice, tree.n_bob
    xs, ys = list(all_bitstrings(na)), list(all_bitstrings(nb))
    groups = []
    for cells, path, leaf in _leaf_masks(tree.root, na, nb):
        if type(leaf) is StuckLeaf:
            continue
        transcript = _transcript(path)
        groups.append((cells & -cells, transcript, _product_sides(transcript, cells, xs, ys)))
    classes = {}
    covered = set()
    # in the order of each class's lowest cell, as a walk over the grid meets them
    for _, transcript, (rows, cols) in sorted(groups, key=lambda g: g[0]):
        rect = Rectangle(frozenset(xs[xa] for xa in rows), frozenset(ys[yb] for yb in cols))
        classes[transcript] = rect
        covered.update((x, y) for x in rect.rows for y in rect.cols)
    return TranscriptPartition(classes, covered, na, nb)


def rectangle_color(rect: Rectangle, f: FunctionSpec) -> int | None:
    """The constant truth value of f on the rectangle, or None if mixed."""
    if not f.boolean:
        raise UsageError("monochromaticity is defined for truth-valued functions")
    seen = {f.bit(x, y) for x in rect.rows for y in rect.cols}
    if len(seen) == 1:
        return seen.pop()
    return None


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of a collection of equal-length bit strings."""
    basis: dict = {}
    for v in vectors:
        cur = bits_to_int(v) if isinstance(v, str) else int(v)
        while cur:
            top = cur.bit_length() - 1
            if top in basis:
                cur ^= basis[top]
            else:
                basis[top] = cur
                break
    return len(basis)


@dataclass(frozen=True)
class IpClassRecord:
    transcript: str
    value: int
    rows: int
    cols: int
    product: int
    rank_rows: int
    rank_cols: int


@dataclass
class IpAuditReport:
    n: int
    records: list = field(default_factory=list)

    @property
    def max_product(self) -> int:
        return max((r.product for r in self.records), default=0)

    @property
    def bound(self) -> int:
        return 1 << self.n


def ip_rectangle_audit(tree: ProtocolTree) -> IpAuditReport:
    """Check |X|*|Y| <= 2^n for every output-refined transcript class.

    Classes are refined by Alice's announced value, then certified two
    ways: by direct counting, and through the rank argument (for value 1
    the class is first translated by one of its rows so that every row is
    orthogonal to every column).  Both checks are theorems for a protocol
    that computes inner product everywhere, so a failure is flagged as an
    engine bug, not as a property of the protocol.
    """
    if not tree.is_symmetric:
        raise UsageError("inner product audit needs equal input lengths")
    n = tree.n
    f = inner_product_fn(n)
    if not computes_everywhere(tree, f):
        raise UsageError("protocol does not compute inner product everywhere")
    partition = transcript_partition(tree)
    report = IpAuditReport(n)
    for transcript in partition.sorted_transcripts():
        rect = partition.class_of(transcript)
        any_y = min(rect.cols)
        outputs = {x: run(tree, x, any_y).output for x in rect.rows}
        for value in (0, 1):
            want = embed_bit(value, n)
            rows_v = frozenset(x for x in rect.rows if outputs[x] == want)
            if not rows_v:
                continue
            if value == 1:
                base = min(rows_v)
                cert_rows = [xor_bits(x, base) for x in sorted(rows_v)]
            else:
                cert_rows = sorted(rows_v)
            rank_rows = gf2_rank(cert_rows)
            rank_cols = gf2_rank(sorted(rect.cols))
            product = len(rows_v) * len(rect.cols)
            record = IpClassRecord(
                transcript, value, len(rows_v), len(rect.cols), product, rank_rows, rank_cols
            )
            if rank_rows + rank_cols > n:
                raise AuditFailure(
                    f"rank certificate failed on transcript {transcript!r}: "
                    f"{rank_rows}+{rank_cols} > {n}"
                )
            if product > (1 << n):
                raise AuditFailure(
                    f"class product {product} exceeds 2^{n} on transcript {transcript!r}"
                )
            report.records.append(record)
    return report


@dataclass
class DiagonalReport:
    n: int
    max_length: int
    distinct: int


def equality_diagonal_bound(tree: ProtocolTree) -> DiagonalReport:
    """Distinct diagonal transcripts force a conversation of >= n bits.

    For a protocol computing equality everywhere, transcripts on (x, x)
    are pairwise distinct: sharing one would put some (x, x') with x != x'
    in the same rectangle, where Alice's answer depends on x alone and is
    already forced to 1 by the diagonal pair.  Distinctness plus the
    prefix-free property of conversations gives max length >= n.
    """
    if not tree.is_symmetric:
        raise UsageError("equality audit needs equal input lengths")
    n = tree.n
    if not computes_everywhere(tree, equality_fn(n)):
        raise UsageError("protocol does not compute equality everywhere")
    transcripts = {}
    for x in all_bitstrings(n):
        t = run(tree, x, x).transcript
        if t in transcripts:
            raise AuditFailure(
                f"diagonal transcripts collide on {transcripts[t]!r} and {x!r}"
            )
        transcripts[t] = x
    max_length = max(map(len, transcripts))
    if max_length < n:
        raise AuditFailure(
            f"prefix-free counting violated: {1 << n} transcripts, max {max_length} < {n}"
        )
    return DiagonalReport(n, max_length, len(transcripts))
