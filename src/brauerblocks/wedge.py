"""Sparse vectors in one charge sector of the semi-infinite wedge space.

Basis vectors are charged sequences of a fixed charge; a vector is a
finitely supported rational combination of them, stored as a map from
shape to coefficient with the sector's charge held once, as its
twice-value c2.  The operator indexed by i moves the sequence entry equal
to i - 1/2 up to i + 1/2 (raising) or the entry equal to i + 1/2 down to
i - 1/2 (lowering), extended linearly; the result is zero whenever the
moved entry would collide with its neighbour.  Only unit steps occur, so
no reordering of factors ever happens and no sign convention is needed.
The symmetric-pair generator b_i acts as raising(i) + lowering(-i); on a
basis sequence it adds or removes exactly one box of the shape.

Operator indices i are half-integers of parity opposite to the charge
(twice(i) + c2 must be odd).  The operators take i as a number and
convert it once per call; below that, entries, indices and weight keys
are twice-values: twice the k-th entry of a shape's sequence is
c2 + 2(k - shape_k), and the simple root alpha_i is keyed by 2i.

Each move on a term costs O(1) when its entry lies in the tail or below
the first row, and one binary search over the rows otherwise; b_i makes
its two moves in one pass over the terms and builds one vector.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .partitions import Partition, canonical_key, twice


class WedgeVector:
    """Finitely supported map from the shapes of the sector of twice-charge
    twice_charge to rational coefficients; zero coefficients are never
    stored."""

    __slots__ = ("twice_charge", "terms")

    def __init__(self, twice_charge: int, terms=None):
        self.twice_charge = twice_charge
        # ints and Fractions stay as given; a float or a string "p/q" is read exactly
        self.terms: dict[Partition, int | Fraction] = {
            shape: c if isinstance(c, (int, Fraction)) else Fraction(c)
            for shape, c in (terms or {}).items() if c
        }

    @classmethod
    def _unchecked(cls, twice_charge: int, terms: dict) -> "WedgeVector":
        """A vector from terms already free of zero coefficients, without
        the conversion of each coefficient."""
        vector = object.__new__(cls)
        vector.twice_charge = twice_charge
        vector.terms = terms
        return vector

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "WedgeVector") -> "WedgeVector":
        if self.twice_charge != other.twice_charge:
            raise ValueError("cannot add vectors from different sectors")
        out = dict(self.terms)
        for shape, c in other.terms.items():
            out[shape] = out.get(shape, 0) + c
        return WedgeVector(self.twice_charge, out)

    def __mul__(self, scalar) -> "WedgeVector":
        s = Fraction(scalar)
        return WedgeVector(self.twice_charge, {shape: s * c for shape, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, WedgeVector)
            and self.twice_charge == other.twice_charge
            and self.terms == other.terms
        )

    def __repr__(self):
        body = " + ".join(f"{c}*w{list(shape.parts)}" for shape, c in self.sorted_terms())
        return f"WedgeVector(twice_charge={self.twice_charge}, {body or '0'})"

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: canonical_key(item[0]))


def _moved(c2: int, shape: Partition, source: int, step: int) -> Partition | None:
    """The shape whose sequence has the entry of twice-value source moved by
    step (+1 or -1), or None when no entry matches or the move collides with
    a neighbour.

    Row k holds the entry c2 + 2d for d = k - shape_k, which strictly
    increases in k; beyond the shape's length the entries are the vacuum's,
    d = k.  So a parity mismatch, a d beyond the length (a tail entry, which
    can only move down, and only from row length + 1) and a d below the
    first row's 1 - shape_1 are answered in O(1), and any other d costs one
    binary search over the rows."""
    d, odd = divmod(source - c2, 2)
    parts = shape.parts
    length = len(parts)
    if odd:
        return None
    if d > length:
        if step > 0 or d > length + 1:
            return None
        return Partition._unchecked(parts + (1,), shape.size + 1)
    # with no rows, d <= 0 lies below the vacuum's first entry, d = 1
    if not length or d < 1 - parts[0]:
        return None
    j = bisect_left(range(length), d, key=lambda m: m + 1 - parts[m])  # row j + 1
    if j == length:  # d lies above every row's entry
        return None
    p = parts[j]
    # no row holds d, or the neighbour the entry moves toward, row k + 1,
    # is as long (no row outside 1..length is)
    k = j + step
    if j + 1 - p != d or (0 <= k < length and parts[k] == p):
        return None
    q = p - step
    return Partition._unchecked(parts[:j] + ((q,) if q else ()) + parts[j + 1:], shape.size - step)


def _apply_moves(i2: int, vector: WedgeVector, moves) -> WedgeVector:
    """Sum over the (source, step) moves of moving that entry in every term,
    for the operator of twice-index i2; one dict, one vector."""
    c2 = vector.twice_charge
    if (i2 + c2) % 2 == 0:
        raise ValueError("operator index parity does not match the sector")
    out: dict[Partition, int | Fraction] = {}
    for shape, coeff in vector.terms.items():
        for source, step in moves:
            moved = _moved(c2, shape, source, step)
            if moved is not None:
                out[moved] = out.get(moved, 0) + coeff
    # the coefficients are sums of the input's, so only a zero sum is dropped
    if 0 in out.values():
        out = {shape: c for shape, c in out.items() if c}
    return WedgeVector._unchecked(c2, out)


def apply_raising(index, vector: WedgeVector) -> WedgeVector:
    """Move the entry equal to index - 1/2 up by one step."""
    i2 = twice(index)
    return _apply_moves(i2, vector, ((i2 - 1, +1),))


def apply_lowering(index, vector: WedgeVector) -> WedgeVector:
    """Move the entry equal to index + 1/2 down by one step."""
    i2 = twice(index)
    return _apply_moves(i2, vector, ((i2 + 1, -1),))


def apply_b(index, vector: WedgeVector) -> WedgeVector:
    """The symmetric-pair generator: raising(index) + lowering(-index), both
    moves made in one pass over the terms."""
    i2 = twice(index)
    return _apply_moves(i2, vector, ((i2 - 1, +1), (1 - i2, -1)))


def relative_weight(c2: int, shape: Partition) -> dict[int, int]:
    """Weight of the basis sequence of shape at charge c2/2 relative to the
    vacuum of its charge, in simple-root coordinates keyed by twice-indices.

    Each window position contributes eps(charge+k) - eps(entry(k)), and every
    consecutive difference eps(a) - eps(a+1) telescopes to the simple root
    indexed by a + 1/2, twice-index 2a + 1; the result has one -1 per box of
    the shape.
    """
    out: dict[int, int] = {}
    for k in range(1, len(shape) + 1):
        for m in range(c2 + 2 * (k - shape.part(k)), c2 + 2 * k, 2):
            out[m + 1] = out.get(m + 1, 0) - 1
    return out


def wedge_vector_json(vector: WedgeVector) -> list[dict]:
    return [
        {
            "shape": list(shape.parts),
            "twiceCharge": vector.twice_charge,
            "numerator": coeff.numerator,
            "denominator": coeff.denominator,
        }
        for shape, coeff in vector.sorted_terms()
    ]
