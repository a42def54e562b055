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
"""

from __future__ import annotations

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
    a neighbour.  Beyond the shape's length the entries are the vacuum's, so
    a tail entry can only move down, and only from position length + 1."""
    length = len(shape)

    def entry(k: int) -> int:
        return c2 + 2 * (k - shape.part(k))

    k = next((m for m in range(1, length + 1) if entry(m) == source), None)
    if k is None:
        k, odd = divmod(source - c2, 2)
        if odd or k <= length:
            return None
    if k + step >= 1 and entry(k + step) == source + 2 * step:
        return None
    # the collision test leaves k <= length + 1, so at most one part is added
    parts = list(shape.parts) + [0] * (k - length)
    parts[k - 1] -= step
    return Partition(p for p in parts if p)


def _apply_move(i2: int, vector: WedgeVector, step: int) -> WedgeVector:
    """Move the entry of twice-value i2 - step by step in every term."""
    c2 = vector.twice_charge
    if (i2 + c2) % 2 == 0:
        raise ValueError("operator index parity does not match the sector")
    out: dict[Partition, int | Fraction] = {}
    for shape, coeff in vector.terms.items():
        moved = _moved(c2, shape, i2 - step, step)
        if moved is not None:
            out[moved] = out.get(moved, 0) + coeff
    return WedgeVector(c2, out)


def apply_raising(index, vector: WedgeVector) -> WedgeVector:
    """Move the entry equal to index - 1/2 up by one step."""
    return _apply_move(twice(index), vector, +1)


def apply_lowering(index, vector: WedgeVector) -> WedgeVector:
    """Move the entry equal to index + 1/2 down by one step."""
    return _apply_move(twice(index), vector, -1)


def apply_b(index, vector: WedgeVector) -> WedgeVector:
    """The symmetric-pair generator: raising(index) + lowering(-index)."""
    i2 = twice(index)
    return _apply_move(i2, vector, +1) + _apply_move(-i2, vector, -1)


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
