"""Sparse vectors in one charge sector of the semi-infinite wedge space.

Basis vectors are charged sequences of a fixed charge; a vector is a
finitely supported rational combination of them.  The operator indexed by
i moves the sequence entry equal to i - 1/2 up to i + 1/2 (raising) or the
entry equal to i + 1/2 down to i - 1/2 (lowering), extended linearly; the
result is zero whenever the moved entry would collide with its neighbour.
Only unit steps occur, so no reordering of factors ever happens and no
sign convention is needed.  The symmetric-pair generator b_i acts as
raising(i) + lowering(-i); on a basis sequence it adds or removes exactly
one box of the shape.

Operator indices i are half-integers of parity opposite to the charge
(twice(i) + twice(charge) must be odd).
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import HALF, Partition, canonical_key, root_index, twice
from .sequences import ChargedSequence


class WedgeVector:
    """Finitely supported map from charged sequences of one charge to
    rational coefficients; zero coefficients are never stored."""

    __slots__ = ("charge", "terms")

    def __init__(self, charge, terms=None):
        self.charge = Fraction(charge)
        clean: dict[ChargedSequence, Fraction] = {}
        for seq, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c == 0:
                continue
            if seq.charge != self.charge:
                raise ValueError("all basis sequences must share the vector's charge")
            clean[seq] = c
        self.terms = clean

    @classmethod
    def zero(cls, charge) -> "WedgeVector":
        return cls(charge)

    @classmethod
    def basis(cls, seq: ChargedSequence) -> "WedgeVector":
        return cls(seq.charge, {seq: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "WedgeVector") -> "WedgeVector":
        if self.charge != other.charge:
            raise ValueError("cannot add vectors from different sectors")
        out = dict(self.terms)
        for seq, c in other.terms.items():
            out[seq] = out.get(seq, Fraction(0)) + c
        return WedgeVector(self.charge, out)

    def __mul__(self, scalar) -> "WedgeVector":
        s = Fraction(scalar)
        return WedgeVector(self.charge, {seq: s * c for seq, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, WedgeVector)
            and self.charge == other.charge
            and self.terms == other.terms
        )

    def __repr__(self):
        body = " + ".join(
            f"{c}*w{list(seq.shape.parts)}" for seq, c in self.sorted_terms()
        )
        return f"WedgeVector(charge={self.charge}, {body or '0'})"

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: canonical_key(item[0].shape))


def _moved(seq: ChargedSequence, source: Fraction, step: int) -> ChargedSequence | None:
    """The basis sequence with the entry equal to source moved to source+step,
    or None when no entry matches or the move collides with a neighbour."""
    length = seq.length
    k = None
    for m in range(1, length + 1):
        if seq.entry(m) == source:
            k = m
            break
    if k is None:
        pos = source - seq.charge
        if pos.denominator != 1 or pos.numerator <= length:
            return None
        k = pos.numerator
    dest = source + step
    if step > 0:
        if seq.entry(k + 1) == dest:
            return None
    else:
        if k >= 2 and seq.entry(k - 1) == dest:
            return None
    parts = list(seq.shape.parts)
    while len(parts) < k:
        parts.append(0)
    parts[k - 1] -= step
    while parts and parts[-1] == 0:
        parts.pop()
    return ChargedSequence(seq.charge, Partition(parts))


def _apply_move(index, vector: WedgeVector, source_offset: Fraction, step: int) -> WedgeVector:
    delta = twice(vector.charge) + 2
    i = root_index(index, delta, "operator index parity does not match the sector")
    out: dict[ChargedSequence, Fraction] = {}
    for seq, coeff in vector.terms.items():
        moved = _moved(seq, i + source_offset, step)
        if moved is not None:
            out[moved] = out.get(moved, Fraction(0)) + coeff
    return WedgeVector(vector.charge, out)


def apply_raising(index, vector: WedgeVector) -> WedgeVector:
    """Move the entry equal to index - 1/2 up by one step."""
    return _apply_move(index, vector, -HALF, +1)


def apply_lowering(index, vector: WedgeVector) -> WedgeVector:
    """Move the entry equal to index + 1/2 down by one step."""
    return _apply_move(index, vector, +HALF, -1)


def apply_b(index, vector: WedgeVector) -> WedgeVector:
    """The symmetric-pair generator: raising(index) + lowering(-index)."""
    i = Fraction(index)
    return apply_raising(i, vector) + apply_lowering(-i, vector)


def relative_weight(seq: ChargedSequence) -> dict[Fraction, int]:
    """Weight of the basis sequence relative to the vacuum of its charge, in
    simple-root coordinates.

    Each window position contributes eps(charge+k) - eps(entry(k)), and every
    consecutive difference eps(a) - eps(a+1) telescopes to the simple root
    indexed by a + 1/2; the result has one -1 per box of the shape.
    """
    out: dict[Fraction, int] = {}
    for k in range(1, seq.length + 1):
        m = seq.entry(k)
        top = seq.charge + k
        while m < top:
            key = m + HALF
            out[key] = out.get(key, 0) - 1
            m += 1
    return {k: c for k, c in out.items() if c}


def wedge_vector_json(vector: WedgeVector) -> list[dict]:
    return [
        {
            "shape": list(seq.shape.parts),
            "twiceCharge": twice(seq.charge),
            "numerator": coeff.numerator,
            "denominator": coeff.denominator,
        }
        for seq, coeff in vector.sorted_terms()
    ]
