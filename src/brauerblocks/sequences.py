"""Charged strictly increasing sequences encoding partitions, and their
orbit invariants under even-signed permutations.

A shape lambda and a charge d determine the sequence

    entry(k) = d - lambda_k + k,

which strictly increases and equals d + k beyond the length of the shape;
for fixed charge the map shape <-> sequence is a bijection.  Sequences are
never stored as explicit lists: a :class:`ChargedSequence` is (charge,
shape), so storage is O(1) and exact.

The group of permutations composed with an even number of sign changes
acts entrywise.  Two sequences of equal charge lie in one orbit exactly
when the multisets of absolute entries agree and either the parities of
their negative-entry counts agree or a zero entry is present (a zero
absorbs a sign change, leaving the parity unconstrained).

Every invariant is computed in integer twice-units: with c2 = 2d, twice
the k-th entry is c2 + 2(k - lambda_k).  :func:`transpose_profile` is the
one implementation of the orbit rule, the deviation of the absolute
entries from the same-charge vacuum plus a parity tag with a wildcard for
the zero-entry case, together with the negative-entry count and the zero
flag.  It takes the *transpose* of the shape, the module label of the
block layer, and reads the sequence off that label's runs of equal rows,
for a label with r rows in O(runs * log r + sum over runs of
min(part, run length)).  :func:`orbit_twice_key`, :func:`sign_profile`,
:func:`same_orbit` and :meth:`ChargedSequence.negative_count` call it on
the shape's transpose, and the reflection-descent oracle in ``blocks``
checks it independently.  Fractions appear only at the public edge:
:meth:`ChargedSequence.entry`, the :class:`OrbitKey` and
:func:`shape_from_entries`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import neg

from .partitions import Partition, half, twice

WILDCARD = "*"


@dataclass(frozen=True)
class ChargedSequence:
    charge: Fraction
    shape: Partition

    def entry(self, k: int) -> Fraction:
        """The k-th entry, 1-based: charge - shape_k + k."""
        return self.charge - self.shape.part(k) + k

    @property
    def length(self) -> int:
        """Window length; entries agree with the vacuum beyond it."""
        return len(self.shape)

    def has_zero_entry(self) -> bool:
        return sign_profile(twice(self.charge), self.shape)[1]

    def negative_count(self) -> int:
        return sign_profile(twice(self.charge), self.shape)[0]


def make_sequence(shape: Partition, charge) -> ChargedSequence:
    """The charged sequence of a shape; the charge must be a half-integer."""
    c = Fraction(charge)
    twice(c)  # validates denominator
    return ChargedSequence(c, shape)


def shape_from_entries(charge, entries) -> Partition:
    """Recover the shape from the first entries of a sequence (entries equal
    charge + k beyond the given window)."""
    c = Fraction(charge)
    parts = []
    for m, e in enumerate(entries, 1):
        lam = c + m - Fraction(e)
        if lam.denominator != 1 or lam < 0:
            raise ValueError(f"entry {e} at position {m} is not reachable from charge {c}")
        parts.append(lam.numerator)
    while parts and parts[-1] == 0:
        parts.pop()
    return Partition(parts)


@dataclass(frozen=True)
class OrbitKey:
    """Canonical orbit invariant: charge, deviation of the absolute-entry
    multiset from the vacuum of the same charge, and a negative-count parity
    that is the wildcard '*' when a zero entry is present."""

    charge: Fraction
    deviations: tuple[tuple[Fraction, int], ...]
    neg_parity: object  # 0, 1, or WILDCARD

    def to_json(self) -> dict:
        return {
            "twiceCharge": twice(self.charge),
            "devMap": [[twice(v), c] for v, c in self.deviations],
            "negParity": self.neg_parity,
        }


def transpose_profile(c2: int, parts: tuple[int, ...]) -> tuple[tuple, int, bool]:
    """(twice-key, negative count, zero flag) of the sequence of the
    *transpose* of the partition `parts`, at charge c2/2, read off the rows
    of `parts` without building the transpose.

    The twice-key is (deviations, parity): the sorted pairs (twice the
    absolute value, count) by which the absolute entries deviate from the
    vacuum's, and the negative-entry count mod 2, or WILDCARD when an entry
    vanishes.  Two sequences of one charge lie in one orbit exactly when
    their twice-keys are equal.

    By the Maya-diagram complement identity (Macdonald, Symmetric Functions
    and Hall Polynomials, I.(1.7)), {parts_i - i} and {j - 1 - transpose_j}
    partition Z, so twice the entries of the transpose's sequence are
    c2 + 2 + 2x for x >= -len(parts) with x no parts_i - i, and the
    vacuum's are those with x >= 0.  Row i thus adds the absolute value at
    x = -i and removes the one at x = parts_i - i.  Over a run of r rows
    equal to p the two progressions overlap except for min(p, r) values at
    each end, and the run's negative entries and zero are counted in O(1);
    so the cost is O(runs * log(rows) + sum of min(p, r))."""
    dev: dict[int, int] = {}
    length = len(parts)
    h = c2 + 2  # twice the entry at x is h + 2x
    t = -(h // 2)  # the entry at x is negative exactly when x < t
    zero = h % 2 == 0 and t >= -length  # the entry at x = t vanishes
    removed_negatives = 0
    a = 0
    while a < length:
        p = parts[a]
        b = bisect_right(parts, -p, a + 1, key=neg)  # the run is rows a+1..b
        m = p if p < b - a else b - a
        added, removed = h - 2 * b, h + 2 * (p - a - 1)
        for j in range(0, 2 * m, 2):
            v = abs(added + j)
            dev[v] = dev.get(v, 0) + 1
            v = abs(removed - j)
            dev[v] = dev.get(v, 0) - 1
        s = p - t  # row s removes x = t; rows below it remove x < t
        if s <= b:
            removed_negatives += b - (s if s > a else a)
            if s > a:
                zero = False
        a = b
    negatives = max(0, t + length) - removed_negatives
    parity = WILDCARD if zero else negatives % 2
    return (tuple(sorted((v, c) for v, c in dev.items() if c)), parity), negatives, zero


def sign_profile(c2: int, shape: Partition) -> tuple[int, bool]:
    """(number of negative entries, whether an entry vanishes) of the
    sequence of `shape` at charge c2/2."""
    return transpose_profile(c2, shape.transpose().parts)[1:]


def orbit_twice_key(c2: int, shape: Partition) -> tuple:
    """The orbit invariant of the sequence of `shape` at charge c2/2, in
    twice-units; see :func:`transpose_profile`."""
    return transpose_profile(c2, shape.transpose().parts)[0]


def key_from_twice(c2: int, twice_key: tuple) -> OrbitKey:
    """The :class:`OrbitKey` of a twice-key at charge c2/2."""
    deviations, parity = twice_key
    return OrbitKey(half(c2), tuple((half(v), c) for v, c in deviations), parity)


def orbit_key(seq: ChargedSequence) -> OrbitKey:
    """Deviation multiset over the window, against the vacuum; beyond the
    window the two sequences coincide entry by entry.  Computed on
    :func:`orbit_twice_key`, with Fractions only in the returned key."""
    c2 = twice(seq.charge)
    return key_from_twice(c2, orbit_twice_key(c2, seq.shape))


def same_orbit(s: ChargedSequence, t: ChargedSequence) -> bool:
    """Whether t is an even-signed permutation of s: their twice-keys agree."""
    if s.charge != t.charge:
        raise ValueError("orbits compare only within one sector")
    c2 = twice(s.charge)
    return orbit_twice_key(c2, s.shape) == orbit_twice_key(c2, t.shape)
