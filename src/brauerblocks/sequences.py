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
one implementation of the orbit rule for a single shape: the deviation of
the absolute entries from the same-charge vacuum plus a parity tag with a
wildcard for the zero-entry case, together with the negative-entry count
and the zero flag.  It takes the *transpose* of the shape, the module
label of the block layer, and reads the sequence off that label's runs of
equal rows, for a label with r rows in O(runs * log r + sum over runs of
min(part, run length)); :func:`transpose_has_zero` reads the zero flag
alone, by one binary search over the rows.  Callers that hold a label read
its negative-entry count and zero flag from it directly;
:func:`orbit_key` and :func:`same_orbit` call it on the shape's transpose.
``blocks.brauer_algebra_blocks`` applies the same rule one row at a time,
along one walk over all labels up to a size.  The reflection-descent
oracle in ``blocks`` checks both independently.
The :class:`OrbitKey` holds the twice-key as it is, with twice the charge.
Fractions appear only in :class:`ChargedSequence` (:func:`make_sequence`,
:meth:`ChargedSequence.entry`) and :func:`shape_from_entries`, which with
:func:`orbit_key` and :func:`same_orbit` no other module of the package
calls: the tests read the orbit rule entry by entry through them.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .partitions import Partition, row_runs, twice

WILDCARD = "*"


class ChargedSequence(NamedTuple):
    charge: Fraction
    shape: Partition

    def entry(self, k: int) -> Fraction:
        """The k-th entry, 1-based: charge - shape_k + k."""
        return self.charge - self.shape.part(k) + k

    @property
    def length(self) -> int:
        """Window length; entries agree with the vacuum beyond it."""
        return len(self.shape)


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


class OrbitKey(NamedTuple):
    """Canonical orbit invariant in twice-units: twice the charge, the
    deviation of the absolute-entry multiset from the vacuum of the same
    charge as sorted pairs (twice the absolute value, count), and a
    negative-count parity that is the wildcard '*' when a zero entry is
    present."""

    twice_charge: int
    deviations: tuple[tuple[int, int], ...]
    neg_parity: object  # 0, 1, or WILDCARD

    def to_json(self) -> dict:
        return {
            "twiceCharge": self.twice_charge,
            "devMap": [[v, c] for v, c in self.deviations],
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
    for a, b, p in row_runs(parts):
        m = p if p < b - a else b - a
        added, removed = h - 2 * b, h + 2 * (p - a - 1)
        if m == 1:
            v = abs(added)
            dev[v] = dev.get(v, 0) + 1
            v = abs(removed)
            dev[v] = dev.get(v, 0) - 1
        else:
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
    negatives = max(0, t + length) - removed_negatives
    parity = WILDCARD if zero else negatives % 2
    return (tuple(sorted([(v, c) for v, c in dev.items() if c])), parity), negatives, zero


def transpose_has_zero(c2: int, parts: tuple[int, ...]) -> bool:
    """The zero flag of :func:`transpose_profile` alone, by one binary
    search over the rows.  Row i removes x = parts_i - i, which strictly
    decreases in i, so the entry at x = t vanishes exactly when c2 is even,
    t >= -len(parts) and no row removes x = t."""
    h = c2 + 2
    t = -(h // 2)
    length = len(parts)
    if h % 2 != 0 or t < -length:
        return False
    # j is the first row, 0-based, whose x is at most t
    j = bisect_left(range(length), -t, key=lambda j: j + 1 - parts[j])
    return j == length or parts[j] - j - 1 != t


def orbit_key(seq: ChargedSequence) -> OrbitKey:
    """Deviation multiset over the window, against the vacuum; beyond the
    window the two sequences coincide entry by entry.  The twice-key of
    :func:`transpose_profile`, read off the shape's transpose, with twice
    the charge."""
    c2 = twice(seq.charge)
    return OrbitKey(c2, *transpose_profile(c2, seq.shape.transpose().parts)[0])


def same_orbit(s: ChargedSequence, t: ChargedSequence) -> bool:
    """Whether t is an even-signed permutation of s: their twice-keys agree."""
    if s.charge != t.charge:
        raise ValueError("orbits compare only within one sector")
    c2 = twice(s.charge)
    key_s, key_t = (transpose_profile(c2, q.shape.transpose().parts)[0] for q in (s, t))
    return key_s == key_t
