"""Charged strictly increasing sequences encoding partitions, and their
orbit invariants under even-signed permutations.

A shape lambda and a charge d determine the sequence

    entry(k) = d - lambda_k + k,

which strictly increases and equals d + k beyond the length of the shape;
for fixed charge the map shape <-> sequence is a bijection.  Sequences are
never stored as explicit lists: entry access is computed from (charge,
shape), so storage is O(1) and exact.

The group of permutations composed with an even number of sign changes
acts entrywise.  Two sequences of equal charge lie in one orbit exactly
when the multisets of absolute entries agree and either the parities of
their negative-entry counts agree or a zero entry is present (a zero
absorbs a sign change, leaving the parity unconstrained).  The canonical
:class:`OrbitKey` packages this decision: the deviation of the absolute
entries from the same-charge vacuum, plus a parity tag with a wildcard for
the zero-entry case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

    def window(self) -> list[Fraction]:
        return [self.entry(k) for k in range(1, self.length + 1)]

    def has_zero_entry(self) -> bool:
        if any(self.entry(k) == 0 for k in range(1, self.length + 1)):
            return True
        # tail entry charge + k vanishes at k = -charge when that is an
        # integer beyond the window
        pos = -self.charge
        return pos.denominator == 1 and pos.numerator >= self.length + 1

    def negative_count(self) -> int:
        count = sum(1 for k in range(1, self.length + 1) if self.entry(k) < 0)
        # tail entries charge + k are negative for k < -charge
        kmax = math.floor(-self.charge)
        if kmax == -self.charge:
            kmax -= 1
        count += max(0, kmax - self.length)
        return count


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


def orbit_twice_key(c2: int, shape: Partition) -> tuple:
    """The orbit invariant of the sequence of `shape` at charge c2/2, in
    twice-units: (deviations, parity).  Deviations are the sorted pairs
    (twice the absolute value, count) of the window's absolute entries
    against the vacuum; parity is the negative-entry count mod 2, or
    WILDCARD when an entry vanishes.  Two sequences of one charge have
    equal twice-keys exactly when their OrbitKeys are equal."""
    dev: dict[int, int] = {}
    negatives = 0
    zero = False
    for k, part in enumerate(shape.parts, 1):
        v = c2 + 2 * (k - part)
        if v < 0:
            negatives += 1
            v = -v
        elif v == 0:
            zero = True
        dev[v] = dev.get(v, 0) + 1
        w = abs(c2 + 2 * k)
        dev[w] = dev.get(w, 0) - 1
    deviations = tuple(sorted((v, c) for v, c in dev.items() if c))
    length = len(shape)
    # tail entries c2 + 2k (k > length) vanish at k = -c2/2 and are negative below it
    if zero or (c2 % 2 == 0 and -c2 >= 2 * length + 2):
        return deviations, WILDCARD
    negatives += max(0, (-c2 - 1) // 2 - length)
    return deviations, negatives % 2


def orbit_key(seq: ChargedSequence) -> OrbitKey:
    """Deviation multiset over the window, against the vacuum; beyond the
    window the two sequences coincide entry by entry.  Computed on
    :func:`orbit_twice_key`, with Fractions only in the returned key."""
    deviations, parity = orbit_twice_key(twice(seq.charge), seq.shape)
    return OrbitKey(seq.charge, tuple((half(v), c) for v, c in deviations), parity)


def same_orbit(s: ChargedSequence, t: ChargedSequence) -> bool:
    """Whether t is an even-signed permutation of s.

    Decided directly from the entries (not via orbit keys): compare the
    absolute-entry multisets over the common window, then the negative
    parities unless a zero entry makes the parity free.
    """
    if s.charge != t.charge:
        raise ValueError("orbits compare only within one sector")
    w = max(s.length, t.length)
    sa = sorted(abs(s.entry(k)) for k in range(1, w + 1))
    ta = sorted(abs(t.entry(k)) for k in range(1, w + 1))
    if sa != ta:
        return False
    if s.has_zero_entry():
        return True
    ps = sum(1 for k in range(1, w + 1) if s.entry(k) < 0) % 2
    pt = sum(1 for k in range(1, w + 1) if t.entry(k) < 0) % 2
    return ps == pt
