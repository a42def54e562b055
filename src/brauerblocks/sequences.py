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
the k-th entry is c2 + 2(k - lambda_k).  :func:`orbit_twice_key` is the
one implementation of the orbit rule, the deviation of the absolute
entries from the same-charge vacuum plus a parity tag with a wildcard for
the zero-entry case; :func:`same_orbit` compares these keys, and the
reflection-descent oracle in ``blocks`` checks them independently.
:func:`sign_profile` counts negative entries and finds a zero entry while
the entries stay nonpositive, so it costs O(negative entries).  Fractions
appear only at the public edge: :meth:`ChargedSequence.entry`, the
:class:`OrbitKey` and :func:`shape_from_entries`.
"""

from __future__ import annotations

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


def _tail_signs(c2: int, length: int) -> tuple[int, bool]:
    # the tail entries c2 + 2k (k > length) are negative below k = -c2/2 and
    # vanish at it: (how many are negative, whether one vanishes)
    return max(0, (-c2 - 1) // 2 - length), c2 % 2 == 0 and -c2 >= 2 * length + 2


def sign_profile(c2: int, shape: Partition) -> tuple[int, bool]:
    """(number of negative entries, whether an entry vanishes) of the
    sequence of `shape` at charge c2/2.  Twice the k-th entry is
    c2 + 2(k - part_k); the entries increase, so the scan stops at the
    first nonnegative one."""
    negatives = 0
    zero = False
    for k, part in enumerate(shape.parts, 1):
        v = c2 + 2 * (k - part)
        if v >= 0:
            zero = v == 0
            break
        negatives += 1
    tail_negatives, tail_zero = _tail_signs(c2, len(shape))
    return negatives + tail_negatives, zero or tail_zero


def orbit_twice_key(c2: int, shape: Partition) -> tuple:
    """The orbit invariant of the sequence of `shape` at charge c2/2, in
    twice-units: (deviations, parity).  Deviations are the sorted pairs
    (twice the absolute value, count) by which the window's absolute
    entries deviate from the vacuum's; parity is the negative-entry count
    mod 2, or WILDCARD when an entry vanishes.  Two sequences of one charge
    lie in one orbit exactly when their twice-keys are equal."""
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
    tail_negatives, tail_zero = _tail_signs(c2, len(shape))
    parity = WILDCARD if zero or tail_zero else (negatives + tail_negatives) % 2
    return tuple(sorted((v, c) for v, c in dev.items() if c)), parity


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
