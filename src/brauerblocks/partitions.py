"""Integer partitions, Young-diagram boxes and shifted box contents.

A partition is stored as a weakly decreasing tuple of positive integers.
Boxes of its Young diagram sit at (row i, column j) with 1 <= j <= parts[i-1];
the content of a box is j - i and its delta-shifted content is
(delta - 1)/2 + (j - i).  For integral delta the shifted contents lie in
Z or Z + 1/2 according to the parity of delta; arbitrary rational delta is
accepted because the central-character computations need it.

Below the public edge the package holds every half-integer as its
twice-value, an int: a root index i as 2i, a sequence entry or charge as
twice its value.  :func:`twice` and :func:`half` convert at the edge, where
values are exact Fractions (such as :meth:`Partition.contents` and the
CLI's arguments); Fractions that stay are genuinely rational (delta and
the roots of central characters), and wedge-vector coefficients are
rational values, an int or a Fraction.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import ge, index, neg

HALF = Fraction(1, 2)


class PartitionError(ValueError):
    """Raised for text or part lists that do not describe a partition."""


def half(twice_value: int) -> Fraction:
    """The exact number twice_value / 2."""
    return Fraction(twice_value, 2)


def twice(value) -> int:
    """2 * value as an int; rejects anything outside (1/2)Z."""
    # an int or a Fraction is read as it is, without building a new Fraction
    q = value if isinstance(value, (int, Fraction)) else Fraction(value)
    if q.denominator > 2:
        raise ValueError(f"{value} is not an integer or half-integer")
    return 2 * q.numerator // q.denominator


def integer_or_none(value) -> int | None:
    """value as an int, or None unless it is an integer."""
    if type(value) is int:  # as it is; a bool and the rest go through Fraction
        return value
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else None


def integral(value, message: str) -> int:
    """value as an int; raises ValueError(message) unless it is an integer."""
    n = integer_or_none(value)
    if n is None:
        raise ValueError(message)
    return n


def _part(value) -> int:
    """value as an int part; a float, a string or a Fraction is refused."""
    try:
        return index(value)
    except TypeError:
        raise PartitionError(f"partition entry {value!r} is not an integer") from None


class Partition:
    """Immutable weakly decreasing sequence of positive integers."""

    __slots__ = ("parts", "size")

    def __init__(self, parts=()):
        parts = tuple(parts)  # a one-shot iterable is read once
        try:
            parts = tuple(map(index, parts))
        except TypeError:
            for value in parts:
                _part(value)  # raises, naming the first entry that is not an integer
            raise
        if not all(map(ge, parts, parts[1:])):
            a, b = next((a, b) for a, b in zip(parts, parts[1:]) if b > a)
            raise PartitionError(f"not weakly decreasing: {a} before {b}")
        if parts and parts[-1] <= 0:
            raise PartitionError("partition entries must be positive")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "size", sum(parts))

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...], size: int) -> "Partition":
        """The partition with `parts` and `size`, without the checks of
        __init__: only for part tuples the library built valid itself."""
        p = object.__new__(cls)
        _PARTS.__set__(p, parts)
        _SIZE.__set__(p, size)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts) if self.parts else "[]"

    def __reduce__(self):
        return (Partition, (self.parts,))

    def part(self, k: int) -> int:
        """The k-th part, 1-based, zero beyond the length."""
        return self.parts[k - 1] if 1 <= k <= len(self.parts) else 0

    def contents(self, delta) -> list[Fraction]:
        """Shifted contents (delta - 1)/2 + (j - i), one value per box (row i,
        column j, both 1-based), row by row."""
        base = (Fraction(delta) - 1) / 2
        return [base + (j - i) for i, row in enumerate(self.parts, 1) for j in range(1, row + 1)]

    def transpose(self) -> "Partition":
        """Reflect the diagram: row k of the result counts parts >= k.

        One pointer walks the rows from the bottom up; row i contributes the
        value i to the columns its part adds beyond the part below it, so the
        cost is O(length + width)."""
        out: list[int] = []
        below = 0
        for i in range(len(self.parts), 0, -1):
            p = self.parts[i - 1]
            if p > below:
                out.extend([i] * (p - below))
                below = p
        return Partition._unchecked(tuple(out), self.size)


# the slot descriptors, which write an instance's fields past __setattr__
_PARTS, _SIZE = Partition.parts, Partition.size


def row_runs(parts: tuple[int, ...]):
    """Yield (i, j, p) top-down for each run of rows i+1..j equal to p; a
    run's end costs one binary search, and a run of one row needs none."""
    length = len(parts)
    i = 0
    while i < length:
        p = parts[i]
        j = i + 1
        if j < length and parts[j] == p:
            j = bisect_right(parts, -p, j + 1, key=neg)
        yield i, j, p
        i = j


def canonical_key(p: Partition):
    """Sort key giving the order used everywhere: by size, then lexicographically
    descending on parts, so (2) precedes (1,1)."""
    return (p.size, tuple(-x for x in p.parts))


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition, optionally bracketed; '' and '[]' are empty."""
    s = text.strip()
    if (s.startswith("[") and s.endswith("]")) or (s.startswith("(") and s.endswith(")")):
        s = s[1:-1].strip()
    if not s:
        return Partition()
    parts = []
    for token in s.split(","):
        tok = token.strip()
        try:
            value = int(tok)
        except ValueError:
            raise PartitionError(f"bad partition entry {tok!r}") from None
        if value <= 0:
            raise PartitionError(f"partition entries must be positive, got {tok!r}")
        parts.append(value)
    return Partition(parts)


def descending_partitions(n: int):
    """Yield the partitions of n as tuples, lexicographically descending.

    From each partition the next pops the trailing 1s, lowers the last
    part p > 1 to q = p - 1, and refills the popped total plus one with
    parts q and a smaller remainder; no recursion and no tuple
    concatenation."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    parts = [n] if n else []
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        q = parts.pop() - 1
        full, rest = divmod(ones + q + 1, q)
        parts.extend([q] * full)
        if rest:
            parts.append(rest)


def partitions_of_size(n: int) -> list[Partition]:
    """All partitions of exactly n, lexicographically descending."""
    return [Partition._unchecked(p, n) for p in descending_partitions(n)]


def enumerate_partitions(max_size: int) -> list[Partition]:
    """All partitions of size <= max_size in the canonical order."""
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    out: list[Partition] = []
    for n in range(max_size + 1):
        out.extend(partitions_of_size(n))
    return out
