"""Integer partitions, Young-diagram boxes and shifted box contents.

A partition is stored as a weakly decreasing tuple of positive integers.
Boxes of its Young diagram sit at (row i, column j) with 1 <= j <= parts[i-1];
the content of a box is j - i and its delta-shifted content is
(delta - 1)/2 + (j - i).  For integral delta the shifted contents lie in
Z or Z + 1/2 according to the parity of delta; arbitrary rational delta is
accepted because the central-character computations need it.

Half-integers are kept exact throughout the package: values are Fractions
with denominator 1 or 2, and the serialisation layer exchanges them as
twice-values (integers) via :func:`twice` and :func:`half`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import ge

HALF = Fraction(1, 2)


class PartitionError(ValueError):
    """Raised for text or part lists that do not describe a partition."""


def half(twice_value: int) -> Fraction:
    """The exact number twice_value / 2."""
    return Fraction(twice_value, 2)


def twice(value) -> int:
    """2 * value as an int; rejects anything outside (1/2)Z."""
    q = Fraction(value) * 2
    if q.denominator != 1:
        raise ValueError(f"{value} is not an integer or half-integer")
    return q.numerator


def integral(value, message: str) -> int:
    """value as an int; raises ValueError(message) unless it is an integer."""
    q = Fraction(value)
    if q.denominator != 1:
        raise ValueError(message)
    return q.numerator


def root_index(value, delta: int, message: str) -> Fraction:
    """value as a Fraction, when twice(value) has the parity of delta - 1;
    raises ValueError(message.format(index=value, delta=delta)) otherwise."""
    x = Fraction(value)
    if (twice(x) - delta) % 2 == 0:
        raise ValueError(message.format(index=value, delta=delta))
    return x


class Partition:
    """Immutable weakly decreasing sequence of positive integers."""

    __slots__ = ("parts", "size")

    def __init__(self, parts=()):
        parts = tuple(map(int, parts))
        if not all(map(ge, parts, parts[1:])):
            a, b = next((a, b) for a, b in zip(parts, parts[1:]) if b > a)
            raise PartitionError(f"not weakly decreasing: {a} before {b}")
        if parts and parts[-1] <= 0:
            raise PartitionError("partition entries must be positive")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "size", sum(parts))

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

    def boxes(self):
        """Iterate over the boxes (row, column) of the Young diagram, 1-based."""
        for i, row in enumerate(self.parts, 1):
            for j in range(1, row + 1):
                yield (i, j)

    def contents(self, delta) -> list[Fraction]:
        """Shifted contents (delta - 1)/2 + (j - i), one value per box."""
        base = (Fraction(delta) - 1) / 2
        return [base + (j - i) for (i, j) in self.boxes()]

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
        return Partition(out)


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
    return [Partition(p) for p in descending_partitions(n)]


def enumerate_partitions(max_size: int) -> list[Partition]:
    """All partitions of size <= max_size in the canonical order."""
    if max_size < 0:
        raise ValueError("max_size must be nonnegative")
    out: list[Partition] = []
    for n in range(max_size + 1):
        out.extend(partitions_of_size(n))
    return out
