"""Block classification for simple modules of the Brauer category, with two
independent dot-orbit oracles.

Simple modules are labelled by partitions.  For integral delta, two labels
lie in the same block exactly when the charged sequences of their
*transposes*, at charge delta/2 - 1, lie in one orbit of the even-signed
permutation group; for non-integral delta the category is semisimple and
every block is a single label.

The point queries work in integer twice-units, with c2 = delta - 2, and
build Fractions only for a returned OrbitKey.  They never build a
transpose: sequences.transpose_profile, the one coding of the orbit rule,
which the descent oracle below checks, reads the twice-key, negative count
and zero flag of the transpose's sequence off the label's runs of equal
rows.  For a label with r rows, same_block, block_key and
same_block_report cost O(runs * log r + sum over runs of min(part, run
length)); classify_weight_class costs that plus its output, the partner
it writes in closed form.  brauer_algebra_blocks keys each generated part
tuple the same way.

Label conventions: the public operations (same_block, block_key,
classify_weight_class, enumerate_block_members, brauer_algebra_blocks)
take the labels of the simple modules themselves and transpose internally.
The orbit oracles dot_orbit_member and dot_dominant instead take
transposed-level labels, the partitions the dot action acts on directly;
feeding them module labels without transposing first compares different
objects.

Both oracles shift a label by rho_n (coordinates 1 - i - delta/2) and use
the rank-n generators: adjacent swaps and the negate-and-swap of the first
two coordinates.  dot_dominant descends to the orbit's unique dominant
vector in at most n(n-1) moves; the verify matrix uses it.  dot_orbit_member
runs breadth-first search over the whole orbit, which is finite (at most
2^(n-1) n! vectors) but grows fast, so ranks above 8 require an explicit
override; it backs the dot-orbit CLI and certifies the descent in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .partitions import Partition, canonical_key, descending_partitions, integral
from .sequences import OrbitKey, key_from_twice, transpose_profile

BFS_RANK_CAP = 8


def sector_charge(delta) -> Fraction:
    """The charge delta/2 - 1 of the sector attached to the parameter."""
    return Fraction(delta) / 2 - 1


def same_block(lam: Partition, mu: Partition, delta) -> bool:
    """Whether the simple modules labelled lam and mu lie in one block.

    Non-integral delta is semisimple, so blocks are singletons there.  The
    size-parity short circuit is sound because every orbit move preserves
    the shape size modulo 2; otherwise the transposes' twice-keys decide.
    """
    d = Fraction(delta)
    if d.denominator != 1:
        return lam == mu
    if (lam.size - mu.size) % 2 != 0:
        return False
    c2 = d.numerator - 2
    return transpose_profile(c2, lam.parts)[0] == transpose_profile(c2, mu.parts)[0]


def block_key(lam: Partition, delta) -> OrbitKey:
    """Canonical key with block_key(lam) == block_key(mu) iff same block."""
    c2 = integral(delta, "block keys require integral delta") - 2
    return key_from_twice(c2, transpose_profile(c2, lam.parts)[0])


@dataclass(frozen=True)
class BlockClassification:
    """Whether the weight class of a label is one block or splits in two;
    in the split case `partner` labels a module of the same bar-weight in
    the other block."""

    split: bool
    partner: Partition | None = None


def classify_weight_class(lam: Partition, delta) -> BlockClassification:
    """Single block when delta is odd or the transposed sequence has a zero
    entry; otherwise split, with the partner obtained by moving a tail entry
    to the front with its sign flipped.

    In twice-units (c2 = delta - 2) the sequence of lam's transpose starts at
    e1 = c2 + 2 - 2 len(lam), and the moved tail entry c2 + 2k is the first
    one past the window (k > lam_1) with c2 + 2k > max(0, -e1).  The
    partner's transpose is then (c2 + 1 + k, lam^t + 1, 1, ..., 1) with k
    parts, so the partner is (k, lam + 1, 1, ..., 1) with c2 + k + 1 parts,
    read off lam without a scan; the zero test is the zero flag of
    transpose_profile."""
    d = integral(delta, "weight-class classification requires integral delta")
    c2 = d - 2
    if d % 2 != 0 or transpose_profile(c2, lam.parts)[2]:
        return BlockClassification(split=False)
    e1 = c2 + 2 - 2 * len(lam)
    k = max(lam.part(1) + 1, (max(0, -e1) - c2) // 2 + 1)
    partner = Partition([k, *(p + 1 for p in lam.parts)] + [1] * (c2 + k - len(lam)))
    return BlockClassification(split=True, partner=partner)


def enumerate_block_members(lam: Partition, delta, max_size: int) -> list[Partition]:
    """All labels of size <= max_size in the block of lam, canonical order.

    Built from the orbit rather than by filtering candidates, in twice-units
    on the sequence of lam's transpose.  An entry is *fixed* when it is 0 or
    its negative is also an entry; every member keeps the fixed entries and
    picks a sign for each *free* one.  From the base, where every free entry
    is positive, a member is the set S of free absolute values it negates:
    negating a adds a boxes, and |S| keeps lam's count of negative free
    entries mod 2 unless 0 is an entry.  The depth-first search over S with
    sum(S) <= max_size - |base| visits at most F + 2 sets per member found,
    for F free values within that budget: a set of the wrong parity drops
    its largest value to reach a member."""
    if max_size < lam.size:
        raise ValueError("max_size must be at least the size of the partition")
    d = Fraction(delta)
    if d.denominator != 1:
        return [lam]
    c2 = d.numerator - 2
    mu = lam.transpose()
    # read past every |negative entry| (the smallest entry is the first) and past 0
    reach = max(len(mu), (max(0, -(c2 + 2 - 2 * mu.part(1))) - c2) // 2)
    entries = [c2 + 2 * (k - mu.part(k)) for k in range(1, reach + 1)]
    present = set(entries)
    free = {v for v in entries if v != 0 and -v not in present}
    free_negative = [-v for v in free if v < 0]
    budget = max_size - lam.size + sum(free_negative)
    # tail entries c2 + 2k beyond the read ones are positive, free, and
    # unflippable once they exceed the budget
    tail = range(c2 + 2 * reach + 2, budget + 1, 2)
    base = [v for v in entries if v not in free] + [abs(v) for v in free] + list(tail)
    flippable = sorted(a for a in map(abs, free) if a <= budget) + list(tail)
    parity = None if 0 in present else len(free_negative) % 2
    members: list[Partition] = []

    def visit(start: int, flipped: list[int], room: int) -> None:
        if parity is None or len(flipped) % 2 == parity:
            negated = set(flipped)
            seq = sorted(-v if v in negated else v for v in base)
            parts = [(c2 + 2 * k - e) // 2 for k, e in enumerate(seq, 1)]
            while parts and parts[-1] == 0:
                parts.pop()
            members.append(Partition(parts).transpose())
        for i in range(start, len(flippable)):
            a = flippable[i]
            if a > room:
                break
            flipped.append(a)
            visit(i + 1, flipped, room - a)
            flipped.pop()

    visit(0, [], budget)
    return sorted(members, key=canonical_key)


def brauer_algebra_blocks(n: int, delta) -> list[list[Partition]]:
    """Blocks of the rank-n Brauer algebra: the labels of sizes n, n-2, ...
    partitioned by the block relation, in canonical order.  Labels are
    grouped on the integer orbit key of their transposes, read off each
    generated part tuple before its Partition is built; groups keep the
    order in which they are first met."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    c2 = integral(delta, "Brauer-algebra blocks require integral delta") - 2
    groups: dict[tuple, list[Partition]] = {}
    for m in range(n % 2, n + 1, 2):
        for parts in descending_partitions(m):
            groups.setdefault(transpose_profile(c2, parts)[0], []).append(Partition(parts))
    return list(groups.values())


def _shifted_vector(p: Partition, n: int, delta: int) -> tuple[int, ...]:
    # twice the coordinates of p + rho_n, kept integral for BFS speed
    return tuple(2 * p.part(i) + 2 - 2 * i - delta for i in range(1, n + 1))


@lru_cache(maxsize=2)
def _orbit_closure(start: tuple[int, ...]) -> frozenset:
    n = len(start)
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for v in frontier:
            lv = list(v)
            for i in range(n - 1):
                if lv[i] != lv[i + 1]:
                    lv[i], lv[i + 1] = lv[i + 1], lv[i]
                    t = tuple(lv)
                    lv[i], lv[i + 1] = lv[i + 1], lv[i]
                    if t not in seen:
                        seen.add(t)
                        fresh.append(t)
            if n >= 2:
                t = (-v[1], -v[0]) + v[2:]
                if t not in seen:
                    seen.add(t)
                    fresh.append(t)
        frontier = fresh
    return frozenset(seen)


def _dominant(v: tuple[int, ...]) -> tuple[int, ...]:
    # each move strictly raises sum((i - 1) v_i), so at most n(n-1) moves
    w = list(v)
    moved = True
    while moved:
        moved = False
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                moved = True
        if len(w) >= 2 and w[0] + w[1] < 0:
            w[0], w[1] = -w[1], -w[0]
            moved = True
    return tuple(w)


def dot_dominant(p: Partition, n: int, delta) -> tuple[int, ...]:
    """The dominant vector of the rank-n orbit of p + rho_n, in twice-units.

    Takes a transposed-level label (see the module docstring).  Descent swaps
    v_i > v_(i+1), and replaces (v_1, v_2) by (-v_2, -v_1) when
    v_1 + v_2 < 0, until neither applies; it stops at the unique vector of
    the orbit with |v_1| <= v_2 <= ... <= v_n (Humphreys, Reflection Groups
    and Coxeter Groups, 1.12).  Two labels share an orbit exactly when their
    dominant vectors are equal.
    """
    d = integral(delta, "the orbit oracle requires integral delta")
    if len(p.parts) > n:
        raise ValueError("partition length exceeds the rank n")
    return _dominant(_shifted_vector(p, n, d))


def dot_orbit_member(a: Partition, b: Partition, n: int, delta, *, allow_large: bool = False) -> bool:
    """Brute-force oracle: is b + rho_n in the rank-n orbit of a + rho_n?

    Takes transposed-level labels (see the module docstring).  Ranks above
    BFS_RANK_CAP are refused unless allow_large is set.
    """
    d = integral(delta, "the orbit oracle requires integral delta")
    if len(a.parts) > n or len(b.parts) > n:
        raise ValueError("partition length exceeds the rank n")
    if n > BFS_RANK_CAP and not allow_large:
        raise ValueError(
            f"rank {n} exceeds the safety cap {BFS_RANK_CAP}; pass allow_large=True to override"
        )
    va = _shifted_vector(a, n, d)
    vb = _shifted_vector(b, n, d)
    return vb in _orbit_closure(va)


def same_block_report(lam: Partition, mu: Partition, delta) -> dict:
    """Decision plus the evidence the criterion inspected, for serialisation.

    The evidence is read off the twice-keys of the transposes: the absolute
    entries over the common window agree exactly when the deviations do,
    and the parities are the raw negative-entry counts mod 2, reported even
    when a zero entry makes the key's parity the wildcard."""
    d = Fraction(delta)
    if d.denominator != 1:
        return {
            "same_block": lam == mu,
            "block_key": None,
            "reason": {
                "semisimple": True,
                "abs_multiset_equal": None,
                "parity_lhs": None,
                "parity_rhs": None,
                "zero_entry": None,
            },
        }
    c2 = d.numerator - 2
    key_s, neg_s, zero_s = transpose_profile(c2, lam.parts)
    key_t, neg_t, _ = transpose_profile(c2, mu.parts)
    return {
        "same_block": key_s == key_t,
        "block_key": key_from_twice(c2, key_s).to_json(),
        "reason": {
            "semisimple": False,
            "abs_multiset_equal": key_s[0] == key_t[0],
            "parity_lhs": neg_s % 2,
            "parity_rhs": neg_t % 2,
            "zero_entry": zero_s,
        },
    }
