"""Block classification for simple modules of the Brauer category, with two
independent dot-orbit oracles.

Simple modules are labelled by partitions.  For integral delta, two labels
lie in the same block exactly when the charged sequences of their
*transposes*, at charge delta/2 - 1, lie in one orbit of the even-signed
permutation group; for non-integral delta the category is semisimple and
every block is a single label.

The point queries work in integer twice-units, with c2 = delta - 2, and
return the OrbitKey in the same units.  No kernel builds a transpose:
sequences.transpose_profile, the one coding of the orbit rule for a
single label, which the descent oracle below checks, reads the twice-key,
negative count and zero flag of the transpose's sequence off the label's
runs of equal rows.  For a label with r rows, same_block, block_key and
same_block_report cost O(runs * log r + sum over runs of min(part, run
length)).  classify_weight_class needs only the zero flag, which
sequences.transpose_has_zero finds by one binary search over the rows, and
writes the partner in closed form one run of rows at a time, so it costs
O(runs * log r) plus a C-level copy of its output.  brauer_algebra_blocks
applies the same rule one row at a time, in one walk over the p(n)
partitions of size <= n whose parts are all >= 2; it keys each of them
from its parent, and each label it stands for, itself followed by a run
of 1s, in O(1).

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
vector in at most n(n-1) moves; the verify matrix and the dot-orbit CLI use
it.  dot_orbit_member runs breadth-first search over the whole orbit, which
is finite (at most 2^(n-1) n! vectors) but grows fast, so ranks above
BFS_RANK_CAP (8) are refused; it certifies the descent in tests.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from functools import lru_cache
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

from .partitions import _PARTS, _SIZE, Partition, integer_or_none, integral, row_runs
from .sequences import OrbitKey, transpose_has_zero, transpose_profile

BFS_RANK_CAP = 8


def same_block(lam: Partition, mu: Partition, delta) -> bool:
    """Whether the simple modules labelled lam and mu lie in one block.

    Non-integral delta is semisimple, so blocks are singletons there.  The
    size-parity short circuit is sound because every orbit move preserves
    the shape size modulo 2; otherwise the transposes' twice-keys decide.
    """
    d = integer_or_none(delta)
    if d is None:
        return lam == mu
    if (lam.size - mu.size) % 2 != 0:
        return False
    c2 = d - 2
    return transpose_profile(c2, lam.parts)[0] == transpose_profile(c2, mu.parts)[0]


def block_key(lam: Partition, delta) -> OrbitKey:
    """Canonical key with block_key(lam) == block_key(mu) iff same block."""
    c2 = integral(delta, "block keys require integral delta") - 2
    return OrbitKey(c2, *transpose_profile(c2, lam.parts)[0])


class BlockClassification(NamedTuple):
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
    parts, so the partner is (k, lam + 1, 1, ..., 1) with c2 + k + 1 parts
    and |lam| + 2k + c2 boxes, written one run of equal rows of lam at a
    time; the zero test is one binary search, sequences.transpose_has_zero."""
    d = integral(delta, "weight-class classification requires integral delta")
    c2 = d - 2
    parts = lam.parts
    if d % 2 != 0 or transpose_has_zero(c2, parts):
        return BlockClassification(split=False)
    length = len(parts)
    k = max(lam.part(1) + 1, (max(0, 2 * length - d) - c2) // 2 + 1)
    out = [k]
    for i, j, p in row_runs(parts):
        out += [p + 1] * (j - i)
    out += [1] * (c2 + k - length)
    partner = Partition._unchecked(tuple(out), lam.size + 2 * k + c2)
    return BlockClassification(split=True, partner=partner)


def enumerate_block_members(lam: Partition, delta, max_size: int) -> list[Partition]:
    """All labels of size <= max_size in the block of lam, canonical order:
    the members of :func:`_block_members`, sorted."""
    if max_size < lam.size:
        raise ValueError("max_size must be at least the size of the partition")
    members = list(_block_members(lam, delta, max_size))
    # the canonical order by two stable C-keyed sorts: two distinct members
    # of one size are never prefixes of each other, so descending parts
    # order them as canonical_key does
    members.sort(key=attrgetter("parts"), reverse=True)
    members.sort(key=attrgetter("size"))
    return members


def _block_members(lam: Partition, delta, max_size: int) -> Iterator[Partition]:
    """The labels of size <= max_size (at least |lam|) in the block of lam,
    in search order, lam alone for non-integral delta.

    Built from the orbit rather than by filtering candidates, in twice-units
    on the sequence of lam's transpose, read off lam's rows and written back
    as rows by the complement identity of sequences.transpose_profile.  An
    entry is *fixed* when it is 0 or its negative is also an entry; every
    member keeps the fixed entries and picks a sign for each *free* one.
    From the base, where every free entry is positive, a member is the set S
    of free absolute values it negates: negating a adds a boxes, and |S|
    keeps lam's count of negative free entries mod 2 unless 0 is an entry.
    The depth-first search over S with sum(S) <= max_size - |base| visits at
    most F + 2 sets per member found, for F free values within that budget:
    a set of the wrong parity drops its largest value to reach a member.  It
    runs on one list of the values in S, ascending, and the stack of their
    indices, so a caller that stops early pays only for what it drew."""
    h = integer_or_none(delta)  # twice the entry at x is h + 2x
    if h is None:
        yield lam
        return
    length = len(lam)
    # read past every |negative entry| (the smallest entry is the first) and past 0
    reach = max(lam.part(1), (max(0, 2 * length - h) - h) // 2 + 1)
    # the x in [-length, reach) that no row removes, one range per gap between
    # runs, as rows i+1..j equal to p remove p-j..p-i-1
    entries: list[int] = []
    above = reach
    for i, _, p in row_runs(lam.parts):
        entries += range(h + 2 * (p - i), h + 2 * (above - i), 2)
        above = p
    entries += range(h - 2 * length, h + 2 * (above - length), 2)
    present = set(entries)
    free = {v for v in entries if v != 0 and -v not in present}
    free_negative = [-v for v in free if v < 0]
    budget = max_size - lam.size + sum(free_negative)
    # tail entries h + 2x beyond the read ones are positive, free, and
    # unflippable once they exceed the budget
    tail = range(h + 2 * reach, budget + 1, 2)
    base = [v for v in entries if v not in free] + [abs(v) for v in free] + list(tail)
    flippable = sorted(a for a in map(abs, free) if a <= budget) + list(tail)
    count = len(flippable)
    parity = None if 0 in present else len(free_negative) % 2
    width = len(base)
    flipped: list[int] = []
    stack: list[int] = []  # the index in flippable of each value in flipped
    room, i = budget, 0
    while True:
        if parity is None or len(flipped) % 2 == parity:
            negated = set(flipped)
            seq = sorted(-v if v in negated else v for v in base)
            seq.append(h + 2 * width)
            # with the window at x_1 < ... < x_w and x_(w+1) = w, the member
            # has x_(k+1) - x_k - 1 rows equal to k
            rows: list[int] = []
            for k in range(width, 0, -1):
                gap = seq[k] - seq[k - 1]
                if gap > 2:
                    rows += [k] * (gap // 2 - 1)
            yield Partition._unchecked(tuple(rows), max_size - room)
        # the next set in search order: add the next value that fits, or
        # drop the largest and try the value after it, as values ascend
        while i >= count or flippable[i] > room:
            if not stack:
                return
            i = stack.pop() + 1
            room += flipped.pop()
        flipped.append(flippable[i])
        stack.append(i)
        room -= flippable[i]
        i += 1


def brauer_algebra_blocks(n: int, delta) -> list[list[Partition]]:
    """Blocks of the rank-n Brauer algebra: the labels of sizes n, n-2, ...
    partitioned by the block relation, in canonical order; groups keep the
    order in which they are first met.  The groups are classes of cell-module
    labels: at delta = 0 and even n the form on the cell module of () is
    zero (Graham and Lehrer), so () labels no simple module, yet it is
    listed, in the block of (2).

    Labels are grouped on an int key by the rule of
    sequences.transpose_profile: row i with part q adds the absolute entry
    at x = -i, removes the one at x = q - i, counts a negative entry removed
    when x < t and clears the zero flag when x = t.  The absolute values at
    x in [-n - 1, n] step by 2 from the least, so x has the slot
    (|h + 2x| - least) / 2 and the weight w(x) = 8**slot, and the deviation
    is the sum of +-w, a unique balanced base-8 number whatever |delta|: at
    most two rows add and two remove a value.  The key is 4 times it plus
    the parity, or 2 for the wildcard.

    A label is a node B, whose k parts are all >= 2, and j rows of 1.  One
    depth-first walk visits the p(n) nodes; each packs (deviation << W) +
    2 * negatives removed + zero hit, its parent's plus one int per row.
    The rows of 1 telescope, so a label's key is the node's deviation plus
    one of four ints precomputed per (k, j), picked by the node's two low
    bits.  The walk appends only that key and the parts per label, to its
    size's lists: a node's labels come before its children's and children
    in ascending part, so each size fills lexicographically ascending, and
    is read backwards.  Then each size's Partitions are made by C-level
    maps and grouped on the key, size by size."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    h = integral(delta, "Brauer-algebra blocks require integral delta")
    t = -(h // 2)  # twice the entry at x is h + 2x, negative exactly when x < t
    # w(x) at w[x + n + 1]
    least = max(h - 2 * n - 2, -h - 2 * n, h % 2)
    w = [1 << 3 * ((abs(v) - least) >> 1) for v in range(h - 2 * n - 2, h + 2 * n + 1, 2)]
    # a node's low field is at most 2 * (n // 2) <= n, as at most n // 2 rows
    # have parts >= 2 and a row that hits x = t removes no negative; it is
    # at least 2 bits wide, for the two read below
    width = max(n.bit_length(), 2)
    # removed[x + n + 1]: the packed int of removing the entry at x
    removed = [2 * (x < t) + (x == t) - (v << width) for x, v in zip(range(-n - 1, n + 1), w)]
    # step[k][q]: the packed int of row k + 1 with part q
    step = []
    for i in range(1, n // 2 + 1):
        added = w[n + 1 - i] << width
        step.append([added + v for v in removed[n + 1 - i : 2 * n + 4 - 3 * i]])
    # tails[k][j]: the keys of node B with k rows and rows k+1..r of 1,
    # r = k + j, by B's two low bits (bit 0 its zero hit, bit 1 its parity),
    # then the rows of 1 and j.  With z = -t, the window of r rows holds
    # max(0, r - z) negative entries, and row i of 1 removes x = 1 - i: a
    # negative entry when i > z + 1, the zero when i = z + 1.  So for k > z
    # the parity is that of k - z, and the zero is in the window and not hit
    # by the 1s; for k <= z the parity is 1 and the zero hit when r > z, and
    # else the parity is 0, with the zero in the window only when r = z.  A
    # zero in the window that neither part hits makes the key the wildcard 2.
    z = -t
    even = h % 2 == 0  # whether any entry can be 0
    rows_of_1 = [(1,) * j for j in range(n + 1)]
    tails = []
    for k in range(n // 2 + 1):
        if k > z:
            o = (k - z) & 1
            tags = (2, o, 2, o ^ 1) if even else (o, o, o ^ 1, o ^ 1)
        tail = []
        for r in range(k, n - k + 1):
            if k <= z:
                tags = (1, 1, 0, 0) if r > z else (2, 0, 2, 1) if r == z and even else (0, 0, 1, 1)
            a, b, c, d = tags
            key = (w[n + 1 - r] - w[n + 1 - k]) << 2
            tail.append(((key + a, key + b, key + c, key + d), rows_of_1[r - k], r - k))
        tails.append(tail)
    # The walk leaves a few objects per label alive and makes no cycles, so
    # the cyclic collector finds nothing in it.  Left on, it would run every
    # few hundred labels, and at times a full collection over everything
    # else the process holds would fall inside the call, costing as much as
    # the walk itself.  So it is paused for the walk, and the young objects
    # are collected once at the end, at a cost set by n alone.
    collecting = gc.isenabled()
    gc.disable()
    try:
        keys_at: list[list[int]] = [[] for _ in range(n + 1)]
        parts_at: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
        stack = [((), 0, 0, n)]  # (parts, size, packed, largest next part)
        while stack:
            parts, size, packed, cap = stack.pop()
            k = len(parts)
            rest = n - size
            dev, low = packed >> width << 2, packed & 3
            for keys, ones, j in tails[k][rest % 2 : rest + 1 : 2]:
                keys_at[size + j].append(dev + keys[low])
                parts_at[size + j].append(parts + ones)
            if cap > rest:
                cap = rest
            if cap >= 2:
                row = step[k]
                for q in range(cap, 1, -1):
                    stack.append((parts + (q,), size + q, packed + row[q], q))
        # each size's labels as Partition._unchecked builds them, by maps that
        # any() runs to the end (__set__ returns None), then grouped
        groups: dict[int, list[Partition]] = {}
        get = groups.get
        for size in range(n % 2, n + 1, 2):
            labels = list(map(object.__new__, repeat(Partition, len(parts_at[size]))))
            any(map(_PARTS.__set__, labels, reversed(parts_at[size])))
            any(map(_SIZE.__set__, labels, repeat(size)))
            for key, label in zip(reversed(keys_at[size]), labels):
                group = get(key)
                if group is None:
                    groups[key] = [label]
                else:
                    group.append(label)
    finally:
        if collecting:
            gc.enable()
            gc.collect(0)
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


def dot_orbit_member(a: Partition, b: Partition, n: int, delta) -> bool:
    """Brute-force oracle: is b + rho_n in the rank-n orbit of a + rho_n?

    Takes transposed-level labels (see the module docstring).  Ranks above
    BFS_RANK_CAP are refused.
    """
    d = integral(delta, "the orbit oracle requires integral delta")
    if len(a.parts) > n or len(b.parts) > n:
        raise ValueError("partition length exceeds the rank n")
    if n > BFS_RANK_CAP:
        raise ValueError(f"rank {n} exceeds the safety cap {BFS_RANK_CAP}")
    va = _shifted_vector(a, n, d)
    vb = _shifted_vector(b, n, d)
    return vb in _orbit_closure(va)


def same_block_report(lam: Partition, mu: Partition, delta) -> dict:
    """Decision plus the evidence the criterion inspected, for serialisation.

    The evidence is read off the twice-keys of the transposes: the absolute
    entries over the common window agree exactly when the deviations do,
    and the parities are the raw negative-entry counts mod 2, reported even
    when a zero entry makes the key's parity the wildcard."""
    d = integer_or_none(delta)
    if d is None:
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
    c2 = d - 2
    key_s, neg_s, zero_s = transpose_profile(c2, lam.parts)
    key_t, neg_t, _ = transpose_profile(c2, mu.parts)
    return {
        "same_block": key_s == key_t,
        "block_key": OrbitKey(c2, *key_s).to_json(),
        "reason": {
            "semisimple": False,
            "abs_multiset_equal": key_s[0] == key_t[0],
            "parity_lhs": neg_s % 2,
            "parity_rhs": neg_t % 2,
            "zero_entry": zero_s,
        },
    }
