import random
import re
from fractions import Fraction
from itertools import groupby, product

import pytest

from brauerblocks.blocks import brauer_algebra_blocks
from brauerblocks.partitions import (
    Partition,
    PartitionError,
    canonical_key,
    enumerate_partitions,
    half,
    descending_partitions,
    integer_or_none,
    integral,
    parse_partition,
    partitions_of_size,
    row_runs,
    twice,
)


def test_parse_basic():
    assert parse_partition("2,1,1") == Partition((2, 1, 1))
    assert parse_partition("") == Partition()
    assert parse_partition("[]") == Partition()
    assert parse_partition("[2, 1]") == Partition((2, 1))
    assert parse_partition(" 3 , 3 ") == Partition((3, 3))


def test_parse_rejects_increasing():
    with pytest.raises(PartitionError, match="not weakly decreasing"):
        parse_partition("1,2")


@pytest.mark.parametrize("bad", ["0", "-1", "x", "2,,1", "1.5"])
def test_parse_rejects_bad_tokens(bad):
    with pytest.raises(PartitionError):
        parse_partition(bad)


def test_transpose_examples():
    assert Partition((2, 1, 1)).transpose() == Partition((3, 1))
    assert Partition().transpose() == Partition()
    assert Partition((3, 3)).transpose() == Partition((2, 2, 2))


def _transpose_by_definition(lam: Partition) -> tuple:
    # part j of the transpose is #{i : lam_i >= j}
    return tuple(sum(1 for p in lam.parts if p >= j) for j in range(1, lam.part(1) + 1))


def test_transpose_involution_and_size():
    for lam in enumerate_partitions(12):
        t = lam.transpose()
        assert t.parts == _transpose_by_definition(lam)
        assert t.transpose() == lam
        assert t.size == lam.size


def test_built_labels_equal_checked_ones():
    # partitions_of_size, transpose and the Brauer-block walk skip the checks
    # of __init__; what they build must equal the checked partition
    labels = enumerate_partitions(12)
    built = labels + [lam.transpose() for lam in labels]
    for delta in (0, 3):
        built += [label for n in (11, 12) for block in brauer_algebra_blocks(n, delta) for label in block]
    assert sorted(built, key=canonical_key) == sorted(labels * 4, key=canonical_key)
    # the ranks where the walk's low field uses every bit; == compares parts only
    for n, delta in product((23, 24), (-1, 2)):
        for block in brauer_algebra_blocks(n, delta):
            for lam in block:
                checked = Partition(lam.parts)
                assert (lam.parts, lam.size, hash(lam)) == (checked.parts, checked.size, hash(checked))
    for lam in built:
        checked = Partition(lam.parts)
        assert (lam.parts, lam.size, hash(lam)) == (checked.parts, checked.size, hash(checked))
        assert lam == checked and checked == lam
        assert lam.transpose().transpose() == lam


def test_contents_examples():
    assert Partition().contents(7) == []
    assert sorted(Partition((2, 1)).contents(1)) == [-1, 0, 1]
    assert Partition((1,)).contents(2) == [Fraction(1, 2)]


def test_contents_negate_under_transpose():
    for delta in (-1, 0, 1, 2):
        base = Fraction(delta - 1, 2)
        for lam in enumerate_partitions(10):
            direct = sorted(lam.transpose().contents(delta))
            reflected = sorted(2 * base - c for c in lam.contents(delta))
            assert direct == reflected


def _count_partitions(n: int, largest: int, cache={}) -> int:
    # independent counter, no shared code with the generator
    if n == 0:
        return 1
    if largest == 0:
        return 0
    key = (n, largest)
    if key not in cache:
        total = 0
        for first in range(1, min(n, largest) + 1):
            total += _count_partitions(n - first, first)
        cache[key] = total
    return cache[key]


def test_enumeration_counts_match_independent_counter():
    for n in range(21):
        assert len(partitions_of_size(n)) == _count_partitions(n, n)
    for n in range(21, 41):
        assert sum(1 for _ in descending_partitions(n)) == _count_partitions(n, n)
    assert len(enumerate_partitions(3)) == 7
    assert len(enumerate_partitions(0)) == 1


def _descending(n: int, max_part: int):
    # the recursive generator the library used before: every first part from
    # the largest down, followed by the partitions of the rest below it
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending(n - first, first):
            yield (first,) + rest


def test_iterative_generator_equals_the_recursive_one():
    for n in range(23):
        expected = list(_descending(n, n))
        assert list(descending_partitions(n)) == expected
        assert [p.parts for p in partitions_of_size(n)] == expected
    with pytest.raises(ValueError, match="nonnegative"):
        partitions_of_size(-1)


def test_enumeration_order():
    assert enumerate_partitions(2) == [Partition(), Partition((1,)), Partition((2,)), Partition((1, 1))]
    assert partitions_of_size(3) == [Partition((3,)), Partition((2, 1)), Partition((1, 1, 1))]
    ordered = enumerate_partitions(6)
    keys = [canonical_key(p) for p in ordered]
    assert keys == sorted(keys)
    assert len(set(ordered)) == len(ordered)


def test_constructor_rejects_invalid():
    with pytest.raises(PartitionError, match="^not weakly decreasing: 1 before 2$"):
        Partition((3, 1, 2))
    with pytest.raises(PartitionError, match="^not weakly decreasing: 1 before 2$"):
        parse_partition("3,1,2")
    with pytest.raises(PartitionError):
        Partition((2, 0))
    # the equal pair in front tells "b > a" from "b >= a" in the search for
    # the offending pair
    with pytest.raises(PartitionError, match="^not weakly decreasing: 1 before 3$"):
        Partition((2, 2, 1, 3))
    # the parser names the token, not just the constructor's rule
    with pytest.raises(PartitionError, match="^partition entries must be positive, got '0'$"):
        parse_partition("2,0")


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", Fraction(5, 2)])
def test_constructor_rejects_nonintegral_parts(bad):
    # int() would truncate 2.5 to 2 and read "3" as 3
    with pytest.raises(PartitionError, match=f"^partition entry {re.escape(repr(bad))} is not an integer$"):
        Partition((3, bad))


def test_integer_reader():
    for value in (2, Fraction(4, 2), 2.0, "2"):
        assert integer_or_none(value) == 2 and type(integer_or_none(value)) is int
        assert integral(value, "unused") == 2
    assert integer_or_none(True) == 1 and type(integer_or_none(True)) is int
    assert integer_or_none(-7) == -7
    for value in (Fraction(1, 2), 0.5, "-3/2", Fraction(-1, 3)):
        assert integer_or_none(value) is None
        with pytest.raises(ValueError, match="^needs an integer$"):
            integral(value, "needs an integer")


def test_half_integer_helpers():
    assert half(3) == Fraction(3, 2)
    assert twice(Fraction(-5, 2)) == -5
    assert twice(4) == 8
    with pytest.raises(ValueError):
        twice(Fraction(1, 3))


def test_transpose_of_large_hooks_and_columns():
    n = 10**4
    hooks = [Partition((arm,) + (1,) * (n - arm)) for arm in (1, 2, n // 2, n - 1, n)]
    for lam in hooks:
        # column j holds #{i : lam_i >= j} boxes; counting boxes costs O(size)
        columns: dict[int, int] = {}
        for row in lam.parts:
            for j in range(1, row + 1):
                columns[j] = columns.get(j, 0) + 1
        t = lam.transpose()
        assert t.parts == tuple(columns[j] for j in range(1, lam.part(1) + 1))
        assert t.transpose() == lam


def _grouped_runs(parts: tuple) -> list:
    # the runs of equal rows read one row at a time, as (i, j, p) for rows
    # i+1..j equal to p
    runs, i = [], 0
    for p, group in groupby(parts):
        j = i + sum(1 for _ in group)
        runs.append((i, j, p))
        i = j
    return runs


def _seeded_run_labels(rng: random.Random, count: int) -> list[tuple]:
    # labels of a few runs each, with runs of one and of two rows at both
    # ends and long runs in between
    labels = []
    for _ in range(count):
        lengths = [rng.choice((1, 2))]
        lengths += [rng.choice((1, 2, 3, rng.randint(4, 5000))) for _ in range(rng.randint(0, 6))]
        lengths.append(rng.choice((1, 2)))
        values = sorted(rng.sample(range(1, 10**4), len(lengths)), reverse=True)
        labels.append(tuple(p for p, r in zip(values, lengths) for _ in range(r)))
    return labels


def test_row_runs_equal_the_grouped_runs():
    for lam in enumerate_partitions(12):
        assert list(row_runs(lam.parts)) == _grouped_runs(lam.parts), lam
    n = 10**6
    labels = [(n,), (1,) * n, (n // 2,) + (1,) * (n // 2), (2, 1), (2, 2, 1), (2, 1, 1), (3, 3, 2, 1, 1)]
    labels += [(arm,) + (1,) * (300 - arm) for arm in (1, 2, 3, 150, 299, 300)]
    labels += _seeded_run_labels(random.Random(1704), 40)
    for parts in labels:
        assert list(row_runs(parts)) == _grouped_runs(parts), (parts[:3], len(parts))
