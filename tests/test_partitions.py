from fractions import Fraction

import pytest

from brauerblocks.partitions import (
    Partition,
    PartitionError,
    canonical_key,
    enumerate_partitions,
    half,
    descending_partitions,
    parse_partition,
    partitions_of_size,
    root_index,
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


def test_root_index_rejects_the_parity_of_delta():
    assert root_index(Fraction(1, 2), 2, "unused") == Fraction(1, 2)
    assert root_index(-3, 1, "unused") == -3
    with pytest.raises(ValueError, match=r"^index 1 at delta=2$"):
        root_index(1, 2, "index {index} at delta={delta}")
    with pytest.raises(ValueError, match="^no$"):
        root_index(Fraction(-1, 2), -1, "no")
    with pytest.raises(ValueError, match="not an integer or half-integer"):
        root_index(Fraction(1, 3), 2, "unused")


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
        for _, j in lam.boxes():
            columns[j] = columns.get(j, 0) + 1
        t = lam.transpose()
        assert t.parts == tuple(columns[j] for j in range(1, lam.part(1) + 1))
        assert t.transpose() == lam
