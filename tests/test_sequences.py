import math
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerblocks.partitions import Partition, enumerate_partitions
from brauerblocks.sequences import (
    WILDCARD,
    OrbitKey,
    key_from_twice,
    make_sequence,
    orbit_key,
    orbit_twice_key,
    same_orbit,
    shape_from_entries,
    sign_profile,
    transpose_profile,
)
from brauerblocks.weights import reduce_mod_qtheta, weight_alpha_part


def test_sequence_entries():
    vacuum = make_sequence(Partition(), 0)
    assert [vacuum.entry(k) for k in range(1, 6)] == [1, 2, 3, 4, 5]

    s = make_sequence(Partition((1, 1)), 0)
    assert (s.entry(1), s.entry(2), s.entry(5)) == (0, 1, 5)

    t = make_sequence(Partition((3, 3)), 0)
    assert [t.entry(k) for k in range(1, 5)] == [-2, -1, 3, 4]


def test_sequence_strictly_increasing_and_invertible():
    for charge in (Fraction(-5, 2), -2, Fraction(-1, 2), 0, 1):
        for lam in enumerate_partitions(6):
            s = make_sequence(lam, charge)
            entries = [s.entry(k) for k in range(1, len(lam) + 4)]
            assert all(a < b for a, b in zip(entries, entries[1:]))
            recovered = shape_from_entries(s.charge, entries)
            assert recovered == lam


def test_make_sequence_rejects_bad_charge():
    with pytest.raises(ValueError):
        make_sequence(Partition(), Fraction(1, 3))


def test_orbit_key_examples():
    vac = orbit_key(make_sequence(Partition(), 0))
    assert vac.deviations == () and vac.neg_parity == 0

    two_flips = orbit_key(make_sequence(Partition((3, 3)), 0))
    assert two_flips.deviations == () and two_flips.neg_parity == 0

    with_zero = orbit_key(make_sequence(Partition((1, 1)), 0))
    assert with_zero.deviations == ((Fraction(0), 1), (Fraction(2), -1))
    assert with_zero.neg_parity == WILDCARD


def test_orbit_key_vacuum_with_zero_tail():
    # charge -1 puts a zero entry in the tail of the vacuum itself
    key = orbit_key(make_sequence(Partition(), -1))
    assert key.deviations == () and key.neg_parity == WILDCARD


def test_same_orbit_examples():
    vac = make_sequence(Partition(), 0)
    assert same_orbit(vac, make_sequence(Partition((3, 3)), 0))
    assert not same_orbit(vac, make_sequence(Partition((2,)), 0))
    s = make_sequence(Partition((4, 2)), Fraction(-1, 2))
    assert same_orbit(s, s)


def test_same_orbit_requires_one_sector():
    with pytest.raises(ValueError, match="one sector"):
        same_orbit(make_sequence(Partition(), 0), make_sequence(Partition(), 1))


def _per_entry_zero(seq) -> bool:
    # a zero entry, read entry by entry in Fractions
    if any(seq.entry(k) == 0 for k in range(1, seq.length + 1)):
        return True
    pos = -seq.charge
    return pos.denominator == 1 and pos.numerator >= seq.length + 1


def _per_entry_negatives(seq) -> int:
    # the negative entries, read entry by entry in Fractions
    count = sum(1 for k in range(1, seq.length + 1) if seq.entry(k) < 0)
    kmax = math.floor(-seq.charge)
    if kmax == -seq.charge:
        kmax -= 1
    return count + max(0, kmax - seq.length)


@lru_cache(maxsize=None)
def _abs_window(seq, w: int) -> list:
    return sorted(abs(seq.entry(k)) for k in range(1, w + 1))


@lru_cache(maxsize=None)
def _window_parity(seq, w: int) -> int:
    return sum(1 for k in range(1, w + 1) if seq.entry(k) < 0) % 2


def _per_entry_same_orbit(s, t) -> bool:
    # the orbit rule read entry by entry in Fractions, independent of any key:
    # the absolute-entry multisets over the common window, then the negative
    # parities unless a zero entry makes the parity free (the readings of one
    # sequence are cached per window)
    w = max(s.length, t.length)
    if _abs_window(s, w) != _abs_window(t, w):
        return False
    if _per_entry_zero(s):
        return True
    return _window_parity(s, w) == _window_parity(t, w)


def _per_entry_orbit_key(seq):
    # the orbit key read entry by entry in Fractions, independent of the twice-key
    dev: dict = {}
    for k in range(1, seq.length + 1):
        v, w = abs(seq.entry(k)), abs(seq.charge + k)
        dev[v] = dev.get(v, 0) + 1
        dev[w] = dev.get(w, 0) - 1
    parity = WILDCARD if _per_entry_zero(seq) else _per_entry_negatives(seq) % 2
    return OrbitKey(seq.charge, tuple(sorted((v, c) for v, c in dev.items() if c)), parity)


def test_sign_profile_equals_per_entry_reading():
    for delta in range(-12, 9):
        charge = Fraction(delta, 2) - 1
        for lam in enumerate_partitions(10):
            s = make_sequence(lam, charge)
            assert sign_profile(delta - 2, lam) == (_per_entry_negatives(s), _per_entry_zero(s))
            assert (s.negative_count(), s.has_zero_entry()) == sign_profile(delta - 2, lam)


def test_transpose_profile_equals_per_entry_reading():
    # the kernel reads the module label lam; the references read the entries
    # of the sequence of lam's transpose one by one
    for delta in range(-8, 11):
        charge = Fraction(delta, 2) - 1
        for lam in enumerate_partitions(12):
            s = make_sequence(lam.transpose(), charge)
            key, negatives, zero = transpose_profile(delta - 2, lam.parts)
            assert key_from_twice(delta - 2, key) == _per_entry_orbit_key(s), (lam, delta)
            assert (negatives, zero) == (_per_entry_negatives(s), _per_entry_zero(s)), (lam, delta)


def _column_profile(c2: int, shape: Partition) -> tuple:
    # the column-reading loop the library used before: one step per part of
    # `shape` (the transpose of the label), then the tail's negative entries
    # and zero in closed form
    dev: dict[int, int] = {}
    negatives, zero = 0, False
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
    negatives += max(0, (-c2 - 1) // 2 - len(shape))
    zero = zero or (c2 % 2 == 0 and -c2 >= 2 * len(shape) + 2)
    parity = WILDCARD if zero else negatives % 2
    return (tuple(sorted((v, c) for v, c in dev.items() if c)), parity), negatives, zero


# about 10**4 boxes each, one label per run shape
LARGE_LABELS = {
    "row": (10**4,),
    "column": (1,) * 10**4,
    "hook": (5000,) + (1,) * 5000,
    "rectangle": (100,) * 100,
    "staircase": tuple(range(140, 0, -1)),
    "fat hook": (200,) * 30 + (50,) * 80,
    "fat hook, long arm": (3000,) * 3 + (10,) * 100,
}


def test_transpose_profile_equals_the_column_loop_on_large_labels():
    for name, parts in LARGE_LABELS.items():
        shape = Partition(parts).transpose()
        for delta in (-6, -2, 0, 1, 2, 5, 8):
            assert transpose_profile(delta - 2, parts) == _column_profile(delta - 2, shape), (name, delta)


def test_transpose_profile_costs_per_run_not_per_row():
    # a run of r rows equal to p leaves min(p, r) values at each end; reading
    # all r of them gives the same key, so only the time tells them apart
    column = (1,) * 10**6
    started = time.process_time()
    profile = transpose_profile(0, column)
    assert time.process_time() - started < 0.05
    assert profile == _column_profile(0, Partition((10**6,)))


def test_orbit_key_equality_decides_orbits():
    # same_orbit compares twice-keys; the reference decides from the entries
    parts = enumerate_partitions(10)
    for delta in range(-6, 9):
        charge = Fraction(delta, 2) - 1
        seqs = [make_sequence(lam, charge) for lam in parts]
        keys = [orbit_key(s) for s in seqs]
        for i, s in enumerate(seqs):
            for j in range(i, len(seqs)):
                expected = _per_entry_same_orbit(s, seqs[j])
                assert same_orbit(s, seqs[j]) == expected, (parts[i], parts[j], delta)
                assert (keys[i] == keys[j]) == expected


def test_twice_key_equality_equals_orbit_key_equality():
    parts = enumerate_partitions(10)
    for delta in range(-6, 9):
        charge = Fraction(delta, 2) - 1
        seqs = [make_sequence(lam, charge) for lam in parts]
        keys = [_per_entry_orbit_key(s) for s in seqs]
        assert [orbit_key(s) for s in seqs] == keys
        twice_keys = [orbit_twice_key(delta - 2, lam) for lam in parts]
        for i in range(len(parts)):
            for j in range(i, len(parts)):
                assert (twice_keys[i] == twice_keys[j]) == (keys[i] == keys[j])


def test_zero_presence_is_an_orbit_invariant():
    charge = -1
    seqs = [make_sequence(lam, charge) for lam in enumerate_partitions(6)]
    for s in seqs:
        for t in seqs:
            if same_orbit(s, t):
                assert s.has_zero_entry() == t.has_zero_entry()


_shape = st.lists(st.integers(1, 4), max_size=4).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


@settings(max_examples=80, deadline=None)
@given(_shape, _shape, _shape, st.integers(-4, 6))
def test_same_orbit_is_an_equivalence(a, b, c, delta):
    charge = Fraction(delta, 2) - 1
    sa, sb, sc = (make_sequence(x, charge) for x in (a, b, c))
    assert same_orbit(sa, sa)
    assert same_orbit(sa, sb) == same_orbit(sb, sa)
    if same_orbit(sa, sb) and same_orbit(sb, sc):
        assert same_orbit(sa, sc)


def test_orbits_match_bar_weight_classes():
    # odd delta: orbits and bar-weight classes coincide; even delta: the
    # bar-weight class is the deviation class, refined by parity into orbits
    for delta in range(-4, 7):
        charge = Fraction(delta, 2) - 1
        parts = enumerate_partitions(8)
        seqs = {lam: make_sequence(lam.transpose(), charge) for lam in parts}
        keys = {lam: orbit_key(seqs[lam]) for lam in parts}
        sym = {lam: reduce_mod_qtheta(weight_alpha_part(lam, delta), delta) for lam in parts}
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                bar_eq = sym[lam] == sym[mu]
                if delta % 2 != 0:
                    assert (keys[lam] == keys[mu]) == bar_eq
                else:
                    dev_eq = (
                        keys[lam].deviations == keys[mu].deviations
                        and keys[lam].charge == keys[mu].charge
                    )
                    assert dev_eq == bar_eq
                    if bar_eq:
                        parity_free = seqs[lam].has_zero_entry()
                        parity_eq = (
                            seqs[lam].negative_count() % 2
                            == seqs[mu].negative_count() % 2
                        )
                        assert (keys[lam] == keys[mu]) == (parity_free or parity_eq)

