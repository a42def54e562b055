from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerblocks.blocks import block_key, classify_weight_class
from brauerblocks.partitions import Partition, enumerate_partitions, twice
from brauerblocks.sequences import WILDCARD
from brauerblocks.wedge import relative_weight
from brauerblocks.weights import (
    SymWeight,
    reduce_mod_qtheta,
    same_bar_weight,
    vector_diff,
    vector_sum,
    weight_alpha_part,
)

H = Fraction(1, 2)


def test_alpha_part_examples():
    # keys are twice-indices t = delta - 1 + 2 * content
    assert weight_alpha_part(Partition(), 3) == {}
    assert weight_alpha_part(Partition((2, 1)), 1) == {-2: 1, 0: 1, 2: 1}
    assert weight_alpha_part(Partition((1, 1)), 2) == {1: 1, -1: 1}


def test_alpha_part_counts_boxes():
    lam = Partition((3, 2))
    coeffs = weight_alpha_part(lam, 4)
    assert sum(coeffs.values()) == lam.size


def _alpha_part_per_box(lam: Partition, delta) -> dict:
    # the shifted contents as Fractions, keyed by their twice-values
    out: dict = {}
    for c in lam.contents(delta):
        out[twice(c)] = out.get(twice(c), 0) + 1
    return out


def test_alpha_part_equals_per_box_count():
    for delta in (-3, 0, 1, 2, 5):
        for lam in enumerate_partitions(12):
            assert weight_alpha_part(lam, delta) == _alpha_part_per_box(lam, delta)
    n = 10**4
    for lam in (Partition((1,) * n), Partition((n,)), Partition((n // 2,) + (1,) * (n - n // 2))):
        for delta in (1, 2):
            assert weight_alpha_part(lam, delta) == _alpha_part_per_box(lam, delta)


def test_alpha_part_requires_integral_delta():
    with pytest.raises(ValueError, match="integral delta"):
        weight_alpha_part(Partition((1,)), Fraction(7, 2))


def test_reduce_examples():
    # keys are twice-indices: alpha_0, alpha_(+-1) and alpha_(+-1/2)
    nonzero = reduce_mod_qtheta({0: 1}, 1)
    assert nonzero.pos == () and nonzero.zero_parity == 1
    assert not nonzero.is_zero

    assert reduce_mod_qtheta({2: 1, -2: 1}, 1).is_zero
    assert reduce_mod_qtheta({1: 1, -1: 1}, 2).is_zero


def test_reduce_rejects_parity_mismatch():
    # the error prints the index itself, half the twice-index
    with pytest.raises(ValueError, match=r"^index 0 does not lie in the root-index set for delta=2$"):
        reduce_mod_qtheta({0: 1}, 2)
    with pytest.raises(ValueError, match=r"^index 1 does not lie in the root-index set for delta=2$"):
        reduce_mod_qtheta({2: 1}, 2)
    with pytest.raises(ValueError, match=r"^index 1/2 does not lie in the root-index set for delta=1$"):
        reduce_mod_qtheta({1: 1}, 1)
    with pytest.raises(ValueError, match=r"^index -3/2 does not lie in the root-index set for delta=-1$"):
        reduce_mod_qtheta({-3: 1}, -1)
    assert reduce_mod_qtheta({-6: 1}, -1).pos == ((6, -1),)
    # the index is checked before a zero coefficient is skipped
    with pytest.raises(ValueError, match="root-index set"):
        reduce_mod_qtheta({1: 0}, 1)
    # a key that is not an integer, such as a root index passed as a Fraction
    # instead of its twice-index, is refused rather than misread
    with pytest.raises(ValueError, match="root-index set"):
        reduce_mod_qtheta({H: 2}, 2)
    with pytest.raises(ValueError, match="root-index set"):
        reduce_mod_qtheta({Fraction(2, 3): 1}, 1)


def test_zero_parity_absent_for_even_delta():
    w = reduce_mod_qtheta({1: 2}, 2)
    assert w.zero_parity is None
    assert w.pos == ((1, 2),)


def test_same_bar_weight_examples():
    assert same_bar_weight(Partition(), Partition((1, 1)), 2)
    assert not same_bar_weight(Partition((2, 2)), Partition((2, 1)), 1)
    assert same_bar_weight(Partition((3, 1)), Partition((3, 1)), -2)


def _reduced_difference_is_zero(alpha_lam, alpha_mu, delta) -> bool:
    return reduce_mod_qtheta(vector_diff(alpha_lam, alpha_mu), delta).is_zero


def test_same_bar_weight_equals_the_reduction():
    parts = enumerate_partitions(9)
    for delta in range(-6, 9):
        alpha = {lam: weight_alpha_part(lam, delta) for lam in parts}
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                expected = _reduced_difference_is_zero(alpha[lam], alpha[mu], delta)
                assert same_bar_weight(lam, mu, delta) == expected, (lam, mu, delta)
    # a few 10**4-box pairs: unrelated labels, and split partners, which share the bar-weight
    n = 10**4
    hook, row, column = Partition([n // 2] + [1] * (n // 2)), Partition([n]), Partition([1] * n)
    square = Partition([100] * 100)
    pairs = [
        (hook, row, 1),
        (row, column, 2),
        (column, classify_weight_class(column, 2).partner, 2),
        (square, classify_weight_class(square, 0).partner, 0),
    ]
    for lam, mu, delta in pairs:
        expected = _reduced_difference_is_zero(
            weight_alpha_part(lam, delta), weight_alpha_part(mu, delta), delta
        )
        assert same_bar_weight(lam, mu, delta) == expected
        assert expected == (mu.size > n)


# twice-indices of integral root indices, the parity of delta - 1 at delta = 1
_vector = st.dictionaries(
    st.integers(-5, 5).map(lambda i: 2 * i),
    st.integers(-3, 3).filter(lambda c: c != 0),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(_vector, _vector)
def test_reduce_is_additive(u, v):
    assert vector_diff(u, u) == {}
    combined = reduce_mod_qtheta(vector_sum(u, v), 1)
    ru, rv = reduce_mod_qtheta(u, 1), reduce_mod_qtheta(v, 1)
    merged: dict = {}
    for k, c in list(ru.pos) + list(rv.pos):
        merged[k] = merged.get(k, 0) + c
    expected = SymWeight(
        tuple(sorted((k, c) for k, c in merged.items() if c)),
        (ru.zero_parity + rv.zero_parity) % 2,
    )
    assert combined == expected


def test_bar_weight_classes_preserve_size_parity():
    # every generator of the symmetrised sublattice has total degree two
    for delta in range(-4, 7):
        classes: dict = {}
        for lam in enumerate_partitions(8):
            sym = reduce_mod_qtheta(weight_alpha_part(lam, delta), delta)
            classes.setdefault(sym, set()).add(lam.size % 2)
        assert all(len(parities) == 1 for parities in classes.values())



def test_keys_and_key_fields_are_ints():
    # half-integers below the public edge are held as integer twice-values
    for delta in (-3, 0, 1, 2, 5):
        for lam in enumerate_partitions(6):
            alpha = weight_alpha_part(lam, delta)
            assert all(type(t) is int for t in alpha)
            assert all(type(t) is int for t in relative_weight(delta - 2, lam.transpose()))
            pos = reduce_mod_qtheta(alpha, delta).pos
            assert all(type(t) is int and type(c) is int for t, c in pos)
            key = block_key(lam, delta)
            assert type(key.twice_charge) is int
            assert all(type(v) is int and type(c) is int for v, c in key.deviations)
            assert key.neg_parity == WILDCARD or type(key.neg_parity) is int
