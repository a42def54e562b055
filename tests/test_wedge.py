from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerblocks.partitions import Partition, enumerate_partitions
from brauerblocks.sequences import make_sequence
from brauerblocks.wedge import (
    WedgeVector,
    apply_b,
    apply_lowering,
    apply_raising,
    relative_weight,
    wedge_vector_json,
)
from brauerblocks.weights import reduce_mod_qtheta, vector_diff, weight_alpha_part

H = Fraction(1, 2)


def _basis(parts, charge=0):
    return WedgeVector.basis(make_sequence(Partition(parts), charge))


def test_raising_examples():
    one = _basis((1,))
    assert apply_raising(H, one) == _basis(())
    assert apply_raising(Fraction(3, 2), _basis(())).is_zero
    assert apply_raising(H, WedgeVector.zero(0)).is_zero


def test_lowering_examples():
    assert apply_lowering(H, _basis(())) == _basis((1,))
    assert apply_lowering(Fraction(3, 2), _basis(())).is_zero
    assert apply_lowering(-H, WedgeVector.zero(0)).is_zero


def test_b_examples():
    assert apply_b(-H, _basis(())) == _basis((1,))
    # raising restores the vacuum; lowering moves the entry 0 down to -1,
    # which is the sequence of the shape (2)
    assert apply_b(H, _basis((1,))) == _basis(()) + _basis((2,))
    assert apply_b(H, WedgeVector.zero(0)).is_zero


def test_index_parity_is_enforced():
    with pytest.raises(ValueError, match="^operator index parity does not match the sector$"):
        apply_raising(1, _basis(()))
    with pytest.raises(ValueError, match="^operator index parity does not match the sector$"):
        apply_b(H, WedgeVector.zero(Fraction(-1, 2)))


def test_relative_weight_examples():
    assert relative_weight(make_sequence(Partition(), 0)) == {}
    assert relative_weight(make_sequence(Partition((1,)), 0)) == {H: -1}
    assert relative_weight(make_sequence(Partition((1, 1)), 0)) == {
        H: -1,
        Fraction(3, 2): -1,
    }


def test_relative_weight_matches_label_weight():
    # the transposed sequence carries the negated alpha-part of the label
    for delta in range(-4, 7):
        charge = Fraction(delta, 2) - 1
        for lam in enumerate_partitions(6):
            rel = relative_weight(make_sequence(lam.transpose(), charge))
            assert rel == {k: -c for k, c in weight_alpha_part(lam, delta).items()}


def test_b_moves_one_box_with_unit_coefficients():
    for delta in (-2, 1, 2, 3):
        charge = Fraction(delta, 2) - 1
        parity = (delta - 1) % 2
        indices = [Fraction(t, 2) for t in range(-9, 10) if t % 2 == parity]
        for shape in enumerate_partitions(4):
            seq = make_sequence(shape, charge)
            base = relative_weight(seq)
            for i in indices:
                out = apply_b(i, WedgeVector.basis(seq))
                assert len(out.terms) <= 2
                for term, coeff in out.terms.items():
                    assert coeff == 1
                    assert abs(term.shape.size - shape.size) == 1
                    shift = vector_diff(relative_weight(term), base)
                    assert shift in ({i: 1}, {-i: -1})
                    # the two possible shifts agree modulo the sublattice
                    assert reduce_mod_qtheta(
                        vector_diff({i: 1}, {-i: -1}), delta
                    ).is_zero


_coeff = st.integers(-3, 3).map(Fraction)
_shape = st.lists(st.integers(1, 3), max_size=3).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_shape, _coeff), min_size=1, max_size=3), _coeff)
def test_operators_are_linear(pairs, scalar):
    charge = Fraction(0)
    u = WedgeVector(charge, {make_sequence(p, charge): c for p, c in pairs})
    v = WedgeVector(charge, {make_sequence(Partition((2,)), charge): Fraction(1)})
    i = Fraction(3, 2)
    assert apply_raising(i, u + v) == apply_raising(i, u) + apply_raising(i, v)
    assert apply_lowering(i, scalar * u) == scalar * apply_lowering(i, u)
    assert apply_b(i, u + scalar * v) == apply_b(i, u) + scalar * apply_b(i, v)


def test_vector_arithmetic_and_json():
    a = _basis((1,))
    b = _basis((2,))
    combined = 2 * a + b * Fraction(1, 3)
    assert combined.terms[make_sequence(Partition((1,)), 0)] == 2
    assert (a + (-1) * a).is_zero
    with pytest.raises(ValueError):
        a + WedgeVector.zero(1)
    assert wedge_vector_json(combined) == [
        {"shape": [1], "twiceCharge": 0, "numerator": 2, "denominator": 1},
        {"shape": [2], "twiceCharge": 0, "numerator": 1, "denominator": 3},
    ]
