import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerblocks import verify
from brauerblocks.partitions import Partition, enumerate_partitions, twice
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


def _basis(parts):
    return WedgeVector(0, {Partition(parts): 1})


def test_raising_examples():
    one = _basis((1,))
    assert apply_raising(H, one) == _basis(())
    assert apply_raising(Fraction(3, 2), _basis(())).is_zero
    assert apply_raising(H, WedgeVector(0)).is_zero


def test_lowering_examples():
    assert apply_lowering(H, _basis(())) == _basis((1,))
    assert apply_lowering(Fraction(3, 2), _basis(())).is_zero
    assert apply_lowering(-H, WedgeVector(0)).is_zero


def test_b_examples():
    assert apply_b(-H, _basis(())) == _basis((1,))
    # raising restores the vacuum; lowering moves the entry 0 down to -1,
    # which is the sequence of the shape (2)
    assert apply_b(H, _basis((1,))) == _basis(()) + _basis((2,))
    assert apply_b(H, WedgeVector(0)).is_zero


def test_index_parity_is_enforced():
    with pytest.raises(ValueError, match="^operator index parity does not match the sector$"):
        apply_raising(1, _basis(()))
    with pytest.raises(ValueError, match="^operator index parity does not match the sector$"):
        apply_b(H, WedgeVector(-1))
    # an index that is not a half-integer is refused before the parity test
    with pytest.raises(ValueError, match="not an integer or half-integer"):
        apply_raising(Fraction(1, 3), _basis(()))
    with pytest.raises(ValueError, match="not an integer or half-integer"):
        apply_b(Fraction(1, 3), _basis(()))


def test_relative_weight_examples():
    # keys are twice-indices: twice 1/2 and twice 3/2
    assert relative_weight(0, Partition()) == {}
    assert relative_weight(0, Partition((1,))) == {1: -1}
    assert relative_weight(0, Partition((1, 1))) == {
        1: -1,
        3: -1,
    }


def test_relative_weight_matches_label_weight():
    # the transposed sequence carries the negated alpha-part of the label
    for delta in range(-4, 7):
        for lam in enumerate_partitions(6):
            rel = relative_weight(delta - 2, lam.transpose())
            assert rel == {k: -c for k, c in weight_alpha_part(lam, delta).items()}


def test_b_moves_one_box_with_unit_coefficients():
    for delta in (-2, 1, 2, 3):
        parity = (delta - 1) % 2
        # twice-indices t of the operator indices i = t/2
        indices = [t for t in range(-9, 10) if t % 2 == parity]
        for shape in enumerate_partitions(4):
            base = relative_weight(delta - 2, shape)
            for t in indices:
                out = apply_b(Fraction(t, 2), WedgeVector(delta - 2, {shape: 1}))
                assert len(out.terms) <= 2
                for term, coeff in out.terms.items():
                    assert coeff == 1
                    assert abs(term.size - shape.size) == 1
                    shift = vector_diff(relative_weight(delta - 2, term), base)
                    assert shift in ({t: 1}, {-t: -1})
                    # the two possible shifts agree modulo the sublattice
                    assert reduce_mod_qtheta(
                        vector_diff({t: 1}, {-t: -1}), delta
                    ).is_zero


def _reference_moved(c2, shape, source, step):
    # the linear row scan the library used before its binary search: find
    # the row whose twice-entry c2 + 2(k - shape_k) equals source, else the
    # tail position; refuse a collision with the neighbour in direction step
    length = len(shape)

    def entry(k):
        return c2 + 2 * (k - shape.part(k))

    k = next((m for m in range(1, length + 1) if entry(m) == source), None)
    if k is None:
        k, odd = divmod(source - c2, 2)
        if odd or k <= length:
            return None
    if k + step >= 1 and entry(k + step) == source + 2 * step:
        return None
    parts = list(shape.parts) + [0] * (k - length)
    parts[k - 1] -= step
    return Partition(p for p in parts if p)


def _reference_apply_move(i2, vector, step):
    c2 = vector.twice_charge
    out = {}
    for shape, coeff in vector.terms.items():
        moved = _reference_moved(c2, shape, i2 - step, step)
        if moved is not None:
            out[moved] = out.get(moved, 0) + coeff
    return WedgeVector(c2, out)


def _reference_b(i2, vector):
    return _reference_apply_move(i2, vector, +1) + _reference_apply_move(-i2, vector, -1)


def _move_case(c2, shape, source, step):
    # which branch of the move rule the entry of twice-value source meets
    d = (source - c2) // 2  # wanted k - shape_k
    if d > len(shape) + 1:
        return "tail"
    if d == len(shape) + 1:
        return "row below the shape" if step < 0 else "tail"
    if d < 1 - shape.part(1):
        return "below the window"
    rows = [k for k in range(1, len(shape) + 1) if k - shape.part(k) == d]
    if not rows:
        return "gap"
    return "move" if _reference_moved(c2, shape, source, step) else "collision"


def test_operators_equal_the_row_scan_reference():
    cases = Counter()
    for c2 in range(-6, 7):
        for shape in enumerate_partitions(8):
            basis = WedgeVector(c2, {shape: 1})
            reach = 2 * (shape.part(1) + len(shape)) + 5
            for i2 in range(-reach, reach + 1):
                if (i2 + c2) % 2 == 0:
                    continue
                index = Fraction(i2, 2)
                assert apply_raising(index, basis) == _reference_apply_move(i2, basis, +1), (shape, c2, i2)
                assert apply_lowering(index, basis) == _reference_apply_move(i2, basis, -1), (shape, c2, i2)
                assert apply_b(index, basis) == _reference_b(i2, basis), (shape, c2, i2)
                cases[_move_case(c2, shape, i2 - 1, +1)] += 1
                cases[_move_case(c2, shape, i2 + 1, -1)] += 1
    assert set(cases) == {"tail", "row below the shape", "below the window", "gap", "move", "collision"}
    # multi-term vectors; in the second, b_(-1/2) raises (2) and lowers ()
    # onto (1), and the two terms cancel
    vectors = [
        WedgeVector(0, {Partition(()): 1, Partition((1,)): 2, Partition((2, 1)): Fraction(-1, 3)}),
        WedgeVector(0, {Partition(()): 1, Partition((2,)): -1}),
        WedgeVector(-3, {Partition((3, 1, 1)): 5, Partition((2, 2)): 1, Partition((1, 1, 1, 1)): -2}),
        WedgeVector(4, {shape: k for k, shape in enumerate(enumerate_partitions(4), 1)}),
    ]
    assert apply_b(-H, vectors[1]).is_zero
    for vector in vectors:
        for i2 in range(-15, 16):
            if (i2 + vector.twice_charge) % 2 == 0:
                continue
            index = Fraction(i2, 2)
            assert apply_raising(index, vector) == _reference_apply_move(i2, vector, +1)
            assert apply_lowering(index, vector) == _reference_apply_move(i2, vector, -1)
            assert apply_b(index, vector) == _reference_b(i2, vector)


_coeff = st.integers(-3, 3).map(Fraction)
_shape = st.lists(st.integers(1, 3), max_size=3).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_shape, _coeff), min_size=1, max_size=3), _coeff)
def test_operators_are_linear(pairs, scalar):
    u = WedgeVector(0, dict(pairs))
    v = WedgeVector(0, {Partition((2,)): Fraction(1)})
    i = Fraction(3, 2)
    assert apply_raising(i, u + v) == apply_raising(i, u) + apply_raising(i, v)
    assert apply_lowering(i, scalar * u) == scalar * apply_lowering(i, u)
    assert apply_b(i, u + scalar * v) == apply_b(i, u) + scalar * apply_b(i, v)


def test_vector_arithmetic_and_json():
    a = _basis((1,))
    b = _basis((2,))
    combined = 2 * a + b * Fraction(1, 3)
    assert combined.terms[Partition((1,))] == 2
    assert (a + (-1) * a).is_zero
    with pytest.raises(ValueError):
        a + WedgeVector(2)
    assert wedge_vector_json(combined) == [
        {"shape": [1], "twiceCharge": 0, "numerator": 2, "denominator": 1},
        {"shape": [2], "twiceCharge": 0, "numerator": 1, "denominator": 3},
    ]


def test_coefficients_other_than_int_or_fraction_are_read_exactly():
    # a float or a string p/q becomes a Fraction once, so arithmetic stays
    # exact and the vector serialises
    vector = WedgeVector(0, {Partition((1,)): 0.5, Partition((2,)): "1/3"})
    assert vector + vector == WedgeVector(0, {Partition((1,)): 1, Partition((2,)): Fraction(2, 3)})
    assert wedge_vector_json(vector) == [
        {"shape": [1], "twiceCharge": 0, "numerator": 1, "denominator": 2},
        {"shape": [2], "twiceCharge": 0, "numerator": 1, "denominator": 3},
    ]


def _b_without_collisions(index, vector):
    # b_index with the collision rule dropped: in rows 1 .. length + 1 the
    # entry equal to index - 1/2 moves up and the entry equal to -index + 1/2
    # moves down even onto a neighbour; the rows are re-sorted so that the
    # result is still a shape
    i2, c2 = twice(index), vector.twice_charge
    out = {}
    for shape, coeff in vector.terms.items():
        for source, step in ((i2 - 1, 1), (1 - i2, -1)):
            for k in range(1, len(shape) + 2):
                if c2 + 2 * (k - shape.part(k)) == source:
                    parts = [*shape.parts, 0]
                    parts[k - 1] -= step
                    moved = Partition(sorted((p for p in parts if p > 0), reverse=True))
                    out[moved] = out.get(moved, 0) + coeff
    return WedgeVector(c2, out)


def _assert_check_reports(monkeypatch, mutant):
    # c08 run on the mutant names a reproducible shape=… i=… delta=… at
    # which the library and the mutant really disagree, and passes again
    # on the library
    monkeypatch.setattr(verify, "apply_b", mutant)
    result = verify.check_box_moves(3, [0, 1])
    assert not result.passed
    found = re.fullmatch(r"shape=\[([\d, ]*)\] i=(-?\d+(?:/2)?) delta=(-?\d+): .*", result.counterexample)
    assert found, result.counterexample
    shape = Partition(tuple(int(x) for x in found.group(1).split(",") if x))
    i, delta = Fraction(found.group(2)), int(found.group(3))
    basis = WedgeVector(delta - 2, {shape: 1})
    assert apply_b(i, basis) != mutant(i, basis)
    monkeypatch.undo()
    assert verify.check_box_moves(3, [0, 1]).passed


def test_box_move_check_fails_when_collisions_are_allowed(monkeypatch):
    _assert_check_reports(monkeypatch, _b_without_collisions)


def _b_without_tail_moves(index, vector):
    # b_index with the tail entry never moving down: the library's moves,
    # less every term that adds the row length + 1 below the shape
    c2 = vector.twice_charge
    out = {}
    for shape, coeff in vector.terms.items():
        for term, c in apply_b(index, WedgeVector(c2, {shape: 1})).terms.items():
            if len(term) <= len(shape):
                out[term] = out.get(term, 0) + coeff * c
    return WedgeVector(c2, out)


def test_box_move_check_fails_when_the_tail_never_moves(monkeypatch):
    _assert_check_reports(monkeypatch, _b_without_tail_moves)


def test_box_move_check_calls_apply_b_once_per_shape_delta_and_index(monkeypatch):
    # a faster check must still try every index on every shape at every delta
    calls = Counter()

    def counting_b(index, vector):
        (shape,) = vector.terms
        calls[shape, vector.twice_charge + 2, twice(index)] += 1
        return apply_b(index, vector)

    monkeypatch.setattr(verify, "apply_b", counting_b)
    max_size, deltas = 3, [-1, 0, 1, 2]
    assert verify.check_box_moves(max_size, deltas).passed
    bound = 2 * verify.INDEX_BOUND
    expected = [
        (shape, delta, t)
        for delta in deltas
        for shape in enumerate_partitions(max_size)
        for t in range(-bound, bound + 1)
        if (t + delta) % 2 == 1
    ]
    assert sum(calls.values()) == len(expected) == 7 * (21 + 20 + 21 + 20)
    assert calls == Counter(expected)
