"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the same matrix backs the `brauerblocks verify` subcommand.  All
checks are exact; no tolerances are involved anywhere.
"""

from fractions import Fraction

from brauerblocks import verify as V
from brauerblocks.central import FactoredRational, central_character, centrally_equivalent
from brauerblocks.partitions import Partition
from brauerblocks.weights import (
    reduce_mod_qtheta,
    same_bar_weight,
    vector_diff,
    weight_alpha_part,
)

H = Fraction(1, 2)


def _report(number: int, result) -> None:
    status = "PASS" if result.passed else f"FAIL ({result.counterexample})"
    print(f"ACCEPTANCE {number:02d} {result.name} [{result.scope}]: {status}")
    assert result.passed, f"{result.name}: {result.counterexample}"


def test_c01_central_equal_weights_distinct():
    lam, mu = Partition((2, 2)), Partition((2, 1))
    want = FactoredRational.from_parts(Fraction(-1), {H: 1, -H: 1})
    assert central_character(lam, 1) == want
    assert central_character(mu, 1) == want
    assert centrally_equivalent(lam, mu, 1)
    assert not same_bar_weight(lam, mu, 1)
    diff = vector_diff(weight_alpha_part(mu, 1), weight_alpha_part(lam, 1))
    cls = reduce_mod_qtheta(diff, 1)
    assert cls == reduce_mod_qtheta({0: -1}, 1)
    assert not cls.is_zero
    _report(1, V.check_witness_pair())


def test_c02_orbit_equals_dot_bfs_oracle():
    _report(2, V.check_orbit_vs_bfs(10, range(-3, 6)))


def test_c03_sequence_weight_bridge():
    _report(3, V.check_sequence_weight_bridge(10, range(-4, 7)))


def test_c04_weight_class_split_counts():
    _report(4, V.check_split_counts(8, range(-3, 6)))


def test_c05_bar_weight_vs_central_character():
    _report(5, V.check_central_vs_bar_weight(10, range(-3, 6)))


def test_c06_series_reflection_product():
    _report(6, V.check_series_product(range(-5, 7), 24))


def test_c07_parameter_admissibility():
    _report(7, V.check_admissibility(range(-5, 7), 24))


def test_c08_wedge_box_consistency():
    _report(8, V.check_box_moves(6, range(-2, 5)))


def test_c09_block_growth_evidence():
    _report(9, V.check_block_growth(4, range(-2, 5)))


def test_c10_rational_function_weight_identity():
    _report(10, V.check_rational_weight())


def test_c11_key_consistency_across_modules():
    _report(11, V.check_key_consistency(10, range(-3, 6)))
