import random
import re
from contextlib import contextmanager
from fractions import Fraction

import pytest

from brauerblocks import verify
from brauerblocks.central import (
    FactoredRational,
    _gamma_exponents,
    brauer_gammas,
    central_character,
    centrally_equivalent,
    check_admissible,
    check_reflection_product,
)
from brauerblocks.partitions import Partition, enumerate_partitions
from brauerblocks.weights import vector_diff, vector_sum

H = Fraction(1, 2)


def _as_roots(exps: dict[int, int], b: int) -> FactoredRational:
    # the int kernel's exponents, keyed by b * root, read as roots r / b
    return FactoredRational.from_parts(Fraction(1), {Fraction(r, b): e for r, e in exps.items()})


def _value(f: FactoredRational, u: Fraction) -> Fraction:
    # exact value at a rational point; raises ZeroDivisionError at a pole
    value = f.constant
    for r, e in f.factors:
        value *= (u - r) ** e
    return value


def test_gamma_factor_examples():
    # c = t/2, keyed by 2 * root
    assert _gamma_exponents(0, 2) == {}

    g = _gamma_exponents(1, 2)
    assert g == {-3: 1, 1: 3, 3: -1, -1: -3}
    assert _as_roots(g, 2).render() == "(u-1/2)^3(u+3/2)/((u-3/2)(u+1/2)^3)"

    g1 = _gamma_exponents(2, 2)
    assert g1 == {-4: 1, 2: 2, 4: -1, -2: -2}
    assert _as_roots(g1, 2).render() == "(u-1)^2(u+2)/((u-2)(u+1)^2)"


def _gamma_factor_by_fractions(content) -> FactoredRational:
    # the Fraction-keyed body of gamma_c, one root at a time
    c = Fraction(content)
    factor_map: dict[Fraction, int] = {}
    for root, e in ((1 - c, 1), (-1 - c, 1), (c, 2), (1 + c, -1), (c - 1, -1), (-c, -2)):
        factor_map[root] = factor_map.get(root, 0) + e
    return FactoredRational.from_parts(Fraction(1), factor_map)


def test_gamma_factor_equals_the_fraction_body():
    for b in (1, 2, 3, 7):
        for t in range(-41, 42):
            c = Fraction(t, b)
            assert _as_roots(_gamma_exponents(t, b), b) == _gamma_factor_by_fractions(c), c
            # the kernel scales with b, so rational-function-weight reads it at b = 2
            scaled = {2 * root: e for root, e in _gamma_exponents(t, b).items()}
            assert _gamma_exponents(2 * t, 2 * b) == scaled


@pytest.mark.parametrize("off_at", [-9, 0, 4])
def test_rational_weight_check_fails_when_one_exponent_is_off(monkeypatch, off_at):
    # the mutant kernel raises the exponent of the double root c at one a = t/2
    def mutant(a, b):
        exps = _gamma_exponents(a, b)
        if Fraction(a, b) == Fraction(off_at, 2):
            exps[a] = exps.get(a, 0) + 1
        return exps

    monkeypatch.setattr(verify, "_gamma_exponents", mutant)
    result = verify.check_rational_weight()
    assert not result.passed
    assert re.match(r"a=-?\d+(/2)?: ", result.counterexample)
    a = Fraction(off_at, 2)

    def alpha(i):
        # alpha_i = 2 omega_i - omega_(i-1) - omega_(i+1), keyed by root
        return {i: 2, i - 1: -1, i + 1: -1}

    want = vector_diff(alpha(a), alpha(-a))
    got = dict(want)
    got[a] = got.get(a, 0) + 1
    assert result.counterexample == f"a={a}: {_map_str(got)} != {_map_str(want)}"
    monkeypatch.undo()
    assert verify.check_rational_weight().passed


def _map_str(weight: dict) -> str:
    return "{" + ", ".join(f"{root}: {e}" for root, e in sorted(weight.items()) if e) + "}"


def test_rational_weight_counterexample_prints_roots():
    got = {-11: -1, -9: 3, -7: -1, 7: 1, 9: -2, 11: 1}
    assert verify._in_root_units(got) == "{-11/2: -1, -9/2: 3, -7/2: -1, 7/2: 1, 9/2: -2, 11/2: 1}"
    assert verify._in_root_units({4: 1, 0: 1}) == "{0: 1, 2: 1}"


def test_gamma_factor_inverse_symmetry():
    for t in range(-7, 8):
        assert vector_sum(_gamma_exponents(t, 2), _gamma_exponents(-t, 2)) == {}


def test_central_character_examples():
    empty = central_character(Partition(), Fraction(7, 3))
    assert empty == FactoredRational.from_parts(Fraction(-1), {H: 1, -H: 1})
    assert empty.render() == "-(u-1/2)(u+1/2)"

    assert central_character(Partition((2, 2)), 1) == empty
    assert central_character(Partition((2, 1)), 1) == empty

    one_box = central_character(Partition((1,)), 2)
    assert one_box.render() == "-(u-1/2)^4(u+3/2)/((u-3/2)(u+1/2)^2)"
    assert dict(one_box.factors) == {
        H: 4,
        Fraction(-3, 2): 1,
        Fraction(3, 2): -1,
        -H: -2,
    }


def _defining_product(lam: Partition, delta, u: Fraction) -> Fraction:
    # literal product over boxes, no factoring shared with the implementation
    value = (H - u) * (H + u)
    for c in lam.contents(delta):
        value *= ((u + c) ** 2 - 1) * (u - c) ** 2
        value /= ((u - c) ** 2 - 1) * (u + c) ** 2
    return value


def test_character_matches_defining_product_at_random_points():
    rng = random.Random(20240809)
    deltas = list(range(-3, 6)) + [Fraction(7, 2), Fraction(-1, 3)]
    for delta in deltas:
        for lam in enumerate_partitions(8):
            char = central_character(lam, delta)
            points = 0
            while points < 7:
                u = Fraction(rng.randint(-400, 400), rng.randint(11, 23))
                try:
                    expected = _defining_product(lam, delta, u)
                    got = _value(char, u)
                except ZeroDivisionError:
                    continue
                assert got == expected
                points += 1


def test_centrally_equivalent_examples():
    assert centrally_equivalent(Partition((2, 2)), Partition((2, 1)), 1)
    assert centrally_equivalent(Partition((3, 1)), Partition((3, 1)), Fraction(5, 2))
    assert not centrally_equivalent(Partition((1,)), Partition(), 2)


def test_parameter_series_examples():
    assert brauer_gammas(1, 6) == [1, 0, 0, 0, 0, 0]
    assert brauer_gammas(3, 4) == [3] * 4
    assert brauer_gammas(Fraction(7, 3), 3) == [Fraction(7, 3), Fraction(14, 9), Fraction(28, 27)]
    assert brauer_gammas(5, 0) == []
    for delta in range(-4, 5):
        assert brauer_gammas(delta, 2) == [delta, delta * Fraction(delta - 1, 2)]


def _gammas_by_fraction_products(delta, length: int) -> list[Fraction]:
    # the definition in Fractions: delta times a running power of (delta - 1)/2
    d = Fraction(delta)
    base = (d - 1) / 2
    out: list[Fraction] = []
    power = Fraction(1)
    for _ in range(length):
        out.append(d * power)
        power *= base
    return out


def test_brauer_gammas_equal_the_fraction_products():
    deltas = [Fraction(p, q) for p in range(-7, 8) for q in (1, 2, 3, 4, 9)]
    deltas += [Fraction(999999, 1000000), Fraction(-10**6), Fraction(10**6, 7), 3, -2, 0]
    for delta in deltas:
        for length in (0, 1, 2, 5, 64, 129):
            got = brauer_gammas(delta, length)
            assert got == _gammas_by_fraction_products(delta, length), (delta, length)
            assert all(type(g) is Fraction for g in got)


def _laurent_reflection_product(gammas, order: int) -> bool:
    # the reference route: both series as truncated Laurent series, known
    # for degrees >= 1 - len(gammas), multiplied in full; the product is
    # exact from max(low_f + top_g, low_g + top_f) up, with top the highest
    # nonzero degree, and compared on every degree from there (or -order) to 2
    low = 1 - len(gammas)
    series = []
    for sign in (1, -1):
        coeffs = {1: Fraction(sign), 0: Fraction(gammas[0]) - H}
        for a in range(1, len(gammas)):
            coeffs[-a] = Fraction(gammas[a]) * sign**a
        series.append({d: c for d, c in coeffs.items() if c != 0})
    f, g = series
    exact = max(low + max(g), low + max(f))
    product: dict[int, Fraction] = {}
    for d1, c1 in f.items():
        for d2, c2 in g.items():
            if d1 + d2 >= exact:
                product[d1 + d2] = product.get(d1 + d2, Fraction(0)) + c1 * c2
    target = {2: Fraction(-1), 0: Fraction(1, 4)}
    return all(
        product.get(d, 0) == target.get(d, 0) for d in range(max(exact, -order), 3)
    )


def _series_cases():
    # Brauer parameters, extra coefficients beyond order + 1, and perturbed or
    # random sequences, so that both outcomes occur at every order
    rng = random.Random(20261019)
    for delta in list(range(-4, 6)) + [Fraction(7, 3), Fraction(-5, 2)]:
        for order in range(13):
            for extra in (0, 1, 3):
                base = brauer_gammas(delta, order + 1 + extra)
                cases = [base, list(base), list(base), list(base)]
                if len(base) > 1:
                    cases[1][1] += 1
                cases[2][rng.randrange(len(base))] += Fraction(1, 3)
                cases[3][-1] += 5
                cases.append([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in base])
                for gammas in cases:
                    yield delta, order, gammas
    # sequences that hold with denominators of no common chain: free
    # even-index coefficients, odd ones completed by the recursion
    for order in range(13):
        gammas = _admissible_completion(order + 1, random.Random(order))
        yield None, order, gammas
        yield None, order, gammas[:-1] + [gammas[-1] + Fraction(1, 7)]


def _admissible_completion(length: int, rng) -> list[Fraction]:
    g: list[Fraction] = []
    for k in range(length):
        if k % 2 == 0:
            g.append(Fraction(rng.randint(-9, 9), rng.choice((1, 3, 4, 5, 7, 9))))
        else:
            g.append((-g[k - 1] + sum((-1) ** (j - 1) * g[j - 1] * g[k - j] for j in range(1, k + 1))) / 2)
    return g


def test_reflection_product_equals_the_laurent_product():
    outcomes = set()
    for delta, order, gammas in _series_cases():
        expected = _laurent_reflection_product(gammas, order)
        assert check_reflection_product(gammas, order) == expected, (delta, order, gammas)
        outcomes.add((order, expected))
    assert outcomes == {(order, ok) for order in range(13) for ok in (True, False)}


def _dense_admissible(gammas, order: int) -> bool:
    # the reference route: the recursion summed densely, zero products and
    # (-1) ** (j - 1) included
    g = [Fraction(x) for x in gammas]
    for k in range(1, order + 1, 2):
        rhs = -g[k - 1] + sum((-1) ** (j - 1) * g[j - 1] * g[k - j] for j in range(1, k + 1))
        if 2 * g[k] != rhs:
            return False
    return True


def test_admissibility_equals_the_dense_sum():
    # at order 0 the recursion has no odd k, so it holds there vacuously
    outcomes = set()
    for delta, order, gammas in _series_cases():
        expected = _dense_admissible(gammas, order)
        assert check_admissible(gammas, order) == expected, (delta, order, gammas)
        outcomes.add((order, expected))
    assert outcomes == {(0, True)} | {(order, ok) for order in range(1, 13) for ok in (True, False)}


@pytest.mark.parametrize("delta", [Fraction(7, 3), Fraction(-5, 2), Fraction(999999, 1000000), 10**6])
@pytest.mark.parametrize("order", [64, 128])
def test_series_checks_equal_the_references_at_high_order(delta, order):
    # the Brauer parameters hold; raising the last odd-index coefficient the
    # recursion reaches breaks both identities, and only at its last steps
    base = brauer_gammas(delta, order + 1)
    broken = list(base)
    broken[order - 1] += Fraction(1, 3)
    for gammas, holds in ((base, True), (broken, False)):
        assert _laurent_reflection_product(gammas, order) is holds
        assert check_reflection_product(gammas, order) is holds
        assert _dense_admissible(gammas, order) is holds
        assert check_admissible(gammas, order) is holds


@contextmanager
def _counting_fractions():
    # every Fraction construction, arithmetic results included
    built = []
    original = vars(Fraction)["__new__"]

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield built
    finally:
        Fraction.__new__ = original


def test_central_check_builds_no_fraction():
    with _counting_fractions() as built:
        result = verify.check_central_vs_bar_weight(4, range(-3, 6))
    assert result.passed and built == []


def test_series_checks_build_at_most_one_fraction_per_coefficient():
    with _counting_fractions() as built:
        Fraction(1, 3)
    assert len(built) == 1  # the counter sees constructions
    for delta in (Fraction(7, 3), 5, Fraction(-5, 2)):
        fractions = brauer_gammas(delta, 25)
        # Fractions are read as they are, strings and floats through Fraction
        inputs = [(fractions, 0), ([str(g) for g in fractions], 25)]
        inputs.append(([float(g) for g in fractions[:4]] + [0] * 21, 4))
        for gammas, most in inputs:
            for check in (check_reflection_product, check_admissible):
                with _counting_fractions() as built:
                    check(gammas, 24)
                assert len(built) <= most, (check.__name__, delta, gammas[:2])


def test_reflection_product_identity():
    assert check_reflection_product(brauer_gammas(3, 21), 20)
    assert check_reflection_product(brauer_gammas(1, 21), 20)

    broken = brauer_gammas(3, 21)
    broken[1] = Fraction(0)
    assert not check_reflection_product(broken, 20)

    with pytest.raises(ValueError):
        check_reflection_product(brauer_gammas(3, 5), 20)


def test_admissibility_recursion():
    assert check_admissible([Fraction(3)] * 20, 19)
    assert not check_admissible([Fraction(3), Fraction(1)] + [Fraction(3)] * 18, 19)
    assert check_admissible([Fraction(0)] * 20, 19)
    with pytest.raises(ValueError):
        check_admissible([Fraction(1)] * 3, 10)


def test_brauer_family_is_admissible():
    for delta in range(-5, 7):
        gammas = brauer_gammas(delta, 25)
        assert check_admissible(gammas, 24)
        assert check_reflection_product(gammas, 24)


def test_render_edge_cases():
    assert FactoredRational(Fraction(1), ()).render() == "1"
    assert FactoredRational(Fraction(-2, 3), ()).render() == "-2/3"
    f = FactoredRational.from_parts(Fraction(3), {Fraction(0): 2, Fraction(1): -1})
    assert f.render() == "3*u^2/((u-1))"
    json_form = central_character(Partition((1,)), 2).to_json()
    assert json_form["constant"] == [-1, 1]
    assert [1, 2, 4] in json_form["factors"]


def _per_box_character(lam: Partition, delta) -> FactoredRational:
    # the defining fold: one gamma factor per box content
    result = FactoredRational.from_parts(Fraction(-1), {H: 1, -H: 1})
    for c in lam.contents(delta):
        result = result * _gamma_factor_by_fractions(c)
    return result


def test_per_row_character_equals_per_box_fold():
    deltas = list(range(-3, 7)) + [Fraction(7, 2), Fraction(-1, 3)]
    for delta in deltas:
        for lam in enumerate_partitions(10):
            assert central_character(lam, delta) == _per_box_character(lam, delta), (lam, delta)


def _defining_run(a: Fraction, b: Fraction, u: Fraction) -> Fraction:
    # the telescoped gamma product over the consecutive contents a..b
    value = (H - u) * (H + u)
    value *= (u + a - 1) * (u + b + 1) * (u - a) * (u - b)
    return value / ((u + a) * (u + b) * (u - a + 1) * (u - b - 1))


def test_character_cost_follows_rows_not_boxes():
    base = Fraction(2 - 1, 2)
    u = Fraction(1, 3)
    char = central_character(Partition((10**11,)), 2)
    assert char.constant == -1
    assert len(char.factors) <= 8 + 2
    assert _value(char, u) == _defining_run(base, base + 10**11 - 1, u)
    # a column of 10**6 rows is one run: its contents base - 10**6 + 1 .. base
    char = central_character(Partition((1,) * 10**6), 2)
    assert len(char.factors) <= 8 + 2
    assert _value(char, u) == _defining_run(base - 10**6 + 1, base, u)
