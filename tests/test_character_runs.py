"""The run kernels of the character queries against the bodies they replaced.

``central_character``, ``centrally_equivalent`` and ``same_bar_weight`` read
a label's runs of equal rows in ints.  The references below are the
per-row Fraction character and the content-count bar-weight reduction that
the library used before; every label of size <= 10, every pair of size <= 9
and 10**4-box labels with partners built here must give the same answers.
At even delta both kernels must also agree with the bar-weight reduction
of the content count on seeded pairs of 50-300 boxes.  Cost tests time the
kernels on 10**6-row and 10**6-column labels.
"""

import random
import time
from fractions import Fraction

from brauerblocks.blocks import same_block
from brauerblocks.central import FactoredRational, central_character, centrally_equivalent
from brauerblocks.partitions import HALF, Partition, enumerate_partitions
from brauerblocks.weights import reduce_mod_qtheta, same_bar_weight, weight_alpha_part

# 5/4 puts the roots on a 1/8 grid
DELTAS = list(range(-8, 11)) + [Fraction(7, 2), Fraction(-1, 3), Fraction(5, 4), Fraction(-11, 6)]
INTEGRAL = range(-8, 11)


def _per_row_character(lam: Partition, delta) -> FactoredRational:
    # one telescoped gamma product per row, on Fraction roots base + k and -base + k
    base = (Fraction(delta) - 1) / 2
    plus: dict[int, int] = {}
    minus: dict[int, int] = {}
    for i, part in enumerate(lam.parts, 1):
        p, q = 1 - i, part - i
        for k, e in ((p, 1), (q, 1), (q + 1, -1), (p - 1, -1)):
            plus[k] = plus.get(k, 0) + e
        for k, e in ((1 - p, 1), (-q - 1, 1), (-q, -1), (-p, -1)):
            minus[k] = minus.get(k, 0) + e
    factor_map: dict[Fraction, int] = {HALF: 1, -HALF: 1}
    for sign, offsets in ((1, plus), (-1, minus)):
        for k, e in offsets.items():
            if e:
                root = sign * base + k
                factor_map[root] = factor_map.get(root, 0) + e
    return FactoredRational.from_parts(Fraction(-1), factor_map)


def _content_count_bar_weight(lam: Partition, mu: Partition, delta) -> bool:
    # the signed difference of the two content counts, folded onto t > 0,
    # with the parity of the count at t = 0
    pos: dict[int, int] = {}
    zero = 0
    for sign, label in ((1, lam), (-1, mu)):
        for t, c in weight_alpha_part(label, delta).items():
            if t > 0:
                pos[t] = pos.get(t, 0) + sign * c
            elif t < 0:
                pos[-t] = pos.get(-t, 0) - sign * c
            else:
                zero += sign * c
    return zero % 2 == 0 and not any(pos.values())


def _negated(lam: Partition, delta: int, count: int) -> Partition:
    """The label whose transpose's twice-sequence at charge delta/2 - 1 is
    lam's with its `count` nonzero entries of least absolute value negated,
    among those whose negative is not an entry.  Two negations stay in lam's
    block; one keeps the bar-weight for even delta."""
    col = lam.transpose().parts
    c2 = delta - 2
    window = [c2 + 2 * (k - h) for k, h in enumerate(col, 1)]
    lowest = window[0] if window else c2
    # past `reach` the tail entries exceed |lowest| and |c2|, so no negation lands there
    reach = len(col) + (abs(lowest) + abs(c2)) // 2 + count + 2
    entries = window + [c2 + 2 * k for k in range(len(col) + 1, reach + 1)]
    present = set(entries)
    free = sorted((v for v in entries if v and -v not in present), key=abs)[:count]
    moved = sorted(-v if v in free else v for v in entries)
    parts = [(c2 + 2 * k - v) // 2 for k, v in enumerate(moved, 1)]
    return Partition([p for p in parts if p]).transpose()


def _labels(n: int) -> dict[str, Partition]:
    """Labels of about n boxes: a row, a column, a hook, a square, a
    staircase and a random label."""
    side = round(n**0.5)
    steps = round((2 * n) ** 0.5)
    rng = random.Random(n)
    parts, left = [], n
    while left:
        parts.append(rng.randint(1, min(left, 300)))
        left -= parts[-1]
    return {
        "row": Partition((n,)),
        "column": Partition((1,) * n),
        "hook": Partition((n // 2,) + (1,) * (n - n // 2)),
        "square": Partition((side,) * side),
        "staircase": Partition(range(steps, 0, -1)),
        "random": Partition(sorted(parts, reverse=True)),
    }


def test_character_equals_the_per_row_body():
    for delta in DELTAS:
        for lam in enumerate_partitions(10):
            assert central_character(lam, delta).to_json() == _per_row_character(lam, delta).to_json(), (
                lam,
                delta,
            )


def test_central_equivalence_equals_the_per_row_body_on_all_small_pairs():
    parts = enumerate_partitions(9)
    for delta in DELTAS:
        char = {lam: _per_row_character(lam, delta) for lam in parts}
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                assert centrally_equivalent(lam, mu, delta) == (char[lam] == char[mu]), (lam, mu, delta)


def test_bar_weight_equals_the_content_count_on_all_small_pairs():
    parts = enumerate_partitions(9)
    for delta in INTEGRAL:
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                expected = _content_count_bar_weight(lam, mu, delta)
                assert same_bar_weight(lam, mu, delta) == expected, (lam, mu, delta)


def test_partner_negates_entries_of_one_block():
    # () at delta 2 has the twice-entries 2, 4, 6, ...; negating 2 and 4 adds 3 + 3 columns
    assert _negated(Partition(), 2, 2) == Partition((2, 2, 2))
    assert _negated(Partition(), 2, 1) == Partition((1, 1))
    for delta in range(-3, 6):
        for lam in enumerate_partitions(6):
            mu = _negated(lam, delta, 2)
            assert mu != lam and same_block(lam, mu, delta), (lam, delta)


def test_run_kernels_equal_the_old_bodies_on_large_labels():
    labels = _labels(10**4)
    for delta in (-3, 0, 1, 2, 5):
        char = {name: _per_row_character(lam, delta) for name, lam in labels.items()}
        for name, lam in labels.items():
            assert central_character(lam, delta).to_json() == char[name].to_json(), (name, delta)
            partners = [(flips, _negated(lam, delta, flips)) for flips in (1, 2)]
            cases = [(flips, mu, _per_row_character(mu, delta)) for flips, mu in partners]
            cases += [(0, labels[other], char[other]) for other in labels if other != name]
            for flips, mu, mu_char in cases:
                central = centrally_equivalent(lam, mu, delta)
                assert central == (char[name] == mu_char), (name, flips, delta)
                bar = same_bar_weight(lam, mu, delta)
                assert bar == _content_count_bar_weight(lam, mu, delta), (name, flips, delta)
                if flips == 2 or (flips == 1 and delta % 2 == 0):
                    assert bar and central, (name, flips, delta)
    for delta in (Fraction(5, 4), Fraction(-11, 6)):
        for name, lam in labels.items():
            assert central_character(lam, delta).to_json() == _per_row_character(lam, delta).to_json()


def _best_of_three(call) -> float:
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def test_bar_weight_cost_follows_runs_not_columns():
    row, split = Partition((10**6,)), Partition((999998, 2))
    column, hook = Partition((1,) * 10**6), Partition((500000,) + (1,) * 500000)
    assert _best_of_three(lambda: same_bar_weight(row, split, 2)) < 0.05
    assert _best_of_three(lambda: same_bar_weight(column, hook, 2)) < 0.05
    assert not same_bar_weight(row, split, 2)
    assert not same_bar_weight(column, hook, 2)


def test_character_cost_follows_runs_not_rows():
    column, other = Partition((1,) * 10**6), Partition((1,) * (10**6 - 2))
    assert _best_of_three(lambda: central_character(column, 2)) < 0.05
    assert _best_of_three(lambda: centrally_equivalent(column, other, 2)) < 0.05
    assert not centrally_equivalent(column, other, 2)


def _moved(lam: Partition, rng: random.Random) -> Partition:
    """lam with one box moved from a removable corner to an addable corner
    (or onto a new row), which may be the one it left."""
    parts = list(lam.parts)
    corners = [i for i, p in enumerate(parts) if i + 1 == len(parts) or parts[i + 1] < p]
    i = rng.choice(corners)
    parts[i] -= 1
    spots = [k for k in range(len(parts) + 1) if k == 0 or parts[k - 1] > (parts[k] if k < len(parts) else 0)]
    k = rng.choice(spots)
    if k == len(parts):
        parts.append(0)
    parts[k] += 1
    return Partition(sorted((p for p in parts if p), reverse=True))


def test_character_kernels_equal_the_bar_weight_reduction_at_scale():
    # Cox, De Visscher and Martin: at even delta every shifted content is a
    # half-integer, so two labels have one central character exactly when
    # their weights agree modulo the symmetrised sublattice, which the
    # content count of weight_alpha_part and reduce_mod_qtheta decide
    # without the run kernels
    rng = random.Random(2009)
    agree = differ = 0
    for _ in range(5):
        n = rng.randint(50, 300)
        for lam in _labels(n).values():
            for delta in (0, 2, -2 * len(lam), 2 * lam.part(1), 2 * rng.randint(-n, n)):
                bar = reduce_mod_qtheta(weight_alpha_part(lam, delta), delta)
                one = _negated(lam, delta, 1)
                pairs = [one, _negated(lam, delta, 2), _moved(lam, rng), _moved(one, rng)]
                for mu in pairs:
                    same = reduce_mod_qtheta(weight_alpha_part(mu, delta), delta) == bar
                    assert centrally_equivalent(lam, mu, delta) == same, (lam.parts[:3], mu.parts[:3], delta)
                    assert same_bar_weight(lam, mu, delta) == same, (lam.parts[:3], mu.parts[:3], delta)
                    agree += same
                    differ += not same
    assert agree > 300 and differ > 150
