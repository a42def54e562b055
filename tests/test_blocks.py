import re
from fractions import Fraction

import pytest

from brauerblocks import verify
from brauerblocks.blocks import (
    _dominant,
    _orbit_closure,
    _shifted_vector,
    block_key,
    brauer_algebra_blocks,
    classify_weight_class,
    dot_dominant,
    dot_orbit_member,
    enumerate_block_members,
    same_block,
    same_block_report,
    sector_charge,
)
from brauerblocks.partitions import Partition, enumerate_partitions, partitions_of_size
from brauerblocks.sequences import WILDCARD, make_sequence, same_orbit, shape_from_entries
from brauerblocks.weights import same_bar_weight

EMPTY = Partition()


def test_same_block_examples():
    assert same_block(EMPTY, Partition((2, 2, 2)), 2)
    assert not same_block(EMPTY, Partition((1, 1)), 2)
    assert same_block(Partition((3, 1)), Partition((3, 1)), -4)
    assert not same_block(Partition((2, 2)), Partition((2, 1)), 1)


def test_same_block_semisimple_for_nonintegral_delta():
    lam, mu = Partition((2, 1)), Partition((2, 1))
    assert same_block(lam, mu, Fraction(7, 2))
    assert not same_block(lam, Partition((3,)), Fraction(7, 2))
    assert not same_block(lam, Partition((1, 1, 1)), Fraction(1, 3))


def test_size_parity_short_circuit():
    assert not same_block(EMPTY, Partition((1,)), 2)
    assert not same_block(Partition((2,)), Partition((1, 1, 1)), 1)


def test_block_key_examples():
    vac = block_key(EMPTY, 2)
    assert vac.deviations == () and vac.neg_parity == 0
    assert block_key(Partition((2, 2, 2)), 2) == vac

    flipped = block_key(Partition((1, 1)), 2)
    assert flipped.deviations == () and flipped.neg_parity == 1
    assert flipped != vac


def test_block_key_requires_integral_delta():
    with pytest.raises(ValueError, match="integral delta"):
        block_key(EMPTY, Fraction(5, 2))


def test_block_key_decides_blocks():
    for delta in range(-4, 7):
        parts = enumerate_partitions(8)
        keys = {lam: block_key(lam, delta) for lam in parts}
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                assert same_block(lam, mu, delta) == (keys[lam] == keys[mu])


def test_block_refines_bar_weight():
    for delta in range(-3, 6):
        parts = enumerate_partitions(8)
        keys = {lam: block_key(lam, delta) for lam in parts}
        grouped: dict = {}
        for lam in parts:
            grouped.setdefault(keys[lam], []).append(lam)
        for members in grouped.values():
            anchor = members[0]
            for mu in members[1:]:
                assert same_bar_weight(anchor, mu, delta)


def test_classify_examples():
    split = classify_weight_class(EMPTY, 2)
    assert split.split and split.partner == Partition((1, 1))

    assert not classify_weight_class(Partition((1,)), 1).split
    assert not classify_weight_class(EMPTY, 0).split
    with pytest.raises(ValueError):
        classify_weight_class(EMPTY, Fraction(1, 2))


def test_classify_partner_postconditions():
    for delta in (-2, 0, 2, 4):
        for lam in enumerate_partitions(6):
            cls = classify_weight_class(lam, delta)
            zero = make_sequence(lam.transpose(), sector_charge(delta)).has_zero_entry()
            assert cls.split == (not zero)
            if cls.split:
                assert same_bar_weight(lam, cls.partner, delta)
                assert not same_block(lam, cls.partner, delta)


def _tail_walk_classify(lam: Partition, delta):
    # the split rule read entry by entry in Fractions: walk the tail until an
    # entry whose negative fits before the first entry, move it to the front
    # with its sign flipped, and read the shape back from the entries
    seq = make_sequence(lam.transpose(), sector_charge(delta))
    window_zero = any(seq.entry(k) == 0 for k in range(1, seq.length + 1))
    pos = -seq.charge
    tail_zero = pos.denominator == 1 and pos.numerator >= seq.length + 1
    if delta % 2 != 0 or window_zero or tail_zero:
        return False, None
    first = seq.entry(1)
    k = seq.length + 1
    while not (seq.entry(k) > 0 and -seq.entry(k) < first):
        k += 1
    window = [-seq.entry(k)] + [seq.entry(m) for m in range(1, k)]
    return True, shape_from_entries(seq.charge, window).transpose()


def test_classify_equals_the_tail_walk():
    for delta in range(-8, 11):
        for lam in enumerate_partitions(12):
            cls = classify_weight_class(lam, delta)
            assert (cls.split, cls.partner) == _tail_walk_classify(lam, delta), (lam, delta)
    # hook, row, column and rectangle labels of 10**4 boxes
    n = 10**4
    big = [Partition([n // 2] + [1] * (n // 2)), Partition([n]), Partition([1] * n)]
    big += [Partition([100] * 100), Partition([50] * 200)]
    for delta in (-6, -2, 0, 2, 4, 8):
        for lam in big:
            cls = classify_weight_class(lam, delta)
            assert (cls.split, cls.partner) == _tail_walk_classify(lam, delta), (lam.parts[:3], delta)


def test_enumerate_block_members_examples():
    assert enumerate_block_members(EMPTY, 2, 6) == [EMPTY, Partition((2, 2, 2))]
    assert enumerate_block_members(EMPTY, 2, 5) == [EMPTY]
    assert enumerate_block_members(EMPTY, 0, 2) == [EMPTY, Partition((2,))]
    assert enumerate_block_members(Partition((2, 1)), Fraction(3, 2), 8) == [Partition((2, 1))]
    with pytest.raises(ValueError):
        enumerate_block_members(Partition((2, 2)), 2, 3)


def test_enumeration_equals_the_filter_definition():
    # delta <= -5 puts fixed +-pairs into the tail of the empty label's sequence
    candidates = enumerate_partitions(12)
    for delta in [*range(-7, 10), Fraction(3, 2), Fraction(-1, 3)]:
        for lam in enumerate_partitions(6):
            filtered = [mu for mu in candidates if same_block(lam, mu, delta)]
            for bound in range(lam.size, 13):
                expected = [mu for mu in filtered if mu.size <= bound]
                assert enumerate_block_members(lam, delta, bound) == expected, (lam, delta, bound)


def test_enumeration_reaches_far_past_the_filter():
    members = enumerate_block_members(EMPTY, 2, 60)
    assert len(set(members)) == len(members) > 1000
    key = block_key(EMPTY, 2)
    assert all(block_key(mu, 2) == key for mu in members)
    small = [mu for mu in members if mu.size <= 16]
    assert small == [mu for mu in enumerate_partitions(16) if same_block(EMPTY, mu, 2)]


def test_brauer_algebra_blocks_examples():
    assert brauer_algebra_blocks(2, 2) == [
        [EMPTY],
        [Partition((2,))],
        [Partition((1, 1))],
    ]
    assert brauer_algebra_blocks(2, 0) == [
        [EMPTY, Partition((2,))],
        [Partition((1, 1))],
    ]
    assert brauer_algebra_blocks(1, 5) == [[Partition((1,))]]
    assert brauer_algebra_blocks(0, -2) == [[EMPTY]]


def test_brauer_algebra_blocks_cover_labels():
    for delta in (-2, 1, 4):
        for n in (3, 4):
            blocks = brauer_algebra_blocks(n, delta)
            flat = [p for group in blocks for p in group]
            assert len(flat) == len(set(flat))
            assert {p.size for p in flat} == set(range(n % 2, n + 1, 2))
            for group in blocks:
                anchor = group[0]
                for mu in group[1:]:
                    assert same_block(anchor, mu, delta)


def test_brauer_algebra_blocks_equal_the_orbit_key_grouping():
    for delta in range(-6, 9):
        for n in range(15):
            grouped: dict = {}
            for m in range(n % 2, n + 1, 2):
                for p in partitions_of_size(m):
                    grouped.setdefault(block_key(p, delta), []).append(p)
            assert brauer_algebra_blocks(n, delta) == list(grouped.values()), (n, delta)


def test_point_and_brauer_queries_never_transpose(monkeypatch):
    # one label per run shape: empty, row, column, hook, rectangle, staircase
    # and fat hooks, and 10**6-box labels at the CLI cap; the results must
    # not change when Partition.transpose refuses to run
    labels = [
        EMPTY,
        Partition((7,)),
        Partition((1,) * 7),
        Partition((5, 1, 1, 1)),
        Partition((3, 3, 3)),
        Partition((4, 3, 2, 1)),
        Partition((4, 4, 2, 2, 2)),
        Partition((6, 6, 1)),
        Partition((10**6,)),
        Partition((999998, 2)),
    ]
    deltas = (-3, 0, 1, 2, 5)
    expected = {
        (lam, delta): (
            block_key(lam, delta),
            classify_weight_class(lam, delta),
            same_block_report(lam, labels[3], delta),
        )
        for lam in labels
        for delta in deltas
    }
    brauer = {delta: brauer_algebra_blocks(8, delta) for delta in deltas}

    def refuse(self):
        raise AssertionError(f"transposed {self!r}")

    monkeypatch.setattr(Partition, "transpose", refuse)
    for lam in labels:
        for delta in deltas:
            assert (
                block_key(lam, delta),
                classify_weight_class(lam, delta),
                same_block_report(lam, labels[3], delta),
            ) == expected[lam, delta]
            assert same_block(lam, lam, delta)
            assert same_block(lam, labels[3], delta) == expected[lam, delta][2]["same_block"]
    assert {delta: brauer_algebra_blocks(8, delta) for delta in deltas} == brauer


def test_dot_orbit_examples():
    assert dot_orbit_member(EMPTY, Partition((3, 3)), 6, 2)
    assert not dot_orbit_member(EMPTY, Partition((1, 1)), 2, 2)
    assert dot_orbit_member(Partition((2, 1)), Partition((2, 1)), 4, -1)
    assert dot_orbit_member(EMPTY, EMPTY, 0, 3)


def test_dot_orbit_guards():
    with pytest.raises(ValueError, match="length"):
        dot_orbit_member(Partition((1, 1, 1)), EMPTY, 2, 2)
    with pytest.raises(ValueError, match="safety cap"):
        dot_orbit_member(EMPTY, EMPTY, 9, 2)
    with pytest.raises(ValueError, match="integral"):
        dot_orbit_member(EMPTY, EMPTY, 2, Fraction(1, 2))


def test_dot_orbit_matches_sequence_orbits_small():
    parts = enumerate_partitions(3)
    for delta in (-1, 0, 2):
        charge = sector_charge(delta)
        for a in parts:
            for b in parts:
                if (a.size - b.size) % 2 != 0:
                    continue
                expected = same_orbit(make_sequence(a, charge), make_sequence(b, charge))
                n = max(a.size, b.size)
                assert dot_orbit_member(a, b, n, delta) == expected
                assert dot_orbit_member(a, b, n + 2, delta) == expected


def _is_dominant(v) -> bool:
    return len(v) < 2 or (abs(v[0]) <= v[1] and all(x <= y for x, y in zip(v[1:], v[2:])))


def test_dot_dominant_equals_bfs_membership():
    # every ordered pair of labels of size <= n at rank n, delta in -5..6:
    # 17,700 pairs.  Labels are grouped by their descent result, over all
    # deltas at once, and one BFS runs per group: the labels in the closure
    # of the group's first member must be exactly the group, and the
    # closure must hold the descent result.
    for n in range(7):
        labels = [(p, delta) for delta in range(-5, 7) for p in enumerate_partitions(n)]
        vectors = {(p, delta): _shifted_vector(p, n, delta) for p, delta in labels}
        groups: dict = {}
        for p, delta in labels:
            groups.setdefault(dot_dominant(p, n, delta), []).append((p, delta))
        for dominant, group in groups.items():
            closure = _orbit_closure.__wrapped__(vectors[group[0]])
            assert dominant in closure, (n, group[0])
            assert [label for label in labels if vectors[label] in closure] == group, (n, group[0])


def test_dot_dominant_spot_checks_at_rank_7():
    # orbits of 40,320, 40,320 and 80,640 vectors, against 322,560 for a
    # rank-7 orbit without repeated absolute values
    labels = enumerate_partitions(7)
    for delta, start in ((-6, EMPTY), (-5, EMPTY), (-6, Partition((1, 1)))):
        closure = _orbit_closure.__wrapped__(_shifted_vector(start, 7, delta))
        dominant = dot_dominant(start, 7, delta)
        assert [v for v in closure if _is_dominant(v)] == [dominant]
        assert all(_dominant(v) == dominant for v in closure)
        for p in labels:
            assert (_shifted_vector(p, 7, delta) in closure) == (dot_dominant(p, 7, delta) == dominant)


def test_dot_dominant_is_dominant_and_idempotent():
    for n in range(11):
        for delta in range(-7, 9):
            for p in enumerate_partitions(min(n, 8)):
                if len(p.parts) > n:
                    continue
                v = dot_dominant(p, n, delta)
                assert _is_dominant(v), (p, n, delta)
                assert _dominant(v) == v
                assert sorted(map(abs, v)) == sorted(map(abs, _shifted_vector(p, n, delta)))


def test_dot_dominant_examples_and_guards():
    assert dot_dominant(EMPTY, 0, 3) == ()
    assert dot_dominant(EMPTY, 2, 2) == (2, 4)
    assert dot_dominant(Partition((1, 1)), 2, 2) == (0, 2)
    assert dot_dominant(Partition((3, 3)), 6, 2) == dot_dominant(EMPTY, 6, 2)
    assert len(dot_dominant(EMPTY, 40, 2)) == 40
    with pytest.raises(ValueError, match="length"):
        dot_dominant(Partition((1, 1, 1)), 2, 2)
    with pytest.raises(ValueError, match="integral"):
        dot_dominant(EMPTY, 2, Fraction(1, 2))


def test_orbit_check_reaches_past_the_bfs_ranks():
    # sizes <= 6 at ranks up to 8, where the BFS would visit 5.2M vectors per orbit
    result = verify.check_orbit_vs_bfs(6, range(-5, 8))
    assert result.passed, result.counterexample
    assert result.scope == "sizes<=6, delta in [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7], ranks n and n+2"


def test_orbit_check_fails_when_the_criterion_ignores_parity(monkeypatch):
    def abs_multiset_only(s, t):
        w = max(s.length, t.length)
        return sorted(abs(s.entry(k)) for k in range(1, w + 1)) == sorted(
            abs(t.entry(k)) for k in range(1, w + 1)
        )

    monkeypatch.setattr(verify, "same_orbit", abs_multiset_only)
    result = verify.check_orbit_vs_bfs(4, range(-2, 4))
    assert not result.passed
    found = re.fullmatch(
        r"a=\[([\d, ]*)\] b=\[([\d, ]*)\] n=(\d+) delta=(-?\d+): orbit=True descent=False",
        result.counterexample,
    )
    assert found, result.counterexample
    a, b = (Partition(tuple(int(x) for x in g.split(",") if x)) for g in found.group(1, 2))
    n, delta = int(found.group(3)), int(found.group(4))
    # the named pair really lies in two orbits, by the BFS, though its absolute entries agree
    assert not dot_orbit_member(a, b, n, delta)
    charge = sector_charge(delta)
    assert abs_multiset_only(make_sequence(a, charge), make_sequence(b, charge))
    assert verify.check_orbit_vs_bfs(4, range(-2, 4)).counterexample == result.counterexample


def test_same_block_report_fields():
    report = same_block_report(EMPTY, Partition((2, 2, 2)), 2)
    assert report["same_block"] is True
    assert report["reason"] == {
        "semisimple": False,
        "abs_multiset_equal": True,
        "parity_lhs": 0,
        "parity_rhs": 0,
        "zero_entry": False,
    }
    assert report["block_key"] == {"twiceCharge": 0, "devMap": [], "negParity": 0}

    semisimple = same_block_report(EMPTY, EMPTY, Fraction(7, 2))
    assert semisimple["same_block"] is True
    assert semisimple["reason"]["semisimple"] is True
    assert semisimple["block_key"] is None

    zero_case = same_block_report(EMPTY, Partition((2,)), 0)
    assert zero_case["same_block"] is True
    assert zero_case["reason"]["zero_entry"] is True
    assert zero_case["block_key"]["negParity"] == WILDCARD
