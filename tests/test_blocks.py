import gc
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from brauerblocks import blocks, verify
from brauerblocks.blocks import (
    BFS_RANK_CAP,
    _block_members,
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
)
from brauerblocks.central import central_character
from brauerblocks.partitions import Partition, canonical_key, enumerate_partitions, partitions_of_size
from brauerblocks.sequences import (
    WILDCARD,
    make_sequence,
    same_orbit,
    shape_from_entries,
    transpose_has_zero,
    transpose_profile,
)
from brauerblocks.weights import reduce_mod_qtheta, same_bar_weight, weight_alpha_part

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
            zero = transpose_profile(delta - 2, lam.parts)[2]
            assert cls.split == (not zero)
            if cls.split:
                assert same_bar_weight(lam, cls.partner, delta)
                assert not same_block(lam, cls.partner, delta)


def _tail_walk_classify(lam: Partition, delta):
    # the split rule read entry by entry in Fractions: walk the tail until an
    # entry whose negative fits before the first entry, move it to the front
    # with its sign flipped, and read the shape back from the entries
    seq = make_sequence(lam.transpose(), Fraction(delta, 2) - 1)
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


def _seeded_labels(rng: random.Random, low: int, high: int, count: int) -> list[Partition]:
    # count rounds of a hook, a column, a row, a rectangle and a label of a
    # few long runs, each of between low and high boxes
    labels = []
    for _ in range(count):
        n = rng.randint(low, high)
        a = rng.randint(1, n - 1)
        side = rng.randint(2, int(n**0.5))
        labels += [Partition([a] + [1] * (n - a)), Partition([1] * n), Partition([n])]
        labels.append(Partition([side] * (n // side)))
        parts: list[int] = []
        while n:
            p = min(n, rng.randint(1, parts[-1]) if parts else 2 * side)
            run = min(n // p, rng.randint(1, 2 * side))
            parts += [p] * run
            n -= p * run
        labels.append(Partition(parts))
    return labels


def _run_edge_deltas(parts: tuple[int, ...]) -> set[int]:
    # the deltas that put t = -(delta // 2) at x = parts_i - i for the first
    # and the last row i of each run of equal rows, at one step either side,
    # and at the window's end x = -len(parts), odd and even
    xs = [-len(parts)]
    for i, p in enumerate(parts, 1):
        if i == 1 or i == len(parts) or parts[i - 2] != p or parts[i] != p:
            xs.append(p - i)
    return {-2 * (x + step) + odd for x in xs for step in (-1, 0, 1) for odd in (0, 1)}


def test_zero_search_equals_the_profile_flag_at_scale():
    rng = random.Random(20090101)
    labels = _seeded_labels(rng, 100, 10**4, 8)
    labels += [Partition([50] * 200), Partition([100] * 100), Partition([5000] + [1] * 5000)]
    hits = 0
    for lam in labels:
        for delta in _run_edge_deltas(lam.parts):
            zero = transpose_profile(delta - 2, lam.parts)[2]
            assert transpose_has_zero(delta - 2, lam.parts) == zero, (lam.parts[:3], len(lam), delta)
            hits += not zero and delta % 2 == 0 and -(delta // 2) >= -len(lam)
    # the search has to find a row that removes x = t, not only miss them
    assert hits > len(labels)


def test_split_partners_share_the_bar_weight_in_another_dot_orbit():
    # Cox, De Visscher and Martin: two labels lie in one block exactly when
    # their transposes share a dot orbit, at a rank that holds both
    rng = random.Random(13)
    labels = _seeded_labels(rng, 50, 200, 3)
    splits = 0
    for lam in labels:
        for delta in (-6, -2, 0, 2, 4, 8):
            partner = classify_weight_class(lam, delta).partner
            if partner is None:
                continue
            splits += 1
            assert partner.size == sum(partner.parts)
            bar = reduce_mod_qtheta(weight_alpha_part(lam, delta), delta)
            assert reduce_mod_qtheta(weight_alpha_part(partner, delta), delta) == bar, (lam, delta)
            rank = max(lam.part(1), partner.part(1))
            assert dot_dominant(lam.transpose(), rank, delta) != dot_dominant(partner.transpose(), rank, delta)
    assert splits > len(labels)


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


def _transposing_enumeration(lam: Partition, delta, max_size: int) -> list[Partition]:
    # the enumeration read off the sequence of lam's transpose, entry by
    # entry, each member built as the transpose of its sequence's shape
    if max_size < lam.size:
        raise ValueError("max_size must be at least the size of the partition")
    d = Fraction(delta)
    if d.denominator != 1:
        return [lam]
    c2 = d.numerator - 2
    mu = lam.transpose()
    reach = max(len(mu), (max(0, -(c2 + 2 - 2 * mu.part(1))) - c2) // 2)
    entries = [c2 + 2 * (k - mu.part(k)) for k in range(1, reach + 1)]
    present = set(entries)
    free = {v for v in entries if v != 0 and -v not in present}
    free_negative = [-v for v in free if v < 0]
    budget = max_size - lam.size + sum(free_negative)
    tail = range(c2 + 2 * reach + 2, budget + 1, 2)
    base = [v for v in entries if v not in free] + [abs(v) for v in free] + list(tail)
    flippable = sorted(a for a in map(abs, free) if a <= budget) + list(tail)
    parity = None if 0 in present else len(free_negative) % 2
    members: list[Partition] = []

    def visit(start: int, flipped: list[int], room: int) -> None:
        if parity is None or len(flipped) % 2 == parity:
            negated = set(flipped)
            seq = sorted(-v if v in negated else v for v in base)
            parts = [(c2 + 2 * k - e) // 2 for k, e in enumerate(seq, 1)]
            while parts and parts[-1] == 0:
                parts.pop()
            members.append(Partition(parts).transpose())
        for i in range(start, len(flippable)):
            a = flippable[i]
            if a > room:
                break
            flipped.append(a)
            visit(i + 1, flipped, room - a)
            flipped.pop()

    visit(0, [], budget)
    return sorted(members, key=canonical_key)


def test_enumeration_equals_the_transposing_body():
    # every label of size <= 8, seeded labels of 10-60 boxes, and a hook, a
    # row, a column and a staircase, at integral and half-integral delta
    deltas = [*range(-12, 14), Fraction(1, 2), Fraction(-7, 2)]
    cases = [(lam, delta, lam.size + 14) for delta in deltas for lam in enumerate_partitions(8)]
    rng = random.Random(1717)
    labels = _seeded_labels(rng, 10, 60, 4)
    labels += [Partition((20,) + (1,) * 20), Partition((40,)), Partition((1,) * 40), Partition(range(8, 0, -1))]
    for lam in labels:
        size = lam.size
        for delta in (rng.randint(-2 * size, 2 * size), 2 - 2 * len(lam), 2 * lam.part(1), 0, 1, Fraction(5, 2)):
            cases.append((lam, delta, size + rng.randint(0, 12)))
    for lam, delta, bound in cases:
        members = enumerate_block_members(lam, delta, bound)
        assert members == _transposing_enumeration(lam, delta, bound), (lam.parts, delta, bound)
        assert all(mu.size == sum(mu.parts) for mu in members)


def test_enumerated_members_descend_to_the_labels_dominant_vector():
    # Cox, De Visscher and Martin: the members of lam's block are the labels
    # whose transposes share lam's transpose's dot orbit, at a rank that
    # holds every member; the seed gives labels with second members at an
    # even, an odd and a negative delta, about 500 descents in all
    rng = random.Random(1745)
    found = [0, 0, 0]
    for lam in _seeded_labels(rng, 90, 110, 1):
        low, high = -len(lam), lam.part(1)
        deltas = (2 * rng.randint(low, high), 2 * rng.randint(low, high) + 1, rng.randint(2 * low, -1))
        for kind, delta in enumerate(deltas):
            members = enumerate_block_members(lam, delta, lam.size + rng.randint(8, 12))
            rank = max(mu.size for mu in members) + 2
            dominant = dot_dominant(lam.transpose(), rank, delta)
            for mu in members:
                assert dot_dominant(mu.transpose(), rank, delta) == dominant, (lam.parts[:3], mu.parts[:3], delta)
            found[kind] += len(members) - 1
    assert min(found) > 0 and sum(found) > 500


def test_member_search_yields_the_enumerated_members():
    # every label of size <= 7 at 22 deltas and 3 bounds: 2,970 cases
    cases = [
        (lam, delta, lam.size + extra)
        for lam in enumerate_partitions(7)
        for delta in [*range(-9, 12), Fraction(1, 2)]
        for extra in (0, 6, 12)
    ]
    assert len(cases) == 2970
    for lam, delta, bound in cases:
        drawn = list(_block_members(lam, delta, bound))
        members = enumerate_block_members(lam, delta, bound)
        assert Counter(drawn) == Counter(members), (lam.parts, delta, bound)
        assert members == sorted(drawn, key=canonical_key), (lam.parts, delta, bound)


def test_enumeration_refuses_a_small_bound_before_any_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr("brauerblocks.blocks._block_members", refuse)
    with pytest.raises(ValueError, match="max_size must be at least"):
        enumerate_block_members(Partition((2, 2)), 2, 3)
    with pytest.raises(ValueError, match="max_size must be at least"):
        enumerate_block_members(Partition((2, 2)), Fraction(1, 2), 3)


def test_block_growth_draws_at_most_two_members(monkeypatch):
    drawn = Counter()

    def counting(lam, delta, max_size):
        for mu in _block_members(lam, delta, max_size):
            drawn[lam, delta] += 1
            yield mu

    monkeypatch.setattr(verify, "_block_members", counting)
    deltas = range(-2, 5)
    assert verify.check_block_growth(4, deltas).passed
    assert drawn == Counter({(lam, delta): 2 for lam in enumerate_partitions(4) for delta in deltas})


def test_block_growth_shortfalls_beyond_the_window():
    # the nearest second member lies more than the window above the label
    assert verify._growth_shortfall(5, range(-3, 6)) == "lam=[2, 2, 1] delta=4: only 1 member(s) within size 21"
    assert verify._growth_shortfall(6, range(-3, 6)) == "lam=[6] delta=-3: only 1 member(s) within size 22"


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
    # at the wide deltas no two positions share an absolute value, so every
    # position the walk can touch is a slot of its own
    for delta in [*range(-6, 9), 999, -999, 10**6, -(10**6)]:
        for n in range(17):
            grouped: dict = {}
            for m in range(n % 2, n + 1, 2):
                for p in partitions_of_size(m):
                    grouped.setdefault(block_key(p, delta), []).append(p)
            assert brauer_algebra_blocks(n, delta) == list(grouped.values()), (n, delta)


def test_brauer_algebra_blocks_equal_the_descent_grouping():
    # Cox, De Visscher and Martin: two labels of sizes n, n - 2, ... lie in
    # one block of the rank-n Brauer algebra exactly when their transposes
    # share a rank-n dot orbit, which the descent oracle decides
    for delta in range(-6, 9):
        for n in range(13):
            grouped: dict = {}
            for m in range(n % 2, n + 1, 2):
                for p in partitions_of_size(m):
                    grouped.setdefault(dot_dominant(p.transpose(), n, delta), []).append(p)
            assert brauer_algebra_blocks(n, delta) == list(grouped.values()), (n, delta)


def test_brauer_algebra_blocks_equal_the_descent_grouping_at_scale():
    # long runs of 1s, many rows below t and ranks where the walk's low
    # field needs its every bit, against the same oracle as above
    for n, delta in ((24, -4), (24, 0), (24, 2), (23, -1), (23, 7)):
        grouped: dict = {}
        for m in range(n % 2, n + 1, 2):
            for p in partitions_of_size(m):
                grouped.setdefault(dot_dominant(p.transpose(), n, delta), []).append(p)
        assert brauer_algebra_blocks(n, delta) == list(grouped.values()), (n, delta)


def test_brauer_algebra_blocks_hold_off_the_cyclic_collector():
    # the walk leaves about 2 700 objects alive at n = 18, past the collector's
    # threshold of 700, yet the only collection inside it is the one young
    # collection it runs at the end; a caller's disabled collector stays off
    expected = brauer_algebra_blocks(18, 2)
    seen = []

    def note(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(note)
    try:
        assert brauer_algebra_blocks(18, 2) == expected
        assert seen == [0]
        seen.clear()
        gc.disable()
        try:
            assert brauer_algebra_blocks(18, 2) == expected
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == []
    finally:
        gc.callbacks.remove(note)


def test_brauer_algebra_blocks_are_fresh_on_every_call():
    # no result is kept between calls: mutating one leaves the next as built
    first, second = brauer_algebra_blocks(12, 2), brauer_algebra_blocks(12, 2)
    kept = [list(group) for group in second]
    first[0].append(Partition((5,)))
    first.append([EMPTY])
    assert second == kept == brauer_algebra_blocks(12, 2)
    assert all(a is not b for a, b in zip(first, second))


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
    small = labels[:8]
    members = {(lam, delta): enumerate_block_members(lam, delta, lam.size + 8) for lam in small for delta in deltas}

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

    # no point query re-checks a label, nor the split partner it writes, and
    # the enumeration writes its members' rows without a check or a transpose
    def refuse_check(self, parts=()):
        raise AssertionError(f"checked {parts!r}")

    monkeypatch.setattr(Partition, "__init__", refuse_check)
    for lam in labels:
        for delta in deltas:
            assert block_key(lam, delta) == expected[lam, delta][0]
            assert classify_weight_class(lam, delta) == expected[lam, delta][1]
            assert same_block(lam, labels[3], delta) == expected[lam, delta][2]["same_block"]
    for (lam, delta), found in members.items():
        assert enumerate_block_members(lam, delta, lam.size + 8) == found

    # the blocks of the Brauer algebra and the weight-class split never key
    # a label from scratch
    def refuse_key(*args):
        raise AssertionError("keyed a label from scratch")

    monkeypatch.setattr("brauerblocks.blocks.transpose_profile", refuse_key)
    monkeypatch.setattr("brauerblocks.sequences.transpose_profile", refuse_key)
    assert {delta: brauer_algebra_blocks(8, delta) for delta in deltas} == brauer
    for lam in labels:
        for delta in deltas:
            assert classify_weight_class(lam, delta) == expected[lam, delta][1]


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


def test_bfs_cap_boundary(monkeypatch):
    # a real rank-8 orbit has up to 8! * 2**7 vectors, so the closure is a stub
    starts = []

    def closure(start):
        starts.append(start)
        return frozenset({start})

    monkeypatch.setattr(blocks, "_orbit_closure", closure)
    assert BFS_RANK_CAP == 8
    assert dot_orbit_member(EMPTY, EMPTY, 8, 2)
    assert [len(start) for start in starts] == [8]
    with pytest.raises(ValueError, match="^rank 9 exceeds the safety cap 8$"):
        dot_orbit_member(EMPTY, EMPTY, 9, 2)
    assert len(starts) == 1


def _delta_readers(lam: Partition, mu: Partition) -> dict:
    # every block query that reads delta, as a function of delta alone
    return {
        "same_block": lambda d: same_block(lam, mu, d),
        "same_block_report": lambda d: same_block_report(lam, mu, d),
        "block_key": lambda d: block_key(lam, d),
        "classify_weight_class": lambda d: classify_weight_class(lam, d),
        "enumerate_block_members": lambda d: enumerate_block_members(lam, d, lam.size + 6),
        "brauer_algebra_blocks": lambda d: brauer_algebra_blocks(lam.size, d),
        "dot_dominant": lambda d: dot_dominant(lam.transpose(), lam.size + 2, d),
        "same_bar_weight": lambda d: same_bar_weight(lam, mu, d),
    }


# the error each query that needs an integral delta raises for any other
NON_INTEGRAL_ERRORS = {
    "block_key": "block keys require integral delta",
    "classify_weight_class": "weight-class classification requires integral delta",
    "brauer_algebra_blocks": "Brauer-algebra blocks require integral delta",
    "dot_dominant": "the orbit oracle requires integral delta",
    "same_bar_weight": "weights require integral delta",
}

DELTA_LABELS = [EMPTY, Partition((1,)), Partition((2, 1)), Partition((2, 2)), Partition((3, 1, 1))]


def test_delta_as_int_fraction_or_float_gives_one_answer():
    # repr tells an int field from an equal float or Fraction one
    for lam in DELTA_LABELS:
        for mu in DELTA_LABELS:
            for name, read in _delta_readers(lam, mu).items():
                for delta in (-3, -2, 0, 1, 2, 5):
                    want = repr(read(delta))
                    assert repr(read(Fraction(delta))) == want, (name, lam, mu, delta)
                    assert repr(read(float(delta))) == want, (name, lam, mu, delta)


def test_half_integral_delta_is_semisimple_or_refused():
    semisimple = {
        "semisimple": True,
        "abs_multiset_equal": None,
        "parity_lhs": None,
        "parity_rhs": None,
        "zero_entry": None,
    }
    answered = {"same_block", "same_block_report", "enumerate_block_members"}
    assert answered | set(NON_INTEGRAL_ERRORS) == set(_delta_readers(EMPTY, EMPTY))
    for lam in DELTA_LABELS:
        for mu in DELTA_LABELS:
            readers = _delta_readers(lam, mu)
            for delta in (Fraction(5, 2), Fraction(-1, 2), 2.5, -0.5, Fraction(7, 3)):
                assert readers["same_block"](delta) is (lam == mu)
                report = {"same_block": lam == mu, "block_key": None, "reason": semisimple}
                assert readers["same_block_report"](delta) == report
                assert readers["enumerate_block_members"](delta) == [lam]
                for name, message in NON_INTEGRAL_ERRORS.items():
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        readers[name](delta)


def test_dot_orbit_matches_sequence_orbits_small():
    parts = enumerate_partitions(3)
    for delta in (-1, 0, 2):
        charge = Fraction(delta, 2) - 1
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


def _d_orbit(v: tuple[int, ...]) -> set:
    # W(D_n) = S_n semidirect (Z/2)^(n-1) (Humphreys, Reflection Groups and
    # Coxeter Groups, ch. 2): the orbit of v is every permutation of every
    # change of an even number of its signs
    variants = {
        tuple(sorted(s * x for s, x in zip(signs, v)))
        for signs in product((1, -1), repeat=len(v))
        if signs.count(-1) % 2 == 0
    }
    return {w for u in variants for w in permutations(u)}


def test_dot_dominant_equals_bfs_membership():
    # every ordered pair of labels of size <= n at rank n, delta in -5..6:
    # 17,700 pairs.  Labels are grouped by their descent result, over all
    # deltas at once, and one orbit is built per group: the labels in the
    # orbit of the group's first member must be exactly the group, and the
    # orbit must hold the descent result.  Up to rank 4 the orbit is also
    # the BFS closure from the generators, which certifies the generator set.
    for n in range(7):
        labels = [(p, delta) for delta in range(-5, 7) for p in enumerate_partitions(n)]
        vectors = {(p, delta): _shifted_vector(p, n, delta) for p, delta in labels}
        groups: dict = {}
        for p, delta in labels:
            groups.setdefault(dot_dominant(p, n, delta), []).append((p, delta))
        for dominant, group in groups.items():
            orbit = _d_orbit(vectors[group[0]])
            if n <= 4:
                assert orbit == _orbit_closure.__wrapped__(vectors[group[0]]), (n, group[0])
            assert dominant in orbit, (n, group[0])
            assert [label for label in labels if vectors[label] in orbit] == group, (n, group[0])


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
    real_profile = verify.transpose_profile

    def deviations_only(c2, parts):
        # the orbit key without its parity tag
        (deviations, _), negatives, zero = real_profile(c2, parts)
        return (deviations, None), negatives, zero

    def abs_multiset_only(s, t):
        w = max(s.length, t.length)
        return sorted(abs(s.entry(k)) for k in range(1, w + 1)) == sorted(
            abs(t.entry(k)) for k in range(1, w + 1)
        )

    monkeypatch.setattr(verify, "transpose_profile", deviations_only)
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
    charge = Fraction(delta, 2) - 1
    assert abs_multiset_only(make_sequence(a, charge), make_sequence(b, charge))
    assert verify.check_orbit_vs_bfs(4, range(-2, 4)).counterexample == result.counterexample


def test_orbit_check_fails_when_the_key_counts_negatives(monkeypatch):
    # a key finer than the orbit: equal keys still mean one orbit, so only
    # the scan of descent classes can report it
    real_profile = verify.transpose_profile

    def exact_count(c2, parts):
        (deviations, _), negatives, zero = real_profile(c2, parts)
        return (deviations, negatives), negatives, zero

    monkeypatch.setattr(verify, "transpose_profile", exact_count)
    result = verify.check_orbit_vs_bfs(4, range(-2, 4))
    found = re.fullmatch(
        r"a=\[([\d, ]*)\] b=\[([\d, ]*)\] n=(\d+) delta=(-?\d+): orbit=False descent=True",
        result.counterexample,
    )
    assert found, result.counterexample
    a, b = (Partition(tuple(int(x) for x in g.split(",") if x)) for g in found.group(1, 2))
    n, delta = int(found.group(3)), int(found.group(4))
    # one orbit by the BFS, though the two transposes have different negative counts
    assert dot_orbit_member(a, b, n, delta)
    assert real_profile(delta - 2, a.transpose().parts)[1] != real_profile(delta - 2, b.transpose().parts)[1]


PAIR = r"lam=\[([\d, ]*)\] mu=\[([\d, ]*)\] delta=(-?\d+): "


def _named_pair(pattern: str, counterexample: str):
    """The labels and delta a counterexample names, and its other groups."""
    found = re.fullmatch(PAIR + pattern, counterexample)
    assert found, counterexample
    lam, mu = (Partition(tuple(int(x) for x in g.split(",") if x)) for g in found.group(1, 2))
    return lam, mu, int(found.group(3)), found.groups()[3:]


def test_central_check_fails_when_one_character_is_read_at_another_delta(monkeypatch):
    target = Partition((2, 1))

    def shifted(lam, delta):
        return central_character(lam, delta + 2 if lam == target else delta)

    monkeypatch.setattr(verify, "central_character", shifted)
    result = verify.check_central_vs_bar_weight(4, range(-3, 6))
    assert not result.passed
    lam, mu, delta, (claim,) = _named_pair(
        "(bar-weight equal, characters differ|characters equal, bar-weights differ)", result.counterexample
    )
    # recomputed without the patch: the mutant reading splits one relation from the other
    bar_eq = same_bar_weight(lam, mu, delta)
    char_eq = shifted(lam, delta) == shifted(mu, delta)
    assert (bar_eq, char_eq) == ((True, False) if claim.startswith("bar") else (False, True))
    assert delta % 2 == 0 or bar_eq


def test_central_check_fails_when_every_character_is_the_same(monkeypatch):
    # equal bar-weights still imply equal characters; only the converse, at
    # even delta, can report this mutant
    monkeypatch.setattr(verify, "central_character", lambda lam, delta: central_character(EMPTY, delta))
    result = verify.check_central_vs_bar_weight(4, range(-3, 6))
    lam, mu, delta, _ = _named_pair("characters equal, bar-weights differ", result.counterexample)
    assert delta % 2 == 0 and not same_bar_weight(lam, mu, delta)


def _parity_always(lam, delta):
    # finer than the blocks: no wildcard
    key = block_key(lam, delta)
    if key.neg_parity != WILDCARD:
        return key
    return key._replace(neg_parity=transpose_profile(delta - 2, lam.parts)[1] % 2)


def _no_deviations(lam, delta):
    # coarser than the blocks, across bar-weight classes: only the scan of
    # key classes can report it
    return block_key(lam, delta)._replace(deviations=())


@pytest.mark.parametrize("mutant", [_parity_always, _no_deviations], ids=["wildcard", "deviations"])
def test_key_check_fails_when_the_key_drops_a_field(monkeypatch, mutant):
    monkeypatch.setattr(verify, "block_key", mutant)
    result = verify.check_key_consistency(6, range(-3, 6))
    assert not result.passed
    lam, mu, delta, (key_eq, rule) = _named_pair("key equality (True|False), rule (True|False)", result.counterexample)
    # the reported key equality is the mutant's; the reported rule is the unpatched key equality
    assert key_eq == str(mutant(lam, delta) == mutant(mu, delta))
    assert rule == str(block_key(lam, delta) == block_key(mu, delta)) != key_eq


def test_key_check_fails_when_one_label_gets_a_key_of_its_own(monkeypatch):
    # (2, 1, 1) is reported only by the scan of refined classes (bar-weight
    # and parity); the bar-weight and key scans alone miss it
    deltas = range(-3, 6)
    labels = enumerate_partitions(4)
    for target in labels:
        def own_key(lam, delta):
            key = block_key(lam, delta)
            return key._replace(deviations=key.deviations + ((-1, 1),)) if lam == target else key

        monkeypatch.setattr(verify, "block_key", own_key)
        result = verify.check_key_consistency(4, deltas)
        shared = any(block_key(target, d) == block_key(mu, d) for d in deltas for mu in labels if mu != target)
        assert result.passed == (not shared), target
        if shared:
            lam, mu, delta, _ = _named_pair("key equality False, rule True", result.counterexample)
            assert target in (lam, mu) and lam != mu
            assert block_key(lam, delta) == block_key(mu, delta)


def test_key_check_fails_exactly_when_a_wrong_zero_flag_changes_the_rule(monkeypatch):
    # a zero flag that varies inside a bar-weight class is reported by the
    # scan of bar-weight classes; the refined and key scans alone miss it
    deltas = range(-3, 6)
    labels = enumerate_partitions(4)

    def rule(lam, mu, delta, zero) -> bool:
        if not same_bar_weight(lam, mu, delta):
            return False
        negatives = [transpose_profile(delta - 2, p.parts)[1] % 2 for p in (lam, mu)]
        return delta % 2 != 0 or negatives[0] == negatives[1] or zero(lam, delta) or zero(mu, delta)

    for target in labels:
        def flipped(c2, parts):
            key, negatives, zero = transpose_profile(c2, parts)
            return key, negatives, zero != (parts == target.parts)

        def true_zero(lam, delta):
            return transpose_profile(delta - 2, lam.parts)[2]

        def mutant_zero(lam, delta):
            return flipped(delta - 2, lam.parts)[2]

        monkeypatch.setattr(verify, "transpose_profile", flipped)
        result = verify.check_key_consistency(4, deltas)
        changed = any(
            rule(target, mu, d, true_zero) != rule(target, mu, d, mutant_zero) for d in deltas for mu in labels
        )
        assert result.passed == (not changed), target
        if changed:
            lam, mu, delta, _ = _named_pair("key equality False, rule True", result.counterexample)
            assert block_key(lam, delta) != block_key(mu, delta)
            assert rule(lam, mu, delta, mutant_zero)


def test_key_check_reports_a_flipped_parity_on_every_small_label():
    for target in enumerate_partitions(4):
        result = verify.check_key_consistency(4, range(-3, 6), flip_parity_of=target)
        assert not result.passed, target
        if "planted at no delta" in result.counterexample:
            assert all(block_key(target, d).neg_parity == WILDCARD for d in range(-3, 6))
            continue
        lam, mu, delta, _ = _named_pair("key equality False, rule True", result.counterexample)
        assert lam == mu == target
        assert block_key(target, delta).neg_parity != WILDCARD
    # at delta = 2, (2, 2, 2) shares the key of () and so is the first of no
    # class: only the comparison of each left key with its own reports it
    result = verify.check_key_consistency(6, [2], flip_parity_of=Partition((2, 2, 2)))
    assert result.counterexample == "lam=[2, 2, 2] mu=[2, 2, 2] delta=2: key equality False, rule True"


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
