"""Cross-check matrix: every fast criterion against an independent route.

Each check compares two computations that share no code path: the sequence
orbit criterion against reflection descent to the dominant vector of the
dot action, the reduced weight classes against canonical central
characters, the wedge operators against a row-level box-move rule, and the
factored rational functions against direct evaluation of their defining
products.  The breadth-first dot-orbit oracle is not run here: it backs the
``dot-orbit`` subcommand and certifies the descent in the tests.  A check
returns a :class:`CheckResult` carrying the first counterexample found, so
failures are reproducible inputs rather than booleans.

`run_verify` executes the whole matrix at a requested scale (sizes are
clamped to each check's documented bound) and is the engine behind the
``verify`` CLI subcommand.  The fault-injection mode tampers with one
parity tag on one side of the key-consistency comparison; a healthy build
must report the planted counterexample.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .blocks import (
    BFS_RANK_CAP,
    block_key,
    classify_weight_class,
    dot_dominant,
    enumerate_block_members,
    same_block,
    sector_charge,
)
from .central import (
    FactoredRational,
    brauer_gammas,
    central_character,
    centrally_equivalent,
    check_admissible,
    check_reflection_product,
    gamma_factor,
    weight_of_rational,
)
from .partitions import HALF, Partition, canonical_key, enumerate_partitions, half
from .sequences import make_sequence, same_orbit
from .wedge import WedgeVector, apply_b, relative_weight
from .weights import (
    alpha_in_omega,
    reduce_mod_qtheta,
    same_bar_weight,
    vector_diff,
    weight_alpha_part,
)


@dataclass
class CheckResult:
    name: str
    scope: str
    passed: bool
    counterexample: str | None
    elapsed: float


def _result(name, scope, started, counterexample) -> CheckResult:
    return CheckResult(name, scope, counterexample is None, counterexample, time.perf_counter() - started)


def _deltas(lo: int, hi: int) -> list[int]:
    return list(range(lo, hi + 1))


def check_witness_pair() -> CheckResult:
    """delta=1, (2,2) vs (2,1): equal central characters -(u-1/2)(u+1/2),
    distinct bar-weights, with the weight difference in the class of the
    negated zero-indexed simple root."""
    started = time.perf_counter()
    lam, mu = Partition((2, 2)), Partition((2, 1))
    want = FactoredRational.from_parts(Fraction(-1), {HALF: 1, -HALF: 1})
    fail = None
    if central_character(lam, 1) != want or central_character(mu, 1) != want:
        fail = "central characters are not -(u-1/2)(u+1/2)"
    elif not centrally_equivalent(lam, mu, 1):
        fail = "central equivalence fails"
    elif same_bar_weight(lam, mu, 1):
        fail = "bar-weights unexpectedly agree"
    else:
        diff = vector_diff(weight_alpha_part(mu, 1), weight_alpha_part(lam, 1))
        cls = reduce_mod_qtheta(diff, 1)
        neg_alpha0 = reduce_mod_qtheta({Fraction(0): -1}, 1)
        if cls != neg_alpha0 or cls.is_zero:
            fail = f"weight-difference class is {cls}, expected the class of -alpha_0"
    return _result("witness-pair", "delta=1, (2,2) vs (2,1)", started, fail)


def _orbit_mismatch(delta: int, size_cap: int) -> str | None:
    charge = sector_charge(delta)
    parts = enumerate_partitions(size_cap)
    dominant: dict[tuple[Partition, int], tuple[int, ...]] = {}

    def descend(p: Partition, n: int) -> tuple[int, ...]:
        if (p, n) not in dominant:
            dominant[p, n] = dot_dominant(p, n, delta)
        return dominant[p, n]

    for a in parts:
        partners = [
            b
            for b in parts
            if (b.size - a.size) % 2 == 0 and canonical_key(b) >= canonical_key(a)
        ]
        buckets: dict[int, list[Partition]] = {}
        for b in partners:
            buckets.setdefault(max(a.size, b.size), []).append(b)
        for n0 in sorted(buckets):
            for b in buckets[n0]:
                expected = same_orbit(make_sequence(a, charge), make_sequence(b, charge))
                for n in (n0, n0 + 2):
                    got = descend(a, n) == descend(b, n)
                    if got != expected:
                        return (
                            f"a={list(a.parts)} b={list(b.parts)} n={n} delta={delta}: "
                            f"orbit={expected} descent={got}"
                        )
    return None


def check_orbit_vs_bfs(max_size: int, deltas) -> CheckResult:
    """Sequence-orbit decision == dot-orbit membership, decided by descent to
    the dominant vector, for all equal-size-parity pairs, at rank max size
    and max size + 2.  The name is kept for report stability; the BFS oracle
    certifies the descent in the tests."""
    started = time.perf_counter()
    size_cap = min(max_size, BFS_RANK_CAP - 2)
    fail = None
    for delta in deltas:
        fail = _orbit_mismatch(delta, size_cap)
        if fail:
            break
    scope = f"sizes<={size_cap}, delta in {list(deltas)}, ranks n and n+2"
    return _result("orbit-vs-dot-bfs", scope, started, fail)


def check_sequence_weight_bridge(max_size: int, deltas) -> CheckResult:
    """relative_weight of the transposed sequence == negated alpha-part of
    the label's weight."""
    started = time.perf_counter()
    fail = None
    parts = enumerate_partitions(max_size)
    for delta in deltas:
        charge = sector_charge(delta)
        for lam in parts:
            rel = relative_weight(make_sequence(lam.transpose(), charge))
            expected = {k: -c for k, c in weight_alpha_part(lam, delta).items()}
            if rel != expected:
                fail = f"lam={list(lam.parts)} delta={delta}: {rel} != {expected}"
                break
        if fail:
            break
    scope = f"sizes<={max_size}, delta in {list(deltas)}"
    return _result("sequence-weight-bridge", scope, started, fail)


def check_split_counts(max_size: int, deltas) -> CheckResult:
    """Each bar-weight class carries exactly two block keys when delta is
    even and no zero entry occurs (the second realised by the classification
    partner, whose size may exceed the window), exactly one otherwise."""
    started = time.perf_counter()
    fail = None
    parts = enumerate_partitions(max_size)
    for delta in deltas:
        charge = sector_charge(delta)
        classes: dict = {}
        for lam in parts:
            sym = reduce_mod_qtheta(weight_alpha_part(lam, delta), delta)
            classes.setdefault(sym, []).append(lam)
        for sym, members in classes.items():
            zero = make_sequence(members[0].transpose(), charge).has_zero_entry()
            keys = {block_key(lam, delta) for lam in members}
            single_expected = delta % 2 != 0 or zero
            for lam in members:
                cls = classify_weight_class(lam, delta)
                if cls.split == single_expected:
                    fail = f"lam={list(lam.parts)} delta={delta}: classification disagrees with the zero/parity rule"
                    break
                if cls.split:
                    if not same_bar_weight(lam, cls.partner, delta):
                        fail = f"lam={list(lam.parts)} delta={delta}: partner changes the bar-weight"
                        break
                    if same_block(lam, cls.partner, delta):
                        fail = f"lam={list(lam.parts)} delta={delta}: partner lies in the same block"
                        break
            if fail:
                break
            if single_expected:
                if len(keys) != 1:
                    fail = f"delta={delta}, class of {list(members[0].parts)}: {len(keys)} keys, expected 1"
                    break
            else:
                partner = classify_weight_class(members[0], delta).partner
                keys_with_partner = keys | {block_key(partner, delta)}
                if len(keys_with_partner) != 2:
                    fail = (
                        f"delta={delta}, class of {list(members[0].parts)}: "
                        f"{len(keys_with_partner)} keys, expected 2"
                    )
                    break
        if fail:
            break
    scope = f"sizes<={max_size}, delta in {list(deltas)}"
    return _result("weight-class-split-counts", scope, started, fail)


def check_central_vs_bar_weight(max_size: int, deltas) -> CheckResult:
    """Equal bar-weight implies equal central character; for even delta the
    converse holds as well."""
    started = time.perf_counter()
    fail = None
    parts = enumerate_partitions(max_size)
    for delta in deltas:
        sym = {lam: reduce_mod_qtheta(weight_alpha_part(lam, delta), delta) for lam in parts}
        char = {lam: central_character(lam, delta) for lam in parts}
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                bar_eq = sym[lam] == sym[mu]
                cen_eq = char[lam] == char[mu]
                if bar_eq and not cen_eq:
                    fail = f"lam={list(lam.parts)} mu={list(mu.parts)} delta={delta}: bar-weight equal, characters differ"
                    break
                if delta % 2 == 0 and cen_eq and not bar_eq:
                    fail = f"lam={list(lam.parts)} mu={list(mu.parts)} delta={delta}: characters equal, bar-weights differ"
                    break
            if fail:
                break
        if fail:
            break
    scope = f"sizes<={max_size}, delta in {list(deltas)}"
    return _result("bar-weight-vs-central-character", scope, started, fail)


def check_series_product(deltas, order: int) -> CheckResult:
    """The reflection-product identity holds for the Brauer parameter family
    and breaks under a single-coefficient perturbation."""
    started = time.perf_counter()
    fail = None
    for delta in deltas:
        gammas = brauer_gammas(delta, order + 1)
        if not check_reflection_product(gammas, order):
            fail = f"delta={delta}: identity fails at order {order}"
            break
        if order >= 1:
            perturbed = list(gammas)
            perturbed[1] += 1
            if check_reflection_product(perturbed, order):
                fail = f"delta={delta}: perturbed coefficients pass the identity"
                break
    scope = f"delta in {list(deltas)}, order {order}"
    return _result("series-reflection-product", scope, started, fail)


def check_admissibility(deltas, order: int) -> CheckResult:
    """The odd-index recursion holds for the Brauer parameter family and a
    planted violation at k=1 is detected."""
    started = time.perf_counter()
    fail = None
    for delta in deltas:
        gammas = brauer_gammas(delta, order + 1)
        if not check_admissible(gammas, order):
            fail = f"delta={delta}: recursion fails below order {order}"
            break
        if order >= 1:
            planted = list(gammas)
            planted[1] += 1
            if check_admissible(planted, order):
                fail = f"delta={delta}: planted violation at k=1 not detected"
                break
    scope = f"delta in {list(deltas)}, odd k <= {order}"
    return _result("parameter-admissibility", scope, started, fail)


def _expected_box_moves(shape: Partition, charge: Fraction, index: Fraction) -> list[Partition]:
    """Row-level oracle for the action of b_index on a basis sequence: remove
    the box in the row whose entry equals index - 1/2 when the row stays
    weakly decreasing, and add a box in the row whose entry equals
    -index + 1/2 under the same proviso."""
    out: list[Partition] = []
    remove_at = index - HALF
    add_at = -index + HALF
    for k in range(1, len(shape) + 1):
        if charge + k - shape.part(k) == remove_at and shape.part(k) > shape.part(k + 1):
            parts = list(shape.parts)
            parts[k - 1] -= 1
            out.append(Partition([p for p in parts if p > 0]))
    for k in range(1, len(shape) + 2):
        if charge + k - shape.part(k) == add_at and (k == 1 or shape.part(k - 1) > shape.part(k)):
            parts = list(shape.parts)
            while len(parts) < k:
                parts.append(0)
            parts[k - 1] += 1
            out.append(Partition(parts))
    return out


def check_box_moves(max_size: int, deltas, index_bound: int = 10) -> CheckResult:
    """apply_b output shapes match the row-level add/remove oracle, each term
    has coefficient 1 and differs from the input by one box, and its weight
    shift is +alpha_i (raising) or -alpha_{-i} (lowering), the two options
    agreeing modulo the symmetrised sublattice."""
    started = time.perf_counter()
    fail = None
    for delta in deltas:
        charge = sector_charge(delta)
        tw_parity = (delta - 1) % 2
        indices = [half(t) for t in range(-2 * index_bound, 2 * index_bound + 1) if t % 2 == tw_parity]
        for shape in enumerate_partitions(max_size):
            seq = make_sequence(shape, charge)
            base_weight = relative_weight(seq)
            for i in indices:
                result = apply_b(i, WedgeVector.basis(seq))
                got = sorted(
                    (tuple(s.shape.parts) for s in result.terms),
                    key=lambda t: (sum(t), t),
                )
                expected = sorted(
                    (tuple(p.parts) for p in _expected_box_moves(shape, charge, i)),
                    key=lambda t: (sum(t), t),
                )
                if got != expected:
                    fail = f"shape={list(shape.parts)} i={i} delta={delta}: terms {got} != oracle {expected}"
                    break
                allowed = ({Fraction(i): 1}, {-Fraction(i): -1})
                if not reduce_mod_qtheta(vector_diff(allowed[0], allowed[1]), delta).is_zero:
                    fail = f"i={i} delta={delta}: the two shift options differ modulo the sublattice"
                    break
                for seq_out, coeff in result.terms.items():
                    if coeff != 1:
                        fail = f"shape={list(shape.parts)} i={i} delta={delta}: coefficient {coeff}"
                        break
                    if abs(seq_out.shape.size - shape.size) != 1:
                        fail = f"shape={list(shape.parts)} i={i} delta={delta}: size changes by more than one box"
                        break
                    shift = vector_diff(relative_weight(seq_out), base_weight)
                    if shift not in allowed:
                        fail = f"shape={list(shape.parts)} i={i} delta={delta}: weight shift {shift}"
                        break
                if fail:
                    break
            if fail:
                break
        if fail:
            break
    scope = f"sizes<={max_size}, |i|<={index_bound}, delta in {list(deltas)}"
    return _result("wedge-box-moves", scope, started, fail)


def check_block_growth(max_size: int, deltas, window: int = 16) -> CheckResult:
    """Every block meets the enumeration window at least twice: desk-scale
    evidence that blocks keep growing."""
    started = time.perf_counter()
    fail = None
    for delta in deltas:
        for lam in enumerate_partitions(max_size):
            members = enumerate_block_members(lam, delta, lam.size + window)
            if len(members) < 2:
                fail = f"lam={list(lam.parts)} delta={delta}: only {len(members)} member(s) within size {lam.size + window}"
                break
        if fail:
            break
    scope = f"sizes<={max_size}, delta in {list(deltas)}, window +{window}"
    return _result("block-growth", scope, started, fail)


def check_rational_weight(twice_bound: int = 9) -> CheckResult:
    """weight(gamma_a) == alpha_a - alpha_{-a} in fundamental-weight
    coordinates, across integer and half-integer a."""
    started = time.perf_counter()
    fail = None
    for t in range(-twice_bound, twice_bound + 1):
        a = half(t)
        got = weight_of_rational(gamma_factor(a))
        expected = vector_diff(alpha_in_omega(a), alpha_in_omega(-a))
        if got != expected:
            fail = f"a={a}: {got} != {expected}"
            break
    return _result("rational-function-weight", f"twice(a) in [-{twice_bound}..{twice_bound}]", started, fail)


def check_key_consistency(max_size: int, deltas, flip_parity_of: Partition | None = None) -> CheckResult:
    """Key equality == bar-weight equality refined by the parity/zero rule.

    flip_parity_of plants a fault: the left key of that label gets its
    parity tag flipped, which a healthy comparison must report.
    """
    started = time.perf_counter()
    fail = None
    parts = enumerate_partitions(max_size)
    for delta in deltas:
        charge = sector_charge(delta)
        keys = {lam: block_key(lam, delta) for lam in parts}
        sym = {lam: reduce_mod_qtheta(weight_alpha_part(lam, delta), delta) for lam in parts}
        seqs = [make_sequence(lam.transpose(), charge) for lam in parts]
        parity = {lam: s.negative_count() % 2 for lam, s in zip(parts, seqs)}
        zeros = {lam: s.has_zero_entry() for lam, s in zip(parts, seqs)}
        lhs_keys = dict(keys)
        if flip_parity_of is not None and flip_parity_of in lhs_keys:
            original = lhs_keys[flip_parity_of]
            if original.neg_parity in (0, 1):
                lhs_keys[flip_parity_of] = type(original)(
                    original.charge, original.deviations, 1 - original.neg_parity
                )
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                key_eq = lhs_keys[lam] == keys[mu]
                bar_eq = sym[lam] == sym[mu]
                if delta % 2 != 0:
                    expected = bar_eq
                else:
                    parity_eq = parity[lam] == parity[mu]
                    zero = zeros[lam] or zeros[mu]
                    expected = bar_eq and (parity_eq or zero)
                if key_eq != expected:
                    fail = (
                        f"lam={list(lam.parts)} mu={list(mu.parts)} delta={delta}: "
                        f"key equality {key_eq}, rule {expected}"
                    )
                    break
            if fail:
                break
        if fail:
            break
    scope = f"sizes<={max_size}, delta in {list(deltas)}"
    return _result("key-consistency", scope, started, fail)


def run_verify(
    max_size: int = 5,
    delta_lo: int = -3,
    delta_hi: int = 5,
    order: int = 24,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """The full matrix at the requested scale.  Each check clamps the size to
    its own documented bound; the delta range and the truncation order apply
    as given."""
    deltas = _deltas(delta_lo, delta_hi)
    fault = Partition((1,)) if inject_fault else None
    return [
        check_witness_pair(),
        check_orbit_vs_bfs(min(max_size, 5), deltas),
        check_sequence_weight_bridge(min(max_size, 10), deltas),
        check_split_counts(min(max_size, 8), deltas),
        check_central_vs_bar_weight(min(max_size, 7), deltas),
        check_series_product(deltas, order),
        check_admissibility(deltas, order),
        check_box_moves(min(max_size, 6), deltas),
        check_block_growth(min(max_size, 4), deltas),
        check_rational_weight(),
        check_key_consistency(min(max_size, 8), deltas, flip_parity_of=fault),
    ]


def report_json(results: list[CheckResult]) -> dict:
    return {
        "passed": all(r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "scope": r.scope,
                "passed": r.passed,
                "counterexample": r.counterexample,
                "elapsed_ms": round(r.elapsed * 1000, 3),
            }
            for r in results
        ],
    }
