"""Cross-check matrix: every fast criterion against an independent route.

Each check compares two computations that share no code path: the sequence
orbit criterion against reflection descent to the dominant vector of the
dot action, the reduced weight classes against canonical central
characters, the wedge operators against a row-level box-move rule, and the
weight of each factored gamma_a against alpha_a - alpha_{-a} in
fundamental-weight coordinates.  The two series checks instead require the
parameter identities to hold for the Brauer family and to fail once gamma_1
is raised by one.  The breadth-first dot-orbit oracle is not run here: it
certifies the descent in the tests.  A check returns a :class:`CheckResult`
carrying the first counterexample found, so failures are reproducible
inputs rather than booleans; the body of each check is a helper that
returns that counterexample, or None.

The orbit, central-character and key-consistency checks compare classes of
labels in O(L) per delta, not all L^2 pairs: two equivalences R, S agree
exactly when each label is S-related to the first of its R-class and
R-related to the first of its S-class (x R y makes both S-related to one).

Label invariants are read once per label and delta, in twice-units,
through :func:`~brauerblocks.sequences.transpose_profile`: the orbit key of
a label's sequence off the rows of its transpose, and the negative-entry
count and zero flag of its transposed sequence off its own rows.  Weights,
wedge moves, operator indices and the weight of gamma_a are compared in
twice-units (the simple root alpha_i and the coordinate at omega_i keyed
by 2i); counterexamples print an operator index i, a content a and the
roots of gamma_a as numbers.

`run_verify` executes the whole matrix at a requested size, at most
:data:`SIZE_CAP`, and is the engine behind the ``verify`` CLI subcommand.
Every check runs at that size except block-growth, which stops at 4.  The
fault-injection mode tampers with one parity tag on one side of the
key-consistency comparison; a healthy build must report the planted
counterexample, and a fault that could be planted at no delta is itself
reported.
"""

from __future__ import annotations

import time
from functools import cache, partial
from itertools import chain, islice
from typing import NamedTuple

from .blocks import (
    _block_members,
    block_key,
    classify_weight_class,
    dot_dominant,
    same_block,
)
from .central import (
    FactoredRational,
    _gamma_exponents,
    brauer_gammas,
    central_character,
    centrally_equivalent,
    check_admissible,
    check_reflection_product,
)
from .partitions import HALF, Partition, enumerate_partitions, half
from .sequences import WILDCARD, transpose_profile
from .wedge import WedgeVector, apply_b, relative_weight
from .weights import (
    reduce_mod_qtheta,
    same_bar_weight,
    vector_diff,
    weight_alpha_part,
)

# The largest size the matrix accepts (under 1 s at the default delta range).
SIZE_CAP = 10

# wedge-box-moves tries the operator indices |i| <= INDEX_BOUND, block-growth
# looks for a second member within GROWTH_WINDOW boxes above the label, and
# rational-function-weight tries a with |twice(a)| <= TWICE_BOUND.
INDEX_BOUND = 10
GROWTH_WINDOW = 16
TWICE_BOUND = 9


class CheckResult(NamedTuple):
    name: str
    scope: str
    passed: bool
    counterexample: str | None
    elapsed: float


def _check(name: str, scope: str, find, *args) -> CheckResult:
    """Time find(*args), which returns the first counterexample or None."""
    started = time.perf_counter()
    counterexample = find(*args)
    return CheckResult(name, scope, counterexample is None, counterexample, time.perf_counter() - started)


def _witness_failure() -> str | None:
    lam, mu = Partition((2, 2)), Partition((2, 1))
    want = FactoredRational.from_parts(-1, {HALF: 1, -HALF: 1})
    if central_character(lam, 1) != want or central_character(mu, 1) != want:
        return "central characters are not -(u-1/2)(u+1/2)"
    if not centrally_equivalent(lam, mu, 1):
        return "central equivalence fails"
    if same_bar_weight(lam, mu, 1):
        return "bar-weights unexpectedly agree"
    diff = vector_diff(weight_alpha_part(mu, 1), weight_alpha_part(lam, 1))
    cls = reduce_mod_qtheta(diff, 1)
    neg_alpha0 = reduce_mod_qtheta({0: -1}, 1)
    if cls != neg_alpha0 or cls.is_zero:
        return f"weight-difference class is {cls}, expected the class of -alpha_0"
    return None


def check_witness_pair() -> CheckResult:
    """delta=1, (2,2) vs (2,1): equal central characters -(u-1/2)(u+1/2),
    distinct bar-weights, with the weight difference in the class of the
    negated zero-indexed simple root."""
    return _check("witness-pair", "delta=1, (2,2) vs (2,1)", _witness_failure)


def _class_firsts(labels, invariant: dict):
    """Yield (the first label of label's class by invariant, label) in order."""
    first: dict = {}
    for label in labels:
        yield first.setdefault(invariant[label], label), label


def _orbit_mismatch(max_size: int, deltas) -> str | None:
    parts = enumerate_partitions(max_size)
    for delta in deltas:
        key = {p: transpose_profile(delta - 2, p.transpose().parts)[0] for p in parts}
        for n in range(max_size + 3):
            labels = [p for p in parts if p.size <= n and (n - p.size) % 2 == 0]
            dominant = {p: dot_dominant(p, n, delta) for p in labels}
            for a, b in chain(_class_firsts(labels, key), _class_firsts(labels, dominant)):
                expected, got = key[a] == key[b], dominant[a] == dominant[b]
                if got != expected:
                    return (
                        f"a={list(a.parts)} b={list(b.parts)} n={n} delta={delta}: "
                        f"orbit={expected} descent={got}"
                    )
    return None


def check_orbit_vs_bfs(max_size: int, deltas) -> CheckResult:
    """Sequence-orbit classes == dot-orbit classes by descent to the dominant
    vector, at each rank n <= max size + 2 over the labels of size <= n and
    of n's parity: more ranks than the scope's "n and n+2", kept, like the
    name, for report stability.  The BFS oracle certifies the descent."""
    scope = f"sizes<={max_size}, delta in {list(deltas)}, ranks n and n+2"
    return _check("orbit-vs-dot-bfs", scope, _orbit_mismatch, max_size, deltas)


def _bridge_mismatch(max_size: int, deltas) -> str | None:
    parts = enumerate_partitions(max_size)
    for delta in deltas:
        for lam in parts:
            rel = relative_weight(delta - 2, lam.transpose())
            expected = {k: -c for k, c in weight_alpha_part(lam, delta).items()}
            if rel != expected:
                return f"lam={list(lam.parts)} delta={delta}: {rel} != {expected}"
    return None


def check_sequence_weight_bridge(max_size: int, deltas) -> CheckResult:
    """relative_weight of the transposed sequence == negated alpha-part of
    the label's weight."""
    scope = f"sizes<={max_size}, delta in {list(deltas)}"
    return _check("sequence-weight-bridge", scope, _bridge_mismatch, max_size, deltas)


def _split_mismatch(max_size: int, deltas) -> str | None:
    parts = enumerate_partitions(max_size)
    for delta in deltas:
        classes: dict = {}
        for lam in parts:
            sym = reduce_mod_qtheta(weight_alpha_part(lam, delta), delta)
            classes.setdefault(sym, []).append(lam)
        for members in classes.values():
            anchor = members[0]
            single_expected = delta % 2 != 0 or transpose_profile(delta - 2, anchor.parts)[2]
            for lam in members:
                cls = classify_weight_class(lam, delta)
                if cls.split == single_expected:
                    return f"lam={list(lam.parts)} delta={delta}: classification disagrees with the zero/parity rule"
                if cls.split and not same_bar_weight(lam, cls.partner, delta):
                    return f"lam={list(lam.parts)} delta={delta}: partner changes the bar-weight"
                if cls.split and same_block(lam, cls.partner, delta):
                    return f"lam={list(lam.parts)} delta={delta}: partner lies in the same block"
            keys = {block_key(lam, delta) for lam in members}
            if not single_expected:
                keys.add(block_key(classify_weight_class(anchor, delta).partner, delta))
            expected = 1 if single_expected else 2
            if len(keys) != expected:
                return f"delta={delta}, class of {list(anchor.parts)}: {len(keys)} keys, expected {expected}"
    return None


def check_split_counts(max_size: int, deltas) -> CheckResult:
    """Each bar-weight class carries exactly two block keys when delta is
    even and no zero entry occurs (the second realised by the classification
    partner, whose size may exceed the window), exactly one otherwise."""
    scope = f"sizes<={max_size}, delta in {list(deltas)}"
    return _check("weight-class-split-counts", scope, _split_mismatch, max_size, deltas)


def _central_mismatch(max_size: int, deltas) -> str | None:
    parts = enumerate_partitions(max_size)
    for delta in deltas:
        sym = {lam: reduce_mod_qtheta(weight_alpha_part(lam, delta), delta) for lam in parts}
        char = {lam: central_character(lam, delta) for lam in parts}
        for lam, mu in _class_firsts(parts, sym):
            if char[lam] != char[mu]:
                return f"lam={list(lam.parts)} mu={list(mu.parts)} delta={delta}: bar-weight equal, characters differ"
        if delta % 2 == 0:
            for lam, mu in _class_firsts(parts, char):
                if sym[lam] != sym[mu]:
                    return f"lam={list(lam.parts)} mu={list(mu.parts)} delta={delta}: characters equal, bar-weights differ"
    return None


def check_central_vs_bar_weight(max_size: int, deltas) -> CheckResult:
    """Equal bar-weight implies equal central character; for even delta the
    converse holds as well."""
    scope = f"sizes<={max_size}, delta in {list(deltas)}"
    return _check("bar-weight-vs-central-character", scope, _central_mismatch, max_size, deltas)


def _series_mismatch(deltas, order: int, holds, fails: str, passes: str) -> str | None:
    """The first delta at which `holds` rejects the Brauer parameters (the
    message `fails`) or, for order >= 1, accepts them with gamma_1 bumped by
    one (the message `passes`)."""
    for delta in deltas:
        gammas = brauer_gammas(delta, order + 1)
        if not holds(gammas, order):
            return f"delta={delta}: {fails}"
        if order >= 1 and holds([gammas[0], gammas[1] + 1, *gammas[2:]], order):
            return f"delta={delta}: {passes}"
    return None


def check_series_product(deltas, order: int) -> CheckResult:
    """The reflection-product identity holds for the Brauer parameter family
    and breaks under a single-coefficient perturbation."""
    return _check(
        "series-reflection-product", f"delta in {list(deltas)}, order {order}", _series_mismatch,
        deltas, order, check_reflection_product,
        f"identity fails at order {order}", "perturbed coefficients pass the identity",
    )


def check_admissibility(deltas, order: int) -> CheckResult:
    """The odd-index recursion holds for the Brauer parameter family and a
    planted violation at k=1 is detected."""
    return _check(
        "parameter-admissibility", f"delta in {list(deltas)}, odd k <= {order}", _series_mismatch,
        deltas, order, check_admissible,
        f"recursion fails below order {order}", "planted violation at k=1 not detected",
    )


def _expected_box_moves(shape: Partition, c2: int) -> tuple[dict[int, Partition], dict[int, Partition]]:
    """Row-level oracle for the action of every b_i on the basis sequence of
    shape at twice-charge c2, read once: maps from a twice-entry to the
    shape with one box removed from, or added to, the row of that entry,
    over the rows that stay weakly decreasing.  b_i, i = t/2, removes the
    box of the row whose entry equals i - 1/2 (key t - 1) and adds a box to
    the row whose entry equals -i + 1/2 (key 1 - t).  Twice the entry of row
    k is c2 + 2(k - shape_k)."""
    removed: dict[int, Partition] = {}
    added: dict[int, Partition] = {}
    for k in range(1, len(shape) + 2):
        entry = c2 + 2 * (k - shape.part(k))
        if shape.part(k) > shape.part(k + 1):
            parts = list(shape.parts)
            parts[k - 1] -= 1
            removed[entry] = Partition([p for p in parts if p > 0])
        if k == 1 or shape.part(k - 1) > shape.part(k):
            parts = list(shape.parts)
            while len(parts) < k:
                parts.append(0)
            parts[k - 1] += 1
            added[entry] = Partition(parts)
    return removed, added


def _box_move_problem(result: WedgeVector, shape: Partition, t: int, expected: set, weight) -> str | None:
    """What is wrong with result = b_i on the basis vector of shape, i = t/2,
    given the oracle's set of output shapes and weight(s), the relative
    weight of a shape of the sector, or None."""
    if result.terms.keys() != expected:
        got, want = (
            sorted((tuple(s.parts) for s in shapes), key=lambda p: (sum(p), p))
            for shapes in (result.terms, expected)
        )
        return f"terms {got} != oracle {want}"
    for shape_out, coeff in result.terms.items():
        if coeff != 1:
            return f"coefficient {coeff}"
        if abs(shape_out.size - shape.size) != 1:
            return "size changes by more than one box"
        shift = vector_diff(weight(shape_out), weight(shape))
        if shift not in ({t: 1}, {-t: -1}):
            return f"weight shift {shift}"
    return None


def _box_move_mismatch(max_size: int, deltas) -> str | None:
    shapes = enumerate_partitions(max_size)
    for delta in deltas:
        c2 = delta - 2
        # twice-indices t = 2i of the parity of delta - 1, with i = t/2
        indices = [(t, half(t)) for t in range(-2 * INDEX_BOUND + (delta - 1) % 2, 2 * INDEX_BOUND + 1, 2)]
        # the two admissible weight shifts of b_i depend on (i, delta) only
        for t, i in indices:
            if not reduce_mod_qtheta(vector_diff({t: 1}, {-t: -1}), delta).is_zero:
                return f"i={i} delta={delta}: the two shift options differ modulo the sublattice"
        weight = cache(partial(relative_weight, c2))
        for shape in shapes:
            basis = WedgeVector(c2, {shape: 1})
            removed, added = _expected_box_moves(shape, c2)
            for t, i in indices:
                result = apply_b(i, basis)
                lost, gained = removed.get(t - 1), added.get(1 - t)
                if lost is None and gained is None and not result.terms:
                    continue
                expected = {s for s in (lost, gained) if s is not None}
                problem = _box_move_problem(result, shape, t, expected, weight)
                if problem is not None:
                    return f"shape={list(shape.parts)} i={i} delta={delta}: {problem}"
    return None


def check_box_moves(max_size: int, deltas) -> CheckResult:
    """apply_b output shapes match the row-level add/remove oracle, each term
    has coefficient 1 and differs from the input by one box, and its weight
    shift is +alpha_i (raising) or -alpha_{-i} (lowering), the two options
    agreeing modulo the symmetrised sublattice.  The oracle is read once per
    shape and delta, and apply_b runs once per shape, delta and index."""
    scope = f"sizes<={max_size}, |i|<={INDEX_BOUND}, delta in {list(deltas)}"
    return _check("wedge-box-moves", scope, _box_move_mismatch, max_size, deltas)


def _growth_shortfall(max_size: int, deltas) -> str | None:
    parts = enumerate_partitions(max_size)
    for delta in deltas:
        for lam in parts:
            bound = lam.size + GROWTH_WINDOW
            # the search stops at the second member; only a shortfall exhausts it
            found = len(list(islice(_block_members(lam, delta, bound), 2)))
            if found < 2:
                return f"lam={list(lam.parts)} delta={delta}: only {found} member(s) within size {bound}"
    return None


def check_block_growth(max_size: int, deltas) -> CheckResult:
    """Every block meets the enumeration window at least twice: desk-scale
    evidence that blocks keep growing."""
    scope = f"sizes<={max_size}, delta in {list(deltas)}, window +{GROWTH_WINDOW}"
    return _check("block-growth", scope, _growth_shortfall, max_size, deltas)


def _in_root_units(twice_keyed: dict[int, int]) -> str:
    return "{" + ", ".join(f"{half(t)}: {e}" for t, e in sorted(twice_keyed.items())) + "}"


def _rational_weight_mismatch() -> str | None:
    for t in range(-TWICE_BOUND, TWICE_BOUND + 1):
        # weight(gamma_a) reads the exponent at each root r as the coordinate
        # at omega_r; alpha_i = 2 omega_i - omega_(i-1) - omega_(i+1)
        got = _gamma_exponents(t, 2)
        expected = vector_diff({t: 2, t - 2: -1, t + 2: -1}, {-t: 2, -t - 2: -1, 2 - t: -1})
        if got != expected:
            return f"a={half(t)}: {_in_root_units(got)} != {_in_root_units(expected)}"
    return None


def check_rational_weight() -> CheckResult:
    """weight(gamma_a) == alpha_a - alpha_{-a} in fundamental-weight
    coordinates, across integer and half-integer a, both keyed by twice the
    root (a = t/2)."""
    scope = f"twice(a) in [-{TWICE_BOUND}..{TWICE_BOUND}]"
    return _check("rational-function-weight", scope, _rational_weight_mismatch)


def _key_mismatch(max_size: int, deltas, flip_parity_of: Partition | None) -> str | None:
    """Each left key meets its own key first, where a planted fault shows,
    then the first of its bar-weight, refined and key classes.  A zero flag
    that varies inside a bar-weight class shows against its first label, as
    transpose_profile gives the flag and the key's wildcard together (keys
    differ, the rule holds); once it is constant, the rule is refined-class
    equality and the scans compare two equivalences both ways."""
    parts = enumerate_partitions(max_size)
    planted = False
    for delta in deltas:
        keys = {lam: block_key(lam, delta) for lam in parts}
        lhs_keys = dict(keys)
        original = keys.get(flip_parity_of)
        if original is not None and original.neg_parity != WILDCARD:
            lhs_keys[flip_parity_of] = original._replace(neg_parity=1 - original.neg_parity)
            planted = True
        sym = {lam: reduce_mod_qtheta(weight_alpha_part(lam, delta), delta) for lam in parts}
        refined = {}
        for lam in parts:
            _, negatives, zero = transpose_profile(delta - 2, lam.parts)
            refined[lam] = sym[lam], None if delta % 2 else WILDCARD if zero else negatives % 2
        scans = (_class_firsts(parts, classes) for classes in (sym, refined, keys))
        for lam, mu in chain(((lam, lam) for lam in parts), *scans):
            (lam_sym, lam_tag), (mu_sym, mu_tag) = refined[lam], refined[mu]
            key_eq = lhs_keys[lam] == keys[mu]
            expected = lam_sym == mu_sym and (lam_tag == mu_tag or WILDCARD in (lam_tag, mu_tag))
            if key_eq != expected:
                return (
                    f"lam={list(lam.parts)} mu={list(mu.parts)} delta={delta}: "
                    f"key equality {key_eq}, rule {expected}"
                )
    if flip_parity_of is None or planted:
        return None
    if flip_parity_of.size > max_size:
        return f"fault on lam={list(flip_parity_of.parts)} planted at no delta: its size exceeds {max_size}"
    return f"fault on lam={list(flip_parity_of.parts)} planted at no delta: its key parity is {WILDCARD} at every delta"


def check_key_consistency(max_size: int, deltas, flip_parity_of: Partition | None = None) -> CheckResult:
    """Key equality == bar-weight equality refined by the parity/zero rule.

    flip_parity_of plants a fault: the left key of that label gets its
    parity tag flipped, which a healthy comparison must report.  A label
    above max_size, or whose parity is the wildcard at every delta, cannot
    carry the fault; that is reported as the counterexample, so a requested
    fault never passes.
    """
    scope = f"sizes<={max_size}, delta in {list(deltas)}"
    return _check("key-consistency", scope, _key_mismatch, max_size, deltas, flip_parity_of)


def run_verify(max_size: int, delta_lo: int, delta_hi: int, order: int, inject_fault: bool) -> list[CheckResult]:
    """The full matrix at the requested scale: every check but block-growth
    runs at max_size, and the delta range and the truncation order apply as
    given."""
    deltas = list(range(delta_lo, delta_hi + 1))
    fault = Partition((1,)) if inject_fault else None
    return [
        check_witness_pair(),
        check_orbit_vs_bfs(max_size, deltas),
        check_sequence_weight_bridge(max_size, deltas),
        check_split_counts(max_size, deltas),
        check_central_vs_bar_weight(max_size, deltas),
        check_series_product(deltas, order),
        check_admissibility(deltas, order),
        check_box_moves(max_size, deltas),
        # above size 4 a second member can lie beyond GROWTH_WINDOW
        # (lam=[2, 2, 1] at delta=4, size 5), a false failure
        check_block_growth(min(max_size, 4), deltas),
        check_rational_weight(),
        check_key_consistency(max_size, deltas, flip_parity_of=fault),
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
