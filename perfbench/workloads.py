"""Seeded inputs, timed calls and output checks for the benchmark workloads.

Everything here reaches brauerblocks through the package object passed in as
``bb`` and looks each function up at call time, so a traced run that rebinds
the package's names times the same calls as an untraced one.

Every seed gets the same op structure: the same number of ops per (kind,
family, grid level), label sizes on a fixed log-spaced grid with a small
jitter, and delta on a fixed schedule.  The seed draws the small ops' random
shapes, hook arms, rectangle sides, unrelated partners and size jitter, the
enumeration labels, and the order of all ops.  The large ops are the same for
every seed: single ops at the top of the range cost seconds, grow with the
square of the box count, and take the slow or the fast path by delta (an odd
delta or a zero entry ends classify_weight_class at once), so one free draw
would decide most of a pass's time and make seeds incomparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("queries", "enumerate", "verify")

# The orders of kinds and families fix which pairs meet the largest sizes:
# classify_weight_class meets hooks and long columns at 10**4 boxes, and
# central_character meets random shapes at about 3e3.
BLOCK_KINDS = ("same_block", "classify_weight_class", "block_key")
CHAR_KINDS = ("centrally_equivalent", "central_character", "same_bar_weight")
FAMILIES = ("random", "rectangle", "hook", "staircase", "row", "column")
PAIR_KINDS = frozenset({"same_block", "centrally_equivalent", "same_bar_weight"})
HALF_DELTA_KINDS = frozenset({"same_block", "centrally_equivalent", "central_character"})

LEVEL_STEP = 0.25  # decades between grid levels
BLOCK_LEVELS = 13  # 10 .. 10**4 boxes
CHAR_LEVELS = 11  # 10 .. 10**3.5 (about 3.2e3) boxes
# Levels below these (up to 10**3 boxes for block ops, 10**2 for character
# ops) are small: they get three independent seeded draws per cell, so the
# median op sits among near neighbours.  Ops above them cost up to seconds
# each; their labels come from a fixed draw per cell, the same for every
# seed, so that a seed does not move the pass time by itself.
BLOCK_SMALL_LEVELS = 9
CHAR_SMALL_LEVELS = 5
SMALL_COPIES = 3
SIZE_JITTER = 0.025

ENUM_BOUNDS = range(16, 23)
ENUM_PER_BOUND = 4  # the last of each bound uses a half-integral delta
BRAUER_RANKS = range(13, 25)
DELTAS = range(-4, 9)

VERIFY_ARGS = ("verify", "--max-size", "4", "--delta-min", "0", "--delta-max", "1")
DOT_ORACLE_MAX_RANK = 6


@dataclass(frozen=True)
class Op:
    """One timed library call: ``getattr(bb, kind)(*args)``."""

    kind: str
    args: tuple
    size: int  # box count that sets the cost: the larger label, or the size bound


# --- labels as plain tuples ---------------------------------------------------


def transpose_parts(parts: tuple) -> tuple:
    """Conjugate partition in O(length + width)."""
    out = []
    i = len(parts)
    for j in range(1, (parts[0] if parts else 0) + 1):
        while parts[i - 1] < j:
            i -= 1
        out.append(i)
    return tuple(out)


def random_parts(rng: random.Random, n: int) -> tuple:
    """A partition of n with width and length of order sqrt(n)."""
    cap = max(1, round(2 * math.sqrt(n)))
    parts, rest = [], n
    while rest:
        p = rng.randint(1, min(rest, cap))
        parts.append(p)
        rest -= p
    return tuple(sorted(parts, reverse=True))


def family_parts(rng: random.Random, family: str, n: int) -> tuple:
    """A label of about n boxes from one shape family."""
    if family == "random":
        return random_parts(rng, n)
    if family == "staircase":
        k = max(1, round((math.sqrt(8 * n + 1) - 1) / 2))
        return tuple(range(k, 0, -1))
    if family == "rectangle":
        rows = max(1, round(math.sqrt(n) * 2 ** rng.uniform(-1, 1)))
        return (max(1, round(n / rows)),) * rows
    if family == "hook":
        arm = min(n, max(1, round(n * rng.uniform(0.3, 0.7))))
        return (arm,) + (1,) * (n - arm)
    if family == "row":
        return (n,)
    if family == "column":
        return (1,) * n
    raise ValueError(f"unknown family {family!r}")


def flip_partner(parts: tuple, delta: int, flips: int) -> tuple:
    """The label whose transposed charged sequence (charge delta/2 - 1) has
    its `flips` nonzero entries of least absolute value negated, choosing only
    entries whose negation is not already present.  Two flips stay inside the
    block; one flip keeps the bar-weight for even delta.  Entries are kept in
    twice-units so all arithmetic is on ints."""
    col = transpose_parts(parts)
    c2 = delta - 2
    window = [c2 + 2 * k - 2 * h for k, h in enumerate(col, 1)]
    lowest = window[0] if window else c2 + 2
    # past `reach` every tail entry exceeds |lowest|, so enough candidates exist
    reach = len(col) + (abs(lowest) + abs(c2)) // 2 + 2 * flips + 2
    entries = window + [c2 + 2 * k for k in range(len(col) + 1, reach + 1)]
    present = set(entries)
    candidates = sorted((v for v in entries if v and -v not in present), key=lambda v: (abs(v), v))
    chosen = set(candidates[:flips])
    moved = sorted(-v if v in chosen else v for v in entries)
    new_col = [(c2 + 2 * k - e) // 2 for k, e in enumerate(moved, 1)]
    while new_col and new_col[-1] == 0:
        new_col.pop()
    return transpose_parts(tuple(new_col))


# --- op lists -------------------------------------------------------------------


def _grid_size(rng: random.Random, level: int) -> int:
    return max(1, round(10 ** (1 + level * LEVEL_STEP) * (1 + rng.uniform(-SIZE_JITTER, SIZE_JITTER))))


def _scheduled_delta(step: int, half: bool = False):
    """The step-th delta of the fixed schedule: integral values run through
    -4..8; half-integral ones through -7/2..15/2."""
    d = DELTAS.start + step % len(DELTAS)
    return Fraction(2 * d + 1, 2) if half else d


def _query_op(bb, rng: random.Random, kind: str, family: str, level: int) -> Op:
    n = _grid_size(rng, level)
    lam = family_parts(rng, family, n)
    f = FAMILIES.index(family)
    k = (BLOCK_KINDS + CHAR_KINDS).index(kind)
    half = kind in HALF_DELTA_KINDS and (level + f) % 7 == 3
    delta = _scheduled_delta(3 * level + 2 * f + 5 * k, half)
    if kind not in PAIR_KINDS:
        return Op(kind, (bb.Partition(lam), delta), sum(lam))
    shared = (level + f) % 2 == 0
    if shared and isinstance(delta, Fraction):
        mu = lam  # semisimple: a label's block is itself
    elif shared:
        flips = 1 if kind == "same_bar_weight" and delta % 2 == 0 else 2
        mu = flip_partner(lam, delta, flips)
    else:
        # an unrelated label of about the same size; half of these differ in
        # size parity, which ends same_block at its short circuit
        mu = family_parts(rng, family, max(1, round(n * (1 + rng.uniform(-0.05, 0.05)))))
        if (sum(mu) - sum(lam) + (level + f) // 2) % 2:
            mu += (1,)
    size = max(sum(lam), sum(mu))
    return Op(kind, (bb.Partition(lam), bb.Partition(mu), delta), size)


def query_ops(bb, seed: int) -> list[Op]:
    """Point queries on a grid of sizes a quarter-decade apart: block ops
    from 10 to 10**4 boxes, character ops from 10 to about 3e3.  At each
    level every block kind takes two of the six families and every character
    kind one, rotating so that each (kind, family) pair recurs every three
    levels (block) or six levels (character).  A fine grid with few ops per
    level keeps the slowest ops a smooth ladder of sizes, so the tail
    percentile does not jump between grid points."""
    rng = random.Random(f"queries:{seed}")
    specs = []
    for level in range(BLOCK_LEVELS):
        copies = SMALL_COPIES if level < BLOCK_SMALL_LEVELS else 1
        for k, kind in enumerate(BLOCK_KINDS):
            for f in ((level + 2 * k) % 6, (level + 2 * k + 3) % 6):
                specs += [(kind, FAMILIES[f], level)] * copies
    for level in range(CHAR_LEVELS):
        copies = SMALL_COPIES if level < CHAR_SMALL_LEVELS else 1
        for k, kind in enumerate(CHAR_KINDS):
            specs += [(kind, FAMILIES[(level + 2 * k) % 6], level)] * copies
    ops = []
    for kind, family, level in specs:
        small = level < (BLOCK_SMALL_LEVELS if kind in BLOCK_KINDS else CHAR_SMALL_LEVELS)
        draw = rng if small else random.Random(f"{kind}:{family}:{level}")
        ops.append(_query_op(bb, draw, kind, family, level))
    rng.shuffle(ops)
    return ops


def enumerate_ops(bb, seed: int) -> list[Op]:
    """Block enumeration around small labels, and Brauer-algebra blocks."""
    rng = random.Random(f"enumerate:{seed}")
    ops = []
    for bound in ENUM_BOUNDS:
        for r in range(ENUM_PER_BOUND):
            # lam's size parity decides which half of the labels get the full
            # orbit test, so it is fixed per slot and only the size within it drawn
            lam = bb.Partition(random_parts(rng, rng.randrange((bound + r) % 2, 6, 2)))
            delta = _scheduled_delta(4 * bound + r, half=r == ENUM_PER_BOUND - 1)
            ops.append(Op("enumerate_block_members", (lam, delta, bound), bound))
    for n in BRAUER_RANKS:
        ops.append(Op("brauer_algebra_blocks", (n, _scheduled_delta(5 * n)), n))
    rng.shuffle(ops)
    return ops


def build_ops(bb, workload: str, seed: int) -> list[Op]:
    if workload == "queries":
        return query_ops(bb, seed)
    if workload == "enumerate":
        return enumerate_ops(bb, seed)
    raise ValueError(f"workload {workload!r} has no op list")


def warm_up(bb, workload: str) -> None:
    """Run each code path once on small inputs."""
    if workload == "queries":
        lam, mu = bb.Partition((3, 2, 1)), bb.Partition((2, 2))
        for kind in BLOCK_KINDS + CHAR_KINDS:
            args = (lam, mu, 2) if kind in PAIR_KINDS else (lam, 2)
            getattr(bb, kind)(*args)
    elif workload == "enumerate":
        bb.enumerate_block_members(bb.Partition((1,)), 2, 8)
        bb.brauer_algebra_blocks(8, 2)


# --- outputs ----------------------------------------------------------------------


def canonical(kind: str, result):
    """JSON-ready form of an op's result, identical across equal results."""
    if kind in PAIR_KINDS:
        if type(result) is not bool:
            raise TypeError(f"{kind} returned {type(result).__name__}, not bool")
        return result
    if kind in ("block_key", "central_character"):
        return result.to_json()
    if kind == "classify_weight_class":
        return [result.split, None if result.partner is None else list(result.partner.parts)]
    if kind == "enumerate_block_members":
        return [list(m.parts) for m in result]
    if kind == "brauer_algebra_blocks":
        return [[list(p.parts) for p in group] for group in result]
    raise ValueError(f"unknown op kind {kind!r}")


def digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def strip_elapsed(report: dict) -> dict:
    """A verify report without its timings."""
    out = dict(report)
    out["checks"] = [{k: v for k, v in c.items() if k != "elapsed_ms"} for c in report["checks"]]
    return out


# --- cross-checks (outside the timed region) ---------------------------------------


def _integral(delta) -> bool:
    return Fraction(delta).denominator == 1


def check_query(bb, op: Op, result) -> str | None:
    """An implication between criteria that the result must satisfy."""
    kind = op.kind
    if kind == "same_block":
        lam, mu, d = op.args
        if result and _integral(d) and not bb.same_bar_weight(lam, mu, d):
            return "same block but different bar-weights"
    elif kind == "same_bar_weight":
        lam, mu, d = op.args
        if result and not bb.centrally_equivalent(lam, mu, d):
            return "equal bar-weights but different central characters"
    elif kind == "centrally_equivalent":
        lam, mu, d = op.args
        if not result and _integral(d) and bb.same_block(lam, mu, d):
            return "same block but different central characters"
    elif kind == "classify_weight_class":
        lam, d = op.args
        if result.split and not bb.same_bar_weight(lam, result.partner, d):
            return "split partner changes the bar-weight"
    elif kind == "central_character":
        if result.constant != -1:
            return f"constant {result.constant}, expected -1"
    return None


def _dot_oracle_mismatch(bb, lam, delta, members) -> str | None:
    """Block membership of every small label of lam's size parity against the
    brute-force dot-orbit oracle, at rank max(|lam|, |mu|) <= 6."""
    if lam.size > DOT_ORACLE_MAX_RANK:
        return None
    found = set(members)
    lam_t = lam.transpose()
    for n in range(max(lam.size, 1), DOT_ORACLE_MAX_RANK + 1):
        sizes = [n] if n > lam.size else range(n % 2, n + 1, 2)
        for m in sizes:
            for mu in bb.partitions_of_size(m):
                if (mu.size - lam.size) % 2:
                    continue
                if bb.dot_orbit_member(lam_t, mu.transpose(), n, delta) != (mu in found):
                    return f"dot-orbit oracle disagrees on {list(mu.parts)} at rank {n}"
    return None


def check_enumeration(bb, op: Op, result) -> str | None:
    """Members share lam's block key and the small ones agree with the
    dot-orbit oracle; Brauer-algebra groups carry pairwise distinct keys and
    cover every label of sizes n, n-2, ... exactly once."""
    if op.kind == "enumerate_block_members":
        lam, d, bound = op.args
        if lam not in result or any(m.size > bound for m in result):
            return "members miss lam or exceed the size bound"
        if not _integral(d):
            return None if result == [lam] else "semisimple block has more than one label"
        key = bb.block_key(lam, d)
        if any(bb.block_key(m, d) != key for m in result):
            return "a member has another block key"
        return _dot_oracle_mismatch(bb, lam, d, result)
    n, d = op.args
    keys = []
    for group in result:
        key = bb.block_key(group[0], d)
        if any(bb.block_key(p, d) != key for p in group[1:]):
            return "a group mixes block keys"
        keys.append(key)
    if len(set(keys)) != len(keys):
        return "two groups share a block key"
    labels = [p for group in result for p in group]
    expected = sum(len(bb.partitions_of_size(m)) for m in range(n % 2, n + 1, 2))
    if len(set(labels)) != len(labels) or len(labels) != expected:
        return "groups do not cover the labels of sizes n, n-2, ... exactly once"
    if any(p.size > n or (n - p.size) % 2 for p in labels):
        return "a label has the wrong size"
    return None


def cross_check(bb, op: Op, result) -> str | None:
    if op.kind in ("enumerate_block_members", "brauer_algebra_blocks"):
        return check_enumeration(bb, op, result)
    return check_query(bb, op, result)
