"""Weights of partitions in simple-root coordinates, reduced modulo the
sublattice fixed up to sign by the index involution i -> -i.

For integral delta the weight attached to a partition is one fixed
fundamental weight minus the sum of the simple roots indexed by the shifted
contents of its boxes.  The fundamental weight is shared by every partition
and never materialised; only the finitely supported alpha-part is stored,
as a plain dict mapping root index (Fraction in Z or Z + 1/2, matching the
parity of delta - 1) to an integer coefficient with zeros stripped.

Two alpha-parts represent the same class modulo the sublattice spanned by
alpha_i + alpha_{-i} (i > 0), together with 2*alpha_0 when the index 0
occurs (delta odd), exactly when their :class:`SymWeight` reductions agree:
the reduction keeps r_i = v(i) - v(-i) for i > 0 plus the parity of v(0).
:func:`same_bar_weight` applies that reduction to the difference of two
content counts on integer twice-indices, without building either dict,
in O(rows + width + length) per label.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .partitions import Partition, integral, root_index


def _content_counts(lam: Partition) -> tuple[int, list[int]]:
    """(lo, counts): counts[i] boxes of content lo + i, for every content
    from lo = 1 - length to width - 1.

    Row i covers the contents 1 - i .. lam_i - i, so a difference array
    counts every content in O(rows + width + length)."""
    lo = 1 - len(lam)
    diff = [0] * (lam.part(1) - lo + 1)
    for i, part in enumerate(lam.parts, 1):
        diff[1 - i - lo] += 1
        diff[part - i + 1 - lo] -= 1
    return lo, list(accumulate(diff[:-1]))


def weight_alpha_part(lam: Partition, delta) -> dict[Fraction, int]:
    """Box count per shifted content; the weight of lam is the shared
    fundamental weight minus sum coeffs[i] * alpha_i.  Keys come out in
    increasing order."""
    d = integral(delta, "weights require integral delta")
    lo, counts = _content_counts(lam)
    return {Fraction(d - 1 + 2 * k, 2): c for k, c in enumerate(counts, lo)}


def vector_sum(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, c in v.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def vector_diff(u: dict, v: dict) -> dict:
    return vector_sum(u, {k: -c for k, c in v.items()})


@dataclass(frozen=True)
class SymWeight:
    """Complete invariant of a root vector modulo the symmetrised sublattice:
    the coefficients r_i = v(i) - v(-i) for i > 0 (sorted, zeros dropped) and,
    when the index 0 exists, the parity of v(0)."""

    pos: tuple[tuple[Fraction, int], ...]
    zero_parity: int | None

    @property
    def is_zero(self) -> bool:
        return not self.pos and not self.zero_parity


def reduce_mod_qtheta(v: dict, delta) -> SymWeight:
    """Reduce a root vector to its class; raises on index-parity mismatch."""
    d = integral(delta, "weights require integral delta")
    pos: dict[Fraction, int] = {}
    zero_count = 0
    for k, c in v.items():
        key = root_index(
            k, d, "index {index} does not lie in the root-index set for delta={delta}"
        )
        if c == 0:
            continue
        if key > 0:
            pos[key] = pos.get(key, 0) + c
        elif key < 0:
            pos[-key] = pos.get(-key, 0) - c
        else:
            zero_count += c
    entries = tuple(sorted((k, c) for k, c in pos.items() if c))
    zero_parity = zero_count % 2 if d % 2 != 0 else None
    return SymWeight(entries, zero_parity)


def same_bar_weight(lam: Partition, mu: Partition, delta) -> bool:
    """Whether the weights of lam and mu agree modulo the symmetrised sublattice.

    The signed difference of the two content counts is reduced on integer
    twice-indices t = delta - 1 + 2 * content: pos[|t|] gains the count at
    t > 0 and loses it at t < 0, and index 0 (odd delta only) keeps its
    parity, as in :func:`reduce_mod_qtheta`."""
    d = integral(delta, "weights require integral delta")
    pos: dict[int, int] = {}
    zero = 0
    for sign, label in ((1, lam), (-1, mu)):
        lo, counts = _content_counts(label)
        for k, c in enumerate(counts, lo):
            t = d - 1 + 2 * k
            if t > 0:
                pos[t] = pos.get(t, 0) + sign * c
            elif t < 0:
                pos[-t] = pos.get(-t, 0) - sign * c
            else:
                zero += sign * c
    return zero % 2 == 0 and not any(pos.values())


def alpha_in_omega(i) -> dict[Fraction, int]:
    """Expansion of the simple root alpha_i in fundamental-weight coordinates:
    alpha_i = 2*omega_i - omega_{i-1} - omega_{i+1}."""
    x = Fraction(i)
    return {x: 2, x - 1: -1, x + 1: -1}
