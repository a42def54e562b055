"""Weights of partitions in simple-root coordinates, reduced modulo the
sublattice fixed up to sign by the index involution i -> -i.

For integral delta the weight attached to a partition is one fixed
fundamental weight minus the sum of the simple roots indexed by the shifted
contents of its boxes.  The fundamental weight is shared by every partition
and never materialised; only the finitely supported alpha-part is stored,
as a plain dict mapping the twice-index t = 2i of the root alpha_i to an
integer coefficient with zeros stripped.  A box of content c has
t = delta - 1 + 2c, so t has the parity of delta - 1.

Two alpha-parts represent the same class modulo the sublattice spanned by
alpha_i + alpha_{-i} (i > 0), together with 2*alpha_0 when the index 0
occurs (delta odd), exactly when their :class:`SymWeight` reductions agree:
the reduction keeps r_t = v(t) - v(-t) for t > 0 plus the parity of v(0).
:func:`same_bar_weight` decides whether that reduction of the difference
of two content counts vanishes without building either count: it reads
the centred second differences of the counts off each label's runs of
equal rows, in O(runs * log rows) per label.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .partitions import Partition, half, integral, row_runs


def weight_alpha_part(lam: Partition, delta) -> dict[int, int]:
    """Box count per twice shifted content t = delta - 1 + 2 * content; the
    weight of lam is the shared fundamental weight minus the sum of
    coeffs[t] * alpha_(t/2).  Keys come out in increasing order.

    Row i covers the contents 1 - i .. lam_i - i, so a difference array
    over the contents lo = 1 - length .. width - 1 counts them all in
    O(rows + width + length), the size of the output."""
    d = integral(delta, "weights require integral delta")
    lo = 1 - len(lam)
    diff = [0] * (lam.part(1) - lo + 1)
    for i, part in enumerate(lam.parts, 1):
        diff[1 - i - lo] += 1
        diff[part - i + 1 - lo] -= 1
    return {d - 1 + 2 * k: c for k, c in enumerate(accumulate(diff[:-1]), lo)}


def vector_sum(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, c in v.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def vector_diff(u: dict, v: dict) -> dict:
    return vector_sum(u, {k: -c for k, c in v.items()})


class SymWeight(NamedTuple):
    """Complete invariant of a root vector modulo the symmetrised sublattice:
    the coefficients r_t = v(t) - v(-t) for twice-indices t > 0 (sorted,
    zeros dropped) and, when the index 0 exists, the parity of v(0)."""

    pos: tuple[tuple[int, int], ...]
    zero_parity: int | None

    @property
    def is_zero(self) -> bool:
        return not self.pos and not self.zero_parity


def reduce_mod_qtheta(v: dict, delta) -> SymWeight:
    """Reduce a root vector keyed by twice-indices to its class; raises
    unless every twice-index is an integer of the parity of delta - 1."""
    d = integral(delta, "weights require integral delta")
    pos: dict[int, int] = {}
    zero_count = 0
    for t, c in v.items():
        if (t - d) % 2 != 1:
            raise ValueError(f"index {half(t)} does not lie in the root-index set for delta={d}")
        if t > 0:
            pos[t] = pos.get(t, 0) + c
        elif t < 0:
            pos[-t] = pos.get(-t, 0) - c
        else:
            zero_count += c
    entries = tuple(sorted((k, c) for k, c in pos.items() if c))
    zero_parity = zero_count % 2 if d % 2 != 0 else None
    return SymWeight(entries, zero_parity)


def _bar_masses(masses: dict[int, int], parts: tuple[int, ...], h: int, sign: int) -> int:
    """Add sign times the centred second difference of the label's box count
    per twice-index t = h + 2 * content into masses; return the number of
    boxes at t = 0 (zero when h is odd).

    A run of rows i..j (1-based) equal to m covers the contents 1-k..m-k of
    each row k, and contributes the masses +1 at content -j, -1 at 1-i, -1
    at m-j and +1 at m-i+1.  The first two telescope over the runs to +1 at
    -l and -1 at 0 for a label of l rows.  The content c0 = -h/2 sits in
    the rows k of the run with 1 - c0 <= k <= m - c0."""
    get = masses.get
    t = h - 2 * len(parts)
    masses[t] = get(t, 0) + sign
    masses[h] = get(h, 0) - sign
    c0 = -h // 2
    zero = 0
    for i, j, m in row_runs(parts):
        t = h + 2 * (m - j)
        masses[t] = get(t, 0) - sign
        t = h + 2 * (m - i)
        masses[t] = get(t, 0) + sign
        if h % 2 == 0:
            first = i + 1 if i + c0 >= 0 else 1 - c0
            last = j if j <= m - c0 else m - c0
            if last >= first:
                zero += last - first + 1
    return zero


def same_bar_weight(lam: Partition, mu: Partition, delta) -> bool:
    """Whether the weights of lam and mu agree modulo the symmetrised sublattice.

    Let F(t) be the box count of lam less that of mu at the twice-index
    t = delta - 1 + 2 * content.  The reduction of :func:`reduce_mod_qtheta`
    vanishes exactly when G(t) = F(t) - F(-t) is zero and, for odd delta,
    F(0) is even.  G has finite support on one parity class, so it is zero
    exactly when its centred second difference D2G (step 2 in t) is, and
    D2G(t) = D2F(t) - D2F(-t): the masses of D2F must be symmetric under
    t -> -t.  :func:`_bar_masses` reads them, and the count at t = 0, off
    each label's runs of equal rows in O(runs * log rows), with no content
    array."""
    h = integral(delta, "weights require integral delta") - 1
    masses: dict[int, int] = {}
    zero = _bar_masses(masses, lam.parts, h, 1) - _bar_masses(masses, mu.parts, h, -1)
    return zero % 2 == 0 and all(masses.get(-t, 0) == e for t, e in masses.items())
