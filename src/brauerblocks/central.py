"""Central characters as canonically factored rational functions, plus
exact checks of the defining parameter identities up to a truncation order.

The central character attached to a partition with parameter delta is

    -(u - 1/2)(u + 1/2) * prod over boxes gamma_c(u),

    gamma_c(u) = ((u+c)^2 - 1) (u-c)^2 / ( ((u-c)^2 - 1) (u+c)^2 ),

with c running over the delta-shifted contents of the boxes.  Every factor
is linear with a rational root, so a product is stored as a nonzero
rational constant together with a root -> exponent map; equality of
characters is componentwise equality of the canonical forms and never
expands a polynomial.  :func:`central_character` sums the exponents on a
label's runs of equal rows, with every root scaled to an int (see its
docstring), and builds Fractions only for the distinct roots it returns;
:func:`centrally_equivalent` compares the int exponent maps.

The parameter sequence of the Brauer specialisation is
gamma_a = delta * ((delta-1)/2)**a.  Its generating series
u - 1/2 + sum_a gamma_a u^{-a} multiplied by its reflection u -> -u must
equal (1/2 - u)(1/2 + u), and the odd-index coefficients must satisfy the
admissibility recursion.  Both checks read the given coefficients once, as
ints over their least common denominator, and compare the identities
scaled to ints, so one path serves ints, Fractions and any other rational
input; :func:`brauer_gammas` writes gamma_a from two int running products.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

from .partitions import Partition, row_runs


class FactoredRational(NamedTuple):
    """constant * prod (u - root)^exponent with nonzero exponents, factors
    sorted by root."""

    constant: Fraction
    factors: tuple[tuple[Fraction, int], ...]

    @staticmethod
    def from_parts(constant, factor_map: dict) -> "FactoredRational":
        c = Fraction(constant)
        if c == 0:
            raise ValueError("constant must be nonzero")
        factors = tuple(
            sorted((Fraction(r), int(e)) for r, e in factor_map.items() if e != 0)
        )
        return FactoredRational(c, factors)

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        merged = dict(self.factors)
        for r, e in other.factors:
            merged[r] = merged.get(r, 0) + e
        return FactoredRational.from_parts(self.constant * other.constant, merged)

    def render(self) -> str:
        """Display string with factors ordered by increasing displayed offset,
        e.g. -(u-1/2)^4(u+3/2)/((u-3/2)(u+1/2)^2)."""
        nums = sorted(((r, e) for r, e in self.factors if e > 0), key=lambda t: -t[0])
        dens = sorted(((r, -e) for r, e in self.factors if e < 0), key=lambda t: -t[0])
        if nums:
            body = "".join(_factor_str(r, e) for r, e in nums)
            if self.constant == 1:
                head = body
            elif self.constant == -1:
                head = "-" + body
            else:
                head = f"{self.constant}*{body}"
        else:
            head = str(self.constant)
        if dens:
            return head + "/(" + "".join(_factor_str(r, e) for r, e in dens) + ")"
        return head

    def to_json(self) -> dict:
        return {
            "factored": self.render(),
            "constant": [self.constant.numerator, self.constant.denominator],
            "factors": [[r.numerator, r.denominator, e] for r, e in self.factors],
        }


def _factor_str(root: Fraction, exponent: int) -> str:
    offset = -root
    if offset == 0:
        base = "u"
    elif offset > 0:
        base = f"(u+{offset})"
    else:
        base = f"(u-{-offset})"
    return base if exponent == 1 else f"{base}^{exponent}"


def _gamma_exponents(a: int, b: int) -> dict[int, int]:
    """The exponents of gamma_c(u) at c = a/b (b > 0, not necessarily in
    lowest terms), keyed by the int b * root and with zeros dropped: the
    four quadratics split into linear factors with roots -c+1, -c-1, c
    (double) over c+1, c-1, -c (double)."""
    exps: dict[int, int] = {}
    for root, e in ((b - a, 1), (-b - a, 1), (a, 2), (b + a, -1), (a - b, -1), (-a, -2)):
        exps[root] = exps.get(root, 0) + e
    return {root: e for root, e in exps.items() if e}


def _root_exponents(parts: tuple[int, ...], a: int, b: int) -> dict[int, int]:
    """The exponents of the central character at delta = a/b (lowest terms,
    b > 0), keyed by the int 2b * root and with zeros dropped; see
    :func:`central_character`."""
    step = 2 * b
    base = a - b  # B = 2b * (delta - 1)/2
    end = step * len(parts)
    exps = {b: 1, -b: 1}
    get = exps.get
    for root, e in ((base, 1), (base - end, -1), (end - base, 1), (-base, -1)):
        exps[root] = get(root, 0) + e
    for i, j, m in row_runs(parts):
        root = base + step * (m - j)
        exps[root] = get(root, 0) + 1
        root = base + step * (m - i)
        exps[root] = get(root, 0) - 1
        root = step * (i - m) - base
        exps[root] = get(root, 0) + 1
        root = step * (j - m) - base
        exps[root] = get(root, 0) - 1
    return {root: e for root, e in exps.items() if e}


def central_character(lam: Partition, delta) -> FactoredRational:
    """Scalar by which the central series acts on the standard module of lam,
    fully cancelled; the constant is always -1.

    Row i carries the consecutive contents lo..hi with lo = base + 1 - i
    and hi = base + lam_i - i (base = (delta - 1)/2), and over that row the
    gamma product telescopes to

        (u+lo-1)(u+hi+1)(u-lo)(u-hi) / ((u+lo)(u+hi)(u-lo+1)(u-hi-1)).

    Write delta = a/b in lowest terms and scale every root by 2b: each root
    becomes an int N, the fixed factors (u -+ 1/2) sit at N = +-b, and base
    becomes B = a - b.  The factors of row i that do not depend on its part
    telescope over all l rows to +1 at B, -1 at B - 2bl, +1 at -B + 2bl and
    -1 at -B.  Those that do telescope over each run of rows i..j (1-based)
    equal to m, to +1 at B + 2b(m-j), -1 at B + 2b(m-i+1), +1 at
    -B + 2b(i-1-m) and -1 at -B + 2b(j-m).  So a label with r rows costs
    O(runs * log r) in ints, with one Fraction N/(2b) per distinct root,
    built in sorted-N order, which is sorted-root order."""
    q = Fraction(delta)
    scale = 2 * q.denominator
    exps = _root_exponents(lam.parts, q.numerator, q.denominator)
    return FactoredRational(
        Fraction(-1), tuple((Fraction(root, scale), e) for root, e in sorted(exps.items()))
    )


def centrally_equivalent(lam: Partition, mu: Partition, delta) -> bool:
    """Whether lam and mu have one central character: the two int exponent
    maps of :func:`central_character` are compared, and no Fraction is built."""
    q = Fraction(delta)
    a, b = q.numerator, q.denominator
    return _root_exponents(lam.parts, a, b) == _root_exponents(mu.parts, a, b)


def brauer_gammas(delta, length: int) -> list[Fraction]:
    """The parameter sequence gamma_a = delta * ((delta-1)/2)**a, a < length.

    With delta = p/q in lowest terms, gamma_a = p(p-q)^a / (q(2q)^a): two
    int running products and one Fraction per coefficient."""
    d = Fraction(delta)
    num, den = d.numerator, d.denominator
    num_step, den_step = num - den, 2 * den
    out: list[Fraction] = []
    for _ in range(length):
        out.append(Fraction(num, den))
        num *= num_step
        den *= den_step
    return out


def _over_common_denominator(gammas) -> tuple[list[int], int]:
    """(N, D) with gamma_a = N[a] / D, D the least common denominator; an
    int or a Fraction is read as it is, any other rational through Fraction."""
    qs = [g if isinstance(g, (int, Fraction)) else Fraction(g) for g in gammas]
    common = lcm(*(q.denominator for q in qs))
    return [q.numerator * (common // q.denominator) for q in qs], common


def check_reflection_product(gammas, order: int) -> bool:
    """Whether f(u) = u - 1/2 + sum_a gamma_a u^{-a} times its reflection
    f(-u) equals (1/2 - u)(1/2 + u) = 1/4 - u^2, on every product coefficient
    the given truncation determines exactly.

    The unknown gamma_a with a >= len(gammas) reach every degree below
    2 - len(gammas), so the degrees low..2 are compared.  With
    gamma_a = N_a / D over the least common denominator, 2D f has the int
    coefficients c_0 = 2D, c_1 = 2N_0 - D and c_e = 2N_(e-1) at u^(1-e), and
    the identity is compared scaled by (2D)^2.  f(u)f(-u) is even in u, so
    only the even degrees 2 - s are summed.  There e1 + e2 = s makes the
    sign (-1)^(1-e2) of c_e1 c_e2 equal to -(-1)^e1, so the negated
    coefficient is the sum of (-1)^e1 c_e1 c_e2, each pair e1 != e2 summed
    once and doubled."""
    if len(gammas) < order + 1:
        raise ValueError("need at least order+1 parameter coefficients")
    low = max(2 - len(gammas), -order)
    nums, common = _over_common_denominator(gammas)
    c = [2 * common, 2 * nums[0] - common] + [2 * n for n in nums[1:]]
    alt = [-x if e % 2 else x for e, x in enumerate(c)]  # (-1)^e c_e
    target = {0: 4 * common * common, 2: -common * common}  # -(2D)^2 (1/4 - u^2) at degree 2 - s
    for s in range(0, 3 - low, 2):
        mid = s // 2
        pairs = sum(map(mul, alt[:mid], c[s:mid:-1]))
        if 2 * pairs + alt[mid] * c[mid] != target.get(s, 0):
            return False
    return True


def check_admissible(gammas, order: int) -> bool:
    """Whether the recursion
    2*gamma_k = -gamma_{k-1} + sum_{j=1..k} (-1)^(j-1) gamma_{j-1} gamma_{k-j}
    holds for every odd k <= order.  With gamma_a = N_a / D over the least
    common denominator, it is compared scaled by D^2, in ints.  For odd k
    the terms a = j - 1 and k - 1 - a have one sign, so each pair is summed
    once and doubled."""
    if len(gammas) < order + 1:
        raise ValueError("need at least order+1 parameter coefficients")
    g, common = _over_common_denominator(gammas)
    alt = [-x if a % 2 else x for a, x in enumerate(g)]  # (-1)^a N_a
    for k in range(1, order + 1, 2):
        n, mid = k - 1, k // 2
        rhs = -common * g[n] + 2 * sum(map(mul, alt[:mid], g[n:mid:-1])) + alt[mid] * g[mid]
        if 2 * common * g[k] != rhs:
            return False
    return True
