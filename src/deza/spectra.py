"""Exact spectral computations for adjacency matrices.

Everything here runs over Python integers.  Characteristic polynomials come
from closed-walk counts tr(A^j), summed over packed bit rows in
O(maxdeg * v^2) big-int additions with a proven field width, and Newton's
identities (all divisions asserted exact).  Factorisation is limited to
the shapes that matter for walk-regular graph families, namely integer
roots and quadratic surd pairs (x^2 - d).
"""

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .graphs import Graph, GraphError, InternalInvariantError


def char_poly(g: Graph) -> Tuple[int, ...]:
    """Coefficients of det(xI - A), index i holding the x^i coefficient.

    The power sums p_j = tr(A^j), j = 1..v, count closed walks of length j.
    Row i of A^j is one int of v fixed-width fields, field t holding the
    number of walks of length j from i to t, so row i of A^(j+1) is the sum
    of the packed rows of A^j over N(i): O(maxdeg * v^2) big-int additions
    in all.  Walk counts are non-negative and at most maxdeg^j <= maxdeg^v,
    so fields of that bit length never carry into one another.  Newton's
    identities turn the p_j into the coefficients; their division by the
    step index is asserted exact, so a failure here means corrupted input
    rather than rounding.
    """
    v = g.v
    nbrs = [g.neighbours(i) for i in range(v)]
    width = max(1, (max(g.degrees(), default=0) ** v).bit_length())
    mask = (1 << width) - 1
    rows = [1 << (width * i) for i in range(v)]
    p = [0]  # p[j] = tr(A^j); p[0] is not used
    for _ in range(v):
        rows = [sum([rows[t] for t in nbrs[i]]) for i in range(v)]
        p.append(sum((rows[i] >> (width * i)) & mask for i in range(v)))
    # c[j] is the x^(v-j) coefficient: j c_j = -(c_(j-1) p_1 + ... + c_0 p_j)
    c = [1]
    for step in range(1, v + 1):
        c_step, rem = divmod(
            -sum(c[step - i] * p[i] for i in range(1, step + 1)), step)
        if rem:
            raise InternalInvariantError(
                f"inexact power-sum division at step {step}")
        c.append(c_step)
    return tuple(reversed(c))


def poly_mul(p: Sequence[int], q: Sequence[int]) -> Tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return tuple(out)


def poly_eval(p: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_divmod(p: Sequence[int], q: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Long division by a monic integer polynomial; stays in the integers."""
    if not q or q[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(p)
    dq = len(q) - 1
    if dq == 0:
        return tuple(rem), (0,)
    quo = [0] * max(1, len(p) - dq)
    for top in range(len(rem) - 1, dq - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        quo[top - dq] = c
        for j in range(dq + 1):
            rem[top - dq + j] -= c * q[j]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return tuple(quo), tuple(rem)


def _is_zero(p: Sequence[int]) -> bool:
    return all(c == 0 for c in p)


def _isqrt_exact(d: int) -> Optional[int]:
    if d < 0:
        return None
    s = math.isqrt(d)
    return s if s * s == d else None


def squarefree_part(d: int) -> Tuple[int, int]:
    """Write d = s^2 * q with q squarefree; returns (s, q).  Requires d > 0."""
    if d <= 0:
        raise ValueError("need a positive integer")
    s, q, f = 1, 1, 2
    n = d
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            s *= f ** (e // 2)
            if e % 2:
                q *= f
        f += 1
    if n > 1:
        q *= n
    return s, q


@dataclass(frozen=True)
class SpectrumFactors:
    """Partial factorisation of a monic integer polynomial.

    int_roots lists (root, multiplicity) with roots descending; surd_pairs
    lists (d, multiplicity) for factors (x^2 - d)^multiplicity with d
    positive and not a perfect square, ascending in d.  residual is the
    monic leftover, (1,) when the split is complete.
    """
    int_roots: Tuple[Tuple[int, int], ...]
    surd_pairs: Tuple[Tuple[int, int], ...]
    residual: Tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "int_roots": [list(t) for t in self.int_roots],
            "surd_pairs": [list(t) for t in self.surd_pairs],
            "residual": list(self.residual),
        }


def factor_adjacency_poly(coeffs: Sequence[int], bound: int) -> SpectrumFactors:
    """Split off integer roots in [-bound, bound] and surd pairs (x^2 - d).

    bound should dominate the spectral radius (the degree of a regular
    graph works); d ranges over non-squares up to bound^2.
    """
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("expected a monic polynomial")
    p: Tuple[int, ...] = tuple(coeffs)
    roots: List[Tuple[int, int]] = []
    for r in range(bound, -bound - 1, -1):
        mult = 0
        while len(p) > 1 and poly_eval(p, r) == 0:
            p, rem = poly_divmod(p, (-r, 1))
            if not _is_zero(rem):
                raise InternalInvariantError("inexact root division")
            mult += 1
        if mult:
            roots.append((r, mult))
    surds: List[Tuple[int, int]] = []
    for d in range(2, bound * bound + 1):
        if _isqrt_exact(d) is not None:
            continue
        mult = 0
        # p(x) = E(x^2) + x*O(x^2), so p(sqrt d) = E(d) + sqrt(d)*O(d); as d
        # is not a square, x^2 - d divides p iff E(d) = O(d) = 0
        while (len(p) > 2 and poly_eval(p[0::2], d) == 0
               and poly_eval(p[1::2], d) == 0):
            p, rem = poly_divmod(p, (-d, 0, 1))
            if not _is_zero(rem):
                raise InternalInvariantError("inexact surd division")
            mult += 1
        if mult:
            surds.append((d, mult))
    return SpectrumFactors(tuple(roots), tuple(surds), p)


class SpectrumMismatch(GraphError):
    """Adjacency spectrum does not fit the divisible-design shape.

    Carries the attempted parameters, the factorisation actually found,
    and a short reason; audits treat this as the discrepancy signal.
    """

    def __init__(self, params: Tuple[int, int, int, int, int, int],
                 factors: Optional[SpectrumFactors], reason: str):
        self.params = params
        self.factors = factors
        self.reason = reason
        super().__init__(
            f"spectrum mismatch for parameters {params}: {reason}")


@dataclass(frozen=True)
class DdgSpectrum:
    """Verified eigenvalue layout of a divisible design graph.

    The eigenvalues besides k are +/-sqrt(d1) with multiplicities f1, f2
    summing to v - m, and +/-sqrt(d2) with multiplicities g1, g2 summing
    to m - 1.  When a discriminant is zero the sign pair collapses to the
    eigenvalue 0; the merged multiplicity is then reported in the first
    slot and the matching degenerate flag is set.
    """
    k: int
    d1: int
    d2: int
    f1: int
    f2: int
    g1: int
    g2: int
    degenerate_d1_zero: bool
    degenerate_d2_zero: bool
    factors: SpectrumFactors

    def as_dict(self) -> dict:
        return {
            "k": self.k, "d1": self.d1, "d2": self.d2,
            "f1": self.f1, "f2": self.f2, "g1": self.g1, "g2": self.g2,
            "degenerate_d1_zero": self.degenerate_d1_zero,
            "degenerate_d2_zero": self.degenerate_d2_zero,
            "factors": self.factors.as_dict(),
        }


def _expected_multiset(k: int, d1: int, d2: int, f1: int, f2: int,
                       g1: int, g2: int) -> Dict[Tuple, int]:
    out: Dict[Tuple, int] = {("int", k): 1}

    def add(d: int, plus: int, minus: int) -> None:
        s = _isqrt_exact(d)
        if s is not None:
            if s == 0:
                out[("int", 0)] = out.get(("int", 0), 0) + plus + minus
            else:
                if plus:
                    out[("int", s)] = out.get(("int", s), 0) + plus
                if minus:
                    out[("int", -s)] = out.get(("int", -s), 0) + minus
        else:
            if plus != minus:
                # irrational roots with unequal conjugate multiplicities
                # cannot occur in an integer polynomial
                out[("impossible",)] = 1
            elif plus:
                out[("surd", d)] = out.get(("surd", d), 0) + plus

    add(d1, f1, f2)
    add(d2, g1, g2)
    return out


def _balanced_attributions(k: int, d1: int, d2: int, ftot: int, gtot: int
                           ) -> Iterator[Tuple[int, int, int, int]]:
    """Every exact solution of k + (f1-f2) sqrt(d1) + (g1-g2) sqrt(d2) = 0.

    The eigenvalue sum of a DDG (the trace of A) must vanish.  Solutions
    (f1, f2, g1, g2) have f1+f2 = ftot, g1+g2 = gtot, all nonnegative, and
    come in ascending f1; for d2 > 0 each f1 fixes g1.  Surds are split by
    squarefree part, so equal irrational parts may cancel jointly while
    distinct ones must vanish separately.  For a zero discriminant the
    sign pair merges into the eigenvalue 0 and the whole multiplicity is
    reported in the first slot.
    """
    s1, q1 = squarefree_part(d1) if d1 else (0, 1)
    s2, q2 = squarefree_part(d2) if d2 else (0, 1)
    for f1 in range(ftot + 1) if d1 else (ftot,):
        # coefficient of sqrt(q) for each squarefree q, before the d2 term
        parts = {1: k}
        if d1:
            parts[q1] = parts.get(q1, 0) + (2 * f1 - ftot) * s1
        if not d2:
            if not any(parts.values()):
                yield f1, ftot - f1, gtot, 0
            continue
        # (g1-g2) * s2 must cancel the sqrt(q2) part, and nothing else
        # may be left
        need = -parts.pop(q2, 0)
        if any(parts.values()) or need % s2:
            continue
        dg = need // s2
        if abs(dg) <= gtot and (gtot - dg) % 2 == 0:
            yield f1, ftot - f1, (gtot + dg) // 2, (gtot - dg) // 2


def ddg_spectrum_check(g: Graph, v: int, k: int, lam1: int, lam2: int,
                       m: int, n: int) -> DdgSpectrum:
    """Verify that g has the eigenvalue layout forced by DDG parameters.

    Factors the characteristic polynomial exactly, then takes the first
    multiplicity attribution with zero eigenvalue sum, in ascending f1,
    whose root multiset matches the factorisation.  Raises
    SpectrumMismatch when no attribution fits.
    """
    return _ddg_spectrum(g, (v, k, lam1, lam2, m, n))


def _ddg_spectrum(g: Graph, params: Tuple[int, int, int, int, int, int],
                  factors: Optional[SpectrumFactors] = None) -> DdgSpectrum:
    """ddg_spectrum_check, reusing the factors of char_poly(g) if given.

    Factors split off at any bound >= k are the ones at bound k, because a
    k-regular graph has no eigenvalue outside [-k, k].
    """
    v, k, lam1, lam2, m, n = params
    if g.v != v or m * n != v:
        raise GraphError(f"parameter mismatch: graph on {g.v} vertices, "
                         f"parameters {params}")
    d1 = k - lam1
    d2 = k * k - lam2 * v
    if d1 < 0 or d2 < 0:
        raise SpectrumMismatch(params, None,
                               f"negative discriminant (d1={d1}, d2={d2})")
    if factors is None:
        factors = factor_adjacency_poly(char_poly(g), k)
    if factors.residual != (1,):
        raise SpectrumMismatch(params, factors,
                               "characteristic polynomial has a factor "
                               "outside the integer/surd-pair shape")
    actual: Dict[Tuple, int] = {}
    for r, mult in factors.int_roots:
        actual[("int", r)] = mult
    for d, mult in factors.surd_pairs:
        actual[("surd", d)] = mult

    for f1, f2, g1, g2 in _balanced_attributions(k, d1, d2, v - m, m - 1):
        if _expected_multiset(k, d1, d2, f1, f2, g1, g2) == actual:
            return DdgSpectrum(k, d1, d2, f1, f2, g1, g2,
                               d1 == 0, d2 == 0, factors)
    raise SpectrumMismatch(params, factors,
                           "no multiplicity attribution matches the "
                           "factored spectrum with zero eigenvalue sum")


@dataclass(frozen=True)
class A2Violation:
    """First entry where A^2 deviates from the block-constant pattern."""
    u: int
    w: int
    got: int
    expected: int


def adjacency_square_identity(g: Graph, classes: Sequence[Sequence[int]],
                              lam1: int, lam2: int,
                              k: int) -> Optional[A2Violation]:
    """Check A^2 = kI + lam1 (C - I) + lam2 (J - C) entrywise.

    C is the class-equality indicator of the given partition.  Returns the
    first violating entry in row-major order, or None when the identity
    holds everywhere.
    """
    label = [-1] * g.v
    for idx, cls in enumerate(classes):
        for x in cls:
            if not 0 <= x < g.v:
                raise GraphError(f"partition names vertex {x} outside range")
            if label[x] != -1:
                raise GraphError(f"partition repeats vertex {x}")
            label[x] = idx
    if any(t == -1 for t in label):
        missing = label.index(-1)
        raise GraphError(f"partition misses vertex {missing}")
    for u in range(g.v):
        for w in range(g.v):
            if u == w:
                got = g.degree(u)
                expected = k
            else:
                got = (g.rows[u] & g.rows[w]).bit_count()
                expected = lam1 if label[u] == label[w] else lam2
            if got != expected:
                return A2Violation(u, w, got, expected)
    return None
