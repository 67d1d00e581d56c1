"""Exact spectral computations for adjacency matrices.

Everything here runs over Python integers.  Characteristic polynomials come
from the power sums tr(A^j) and Newton's identities (all divisions asserted
exact), by three routes: a dense regular graph is handled through its
sparse complement; a graph with few distinct eigenvalues gets its power
sums from a minimal polynomial that Berlekamp-Massey proposes from a short
walk and an exact check certifies; any other graph counts closed walks
over packed bit rows in O(maxdeg * v^2) big-int additions with a proven
field width.  Factorisation is limited to the shapes that matter for
walk-regular graph families, namely integer roots and quadratic surd pairs
(x^2 - d).
"""

import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .ddg import _class_labels
from .graphs import Graph, GraphError, InternalInvariantError, complement


def char_poly(g: Graph) -> Tuple[int, ...]:
    """Coefficients of det(xI - A), index i holding the x^i coefficient.

    Three routes, chosen by the input.  The walk route (_walk_char_poly)
    costs O(maxdeg * v^2) big-int additions on fields of maxdeg^v's bit
    length, so a dense graph pays for its degree twice.  A k-regular g with
    2k > v - 1 therefore goes through its complement H, which is
    (v-1-k)-regular, by Cvetkovic, Doob and Sachs, Spectra of Graphs
    (1980), Thm 2.6:

        chi_G(x) = (-1)^v (x - k) chi_H(-x - 1) / (x + v - k).

    The all-ones vector carries k in g and v-1-k in H; every other
    eigenvalue l of g is -1-l in H.  So x + v - k divides the numerator,
    and that division is asserted exact: a remainder means corrupted
    input, as an inexact Newton step does.

    The graph the walk runs on, g or H, first tries the minimal-polynomial
    route (_power_sum_char_poly).  Its power sums obey the recurrence of
    its minimal polynomial mu, whose degree L is its number of distinct
    eigenvalues.  From a walk of J steps, J = 8, 16, ... while 4J <= v (so
    never below 32 vertices), Berlekamp-Massey proposes mu, and mu is used
    only when 2L <= J, its coefficients lie within the bound that
    |theta| <= maxdeg gives, and mu(A) = 0 holds exactly on packed rows;
    that bound keeps the certificate's sums within fields of maxdeg^J's
    bit length.  A graph with no certified mu falls back to the walk
    route.
    """
    v = g.v
    k = g.regular_degree()
    if k is None or 2 * k <= v - 1:
        return _power_sum_char_poly(g)
    # q(x) = chi_H(-x - 1) by Horner: q <- q * (-x - 1) + c
    q: List[int] = []
    for c in reversed(_power_sum_char_poly(complement(g))):
        q = [-a - b for a, b in zip(q + [0], [0] + q)]
        q[0] += c
    # times (x - k), then divide by x + v - k
    num = [-k * a + b for a, b in zip(q + [0], [0] + q)]
    out, rem = poly_divmod(num, (v - k, 1))
    if any(rem):
        raise InternalInvariantError("inexact complement division")
    return out if v % 2 == 0 else tuple(-c for c in out)


def _power_sum_char_poly(g: Graph) -> Tuple[int, ...]:
    """char_poly by the minimal polynomial of A, or by the walk route.

    The power sums p_j = tr(A^j) = sum m_i theta_i^j obey the recurrence of
    any mu with mu(A) = 0, whose least degree L is the number of distinct
    eigenvalues: few for the graphs this system is about (3 for a strongly
    regular graph, at most 5 for a divisible design graph, d+1 for the
    d-cube).  So one walk of J_max steps, the largest J = 8, 16, ... with
    4J <= v, counts p_0..p_J, and at each J Berlekamp-Massey proposes mu
    from them.  A proposal is accepted only when 2L <= J, every
    |mu_d| <= C(L, d) * maxdeg^(L-d) (every eigenvalue has
    |theta| <= maxdeg, so the true mu satisfies this), and mu(A) = 0
    holds exactly (_annihilates).  The bound makes
    sum |mu_d| maxdeg^d <= (2 maxdeg)^L <= maxdeg^J for maxdeg >= 2, so the
    walk's fields, of maxdeg^J_max's bit length, hold every certificate
    sum without carry.  An accepted mu extends p_j up to j = v; without
    one, past the last J, below 32 vertices or at maxdeg <= 1, the walk
    route runs unchanged.  A wrong proposal thus costs time and never
    correctness.
    """
    v = g.v
    maxdeg = max(g.degrees(), default=0)
    # top: the largest J = 8, 16, ... with 4J <= v, if there is one
    top = 8
    while 8 * top <= v:
        top *= 2
    if 4 * top > v or maxdeg <= 1:
        return _walk_char_poly(g)
    nbrs = [g.neighbours(i) for i in range(v)]
    width = (maxdeg ** top).bit_length()
    mask = (1 << width) - 1
    rows = [1 << (width * i) for i in range(v)]
    p = [v]
    for j in range(1, top + 1):
        rows = [sum([rows[t] for t in nbrs[i]]) for i in range(v)]
        p.append(sum((rows[i] >> (width * i)) & mask for i in range(v)))
        if j < 8 or j & (j - 1):
            continue
        mu = _berlekamp_massey(p)
        deg = len(mu) - 1
        if (2 * deg <= j
                and all(abs(c) <= math.comb(deg, d) * maxdeg ** (deg - d)
                        for d, c in enumerate(mu))
                and _annihilates(mu, nbrs, width)):
            for n in range(j + 1 - deg, v + 1 - deg):
                p.append(-sum(mu[d] * p[n + d] for d in range(deg)))
            return _newton(p)
    return _walk_char_poly(g)


def _berlekamp_massey(seq: Sequence[int]) -> Tuple[int, ...]:
    """The monic mu of least degree L with sum_d mu_d seq[n+d] = 0 for
    every n + L < len(seq), over GF(2^61 - 1), index d holding the x^d
    coefficient, each lifted to its residue of least absolute value
    (Massey, "Shift-register synthesis and BCH decoding", 1969)."""
    # only a proposal: _annihilates decides over the integers
    prime = (1 << 61) - 1
    s = [x % prime for x in seq]
    # connection polynomials, index i holding the x^i coefficient: c is
    # the current one, b the one before the last length change
    c, b = [1], [1]
    length, gap, last = 0, 1, 1
    for n, x in enumerate(s):
        d = (x + sum(c[i] * s[n - i] for i in range(1, length + 1))) % prime
        if not d:
            gap += 1
            continue
        f = d * pow(last, -1, prime) % prime
        prev = c
        c = c + [0] * (len(b) + gap - len(c))
        for i, y in enumerate(b):
            c[i + gap] = (c[i + gap] - f * y) % prime
        if 2 * length <= n:
            length, b, last, gap = n + 1 - length, prev, d, 1
        else:
            gap += 1
    c += [0] * (length + 1 - len(c))
    half = prime // 2
    return tuple(y - prime if y > half else y
                 for y in reversed(c[:length + 1]))


def _annihilates(mu: Sequence[int], nbrs: Sequence[Sequence[int]],
                 width: int) -> bool:
    """Whether mu(A) = 0, on the packed rows of A^0..A^L.

    Row i of mu(A) vanishes when the terms with mu_d > 0 and those with
    mu_d < 0 sum to the same packed int.  Both sums have non-negative
    fields of at most sum |mu_d| maxdeg^d, which the caller keeps below
    2^width, so no field carries and equal ints mean equal rows.
    """
    v = len(nbrs)
    rows = [1 << (width * i) for i in range(v)]
    pos = [0] * v
    neg = [0] * v
    for d, c in enumerate(mu):
        if d:
            rows = [sum([rows[t] for t in nbrs[i]]) for i in range(v)]
        if c > 0:
            pos = [a + c * r for a, r in zip(pos, rows)]
        elif c < 0:
            neg = [a - c * r for a, r in zip(neg, rows)]
    return pos == neg


def _walk_char_poly(g: Graph) -> Tuple[int, ...]:
    """char_poly by closed-walk counts and Newton's identities.

    The power sums p_j = tr(A^j), j = 1..v, count closed walks of length j.
    Row i of A^j is one int of v fixed-width fields, field t holding the
    number of walks of length j from i to t, so row i of A^(j+1) is the sum
    of the packed rows of A^j over N(i): O(maxdeg * v^2) big-int additions
    in all.  Walk counts are non-negative and at most maxdeg^j <= maxdeg^v,
    so fields of that bit length never carry into one another.
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
    return _newton(p)


def _newton(p: Sequence[int]) -> Tuple[int, ...]:
    """det(xI - A) of a v x v matrix A from p[j] = tr(A^j), j = 1..v, with
    v = len(p) - 1, by Newton's identities.  Their division by the step
    index is asserted exact, so a failure here means corrupted input
    rather than rounding."""
    v = len(p) - 1
    # c[j] is the x^(v-j) coefficient: j c_j = -(c_(j-1) p_1 + ... + c_0 p_j)
    c = [1]
    for step in range(1, v + 1):
        c_step, rem = divmod(
            -sum(map(operator.mul, reversed(c), p[1:step + 1])), step)
        if rem:
            raise InternalInvariantError(
                f"inexact power-sum division at step {step}")
        c.append(c_step)
    return tuple(reversed(c))


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


def _isqrt_exact(d: int) -> Optional[int]:
    """The square root of d >= 0 when d is a perfect square, else None."""
    s = math.isqrt(d)
    return s if s * s == d else None


def _prime_factors(n: int) -> Iterator[Tuple[int, int]]:
    """Yield (p, e) for each prime power p^e exactly dividing n >= 1, p
    ascending, by trial division by 2 and then odd numbers.  Lazily, so a
    caller that stops at one prime skips the rest of the O(sqrt n) search."""
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            yield p, e
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, 1


def squarefree_part(d: int) -> Tuple[int, int]:
    """Write d = s^2 * q with q squarefree; returns (s, q).  Requires d > 0."""
    if d <= 0:
        raise ValueError("need a positive integer")
    s = q = 1
    for p, e in _prime_factors(d):
        s *= p ** (e // 2)
        q *= p ** (e % 2)
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


def factor_adjacency_poly(coeffs: Sequence[int], bound: int) -> SpectrumFactors:
    """Split off integer roots in [-bound, bound] and surd pairs (x^2 - d).

    bound should dominate the spectral radius (the maximum degree works for
    every graph); d ranges over non-squares up to bound^2.
    """
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("expected a monic polynomial")
    p: Tuple[int, ...] = tuple(coeffs)
    roots: List[Tuple[int, int]] = []
    for r in range(bound, -bound - 1, -1):
        mult = 0
        while len(p) > 1 and poly_eval(p, r) == 0:
            p, rem = poly_divmod(p, (-r, 1))
            if any(rem):
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
            if any(rem):
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
    slot.
    """
    k: int
    d1: int
    d2: int
    f1: int
    f2: int
    g1: int
    g2: int


def _expected_factors(k: int, d1: int, d2: int, f1: int, f2: int,
                      g1: int, g2: int) -> Optional[SpectrumFactors]:
    """The complete factorisation of the spectrum k, +/-sqrt(d1) with
    multiplicities f1, f2, and +/-sqrt(d2) with g1, g2, in the order
    factor_adjacency_poly produces; None when an irrational pair has
    unequal conjugate multiplicities, which no integer polynomial has.
    Zero multiplicities are dropped."""
    roots = {k: 1}
    surds: Dict[int, int] = {}
    for d, plus, minus in ((d1, f1, f2), (d2, g1, g2)):
        s = _isqrt_exact(d)
        if s is None:
            if plus != minus:
                return None
            surds[d] = surds.get(d, 0) + plus
        elif s == 0:
            roots[0] = roots.get(0, 0) + plus + minus
        else:
            roots[s] = roots.get(s, 0) + plus
            roots[-s] = roots.get(-s, 0) + minus
    return SpectrumFactors(
        tuple((r, e) for r, e in sorted(roots.items(), reverse=True) if e),
        tuple((d, e) for d, e in sorted(surds.items()) if e), (1,))


def _balanced_attributions(k: int, d1: int, d2: int, ftot: int, gtot: int
                           ) -> Iterator[Tuple[int, int, int, int]]:
    """Every exact solution of k + (f1-f2) sqrt(d1) + (g1-g2) sqrt(d2) = 0.

    The eigenvalue sum of a DDG (the trace of A) must vanish.  Solutions
    (f1, f2, g1, g2) have f1+f2 = ftot, g1+g2 = gtot, all nonnegative, and
    come in ascending f1; for d2 > 0 each f1 fixes g1.  Surds are split by
    squarefree part, so equal irrational parts may cancel jointly while
    distinct ones must vanish separately.  So at most one f1 fits, solved
    directly, unless d1 and d2 share their squarefree part.  For a zero
    discriminant the sign pair merges into the eigenvalue 0 and the whole
    multiplicity is reported in the first slot.
    """
    s1, q1 = squarefree_part(d1) if d1 else (0, 1)
    s2, q2 = squarefree_part(d2) if d2 else (0, 1)
    if not d1:
        f1s: Sequence[int] = (ftot,)
    elif d2 and q2 == q1:
        f1s = range(ftot + 1)
    else:
        # nothing but k (q1 = 1) can cancel the sqrt(q1) term
        # (2 f1 - ftot) s1, so it equals -t and at most one f1 fits
        t = k if q1 == 1 else 0
        f1, odd = divmod(ftot - t // s1, 2)
        f1s = (f1,) if not t % s1 and not odd and 0 <= f1 <= ftot else ()
    for f1 in f1s:
        # the rational part and the sqrt(q1) part, q1 > 1, before the d2 term
        a = (2 * f1 - ftot) * s1
        rat, sur = (k + a, 0) if q1 == 1 else (k, a)
        if not d2:
            if not rat and not sur:
                yield f1, ftot - f1, gtot, 0
            continue
        # (g1-g2) * s2 must cancel the sqrt(q2) part, and nothing else
        # may be left
        if q2 == 1:
            need, rest = -rat, sur
        elif q2 == q1:
            need, rest = -sur, rat
        else:
            need, rest = 0, rat or sur
        if rest or need % s2:
            continue
        dg = need // s2
        if abs(dg) <= gtot and (gtot - dg) % 2 == 0:
            yield f1, ftot - f1, (gtot + dg) // 2, (gtot - dg) // 2


def ddg_spectrum_check(g: Graph, v: int, k: int, lam1: int, lam2: int,
                       m: int, n: int,
                       factors: Optional[SpectrumFactors] = None
                       ) -> DdgSpectrum:
    """Verify that g has the eigenvalue layout forced by DDG parameters.

    Factors the characteristic polynomial exactly, unless the factors of
    char_poly(g) are given, then takes the first multiplicity attribution
    with zero eigenvalue sum, in ascending f1, whose root multiset matches
    the factorisation.  Raises SpectrumMismatch when no attribution fits.
    Factors split off at any bound >= k are the ones at bound k, because a
    k-regular graph has no eigenvalue outside [-k, k].
    """
    params = (v, k, lam1, lam2, m, n)
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
    for f1, f2, g1, g2 in _balanced_attributions(k, d1, d2, v - m, m - 1):
        if _expected_factors(k, d1, d2, f1, f2, g1, g2) == factors:
            return DdgSpectrum(k, d1, d2, f1, f2, g1, g2)
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
    label = _class_labels(g.v, classes)
    for u in range(g.v):
        for w in range(g.v):
            got = (g.rows[u] & g.rows[w]).bit_count()
            expected = k if u == w else lam1 if label[u] == label[w] else lam2
            if got != expected:
                return A2Violation(u, w, got, expected)
    return None
