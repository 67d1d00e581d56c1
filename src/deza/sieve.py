"""Arithmetic feasibility sieves for Deza and divisible design parameters.

Every rule is a necessary condition: "feasible" never claims a graph
exists, it only means no counting, parity, divisibility or eigenvalue
argument rules the tuple out.  Each rule reports pass/fail/skip (plus a
warning status for the one genuinely undecided degenerate case) so a
verdict's trace can be read as a proof sketch.  The DDG rules D1-D8 live
in `_ddg_rules` alone.  `ddg_sieve` wraps their trace in a verdict.  The
scans over tuple families yield the trace itself; they are the one scan
path, and `deza sieve scan` prints from them.
"""

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .classify import beta_formula
from .graphs import GraphError
from .spectra import _balanced_attributions, _prime_factors

DdgParams = Tuple[int, int, int, int, int, int]
Rule = Tuple[str, str, Optional[dict]]   # (rule, status, witness)


@dataclass(frozen=True)
class RuleResult:
    rule: str
    status: str                      # "pass" / "fail" / "skip" / "warn"
    witness: Optional[dict] = None


@dataclass(frozen=True)
class SieveVerdict:
    feasible: bool
    trace: Tuple[RuleResult, ...]
    warnings: Tuple[str, ...]

    def failures(self) -> Tuple[str, ...]:
        return tuple(r.rule for r in self.trace if r.status == "fail")

    def rule(self, name: str) -> RuleResult:
        for r in self.trace:
            if r.rule == name:
                return r
        raise KeyError(name)


def _verdict(trace: List[RuleResult]) -> SieveVerdict:
    warnings = tuple(f"{r.rule}: {r.witness.get('note', '')}"
                     for r in trace if r.status == "warn" and r.witness)
    return SieveVerdict(all(r.status != "fail" for r in trace),
                        tuple(trace), warnings)


def _two_is_square(n: int) -> bool:
    """Whether x^2 = 2 (mod n) is solvable, in O(sqrt n): exactly when 4 does
    not divide n and every odd prime factor of n is 1 or 7 mod 8 (Hensel)."""
    return n % 4 != 0 and all(p % 8 in (1, 7)
                              for p, _ in _prime_factors(n) if p > 2)


def deza_sieve(v: int, k: int, b: int, a: int) -> SieveVerdict:
    """Counting feasibility of a Deza parameter tuple (v, k, b, a).

    R1 handshake parity; R2 integrality and range of the b-partner count
    beta = (k(k-1) - a(v-1)) / (b-a); R3 two distinct values; R4 the
    union bound v >= 2k - b + 2 for non-adjacent pairs (fires only when
    v > k+1, so a complete graph cannot trip it); R5 and R6 the upper
    bounds on v when b = k-2 and a is k-3 resp. k-4.
    """
    if not 0 <= a <= b <= k < v:
        raise GraphError(f"need 0 <= a <= b <= k < v, got {(v, k, b, a)}")
    trace: List[RuleResult] = []

    trace.append(RuleResult("R1", "pass" if v * k % 2 == 0 else "fail",
                            {"vk": v * k}))

    if b == a:
        trace.append(RuleResult("R2", "skip", {"note": "b == a"}))
        trace.append(RuleResult("R3", "fail", {"b": b, "a": a}))
    else:
        beta = beta_formula(v, k, b, a)
        ok = beta.denominator == 1 and 0 < beta <= v - 1
        trace.append(RuleResult("R2", "pass" if ok else "fail",
                                {"beta": str(beta)}))
        trace.append(RuleResult("R3", "pass", None))

    if v > k + 1:
        bound = 2 * k - b + 2
        trace.append(RuleResult("R4", "pass" if v >= bound else "fail",
                                {"bound": bound}))
    else:
        trace.append(RuleResult("R4", "skip", {"note": "complete graph"}))

    for rule, gap, top in (("R5", 3, 6), ("R6", 4, 12)):
        # v < k + gap + top/(k-gap), kept in integers
        if b == k - 2 and a == k - gap and k - gap > 0:
            lhs = (v - k - gap) * (k - gap)
            trace.append(RuleResult(rule, "pass" if lhs < top else "fail",
                                    {"lhs": lhs}))
        else:
            trace.append(RuleResult(rule, "skip", None))

    return _verdict(trace)


def _ddg_rules(v: int, k: int, lam1: int, lam2: int,
               m: int, n: int) -> List[Rule]:
    """The one home of D1-D8: the input check, then each rule's
    (rule, status, witness) in trace order.  `ddg_sieve` wraps them in a
    verdict; the scans yield them as they are."""
    if not (1 <= m <= v and 1 <= n <= v
            and 0 <= lam1 <= k and 0 <= lam2 <= k and k < v):
        raise GraphError(
            f"need 0 <= lam1, lam2 <= k < v and 1 <= m, n <= v, "
            f"got {(v, k, lam1, lam2, m, n)}")
    trace: List[Rule] = []

    trace.append(("D1", "pass" if v == m * n else "fail",
                  {"v": v, "mn": m * n}))

    rhs = k + lam1 * (n - 1) + lam2 * n * (m - 1)
    trace.append(("D2", "pass" if k * k == rhs else "fail",
                  {"k2": k * k, "rhs": rhs}))

    d1 = k - lam1
    d2 = k * k - lam2 * v
    trace.append(("D3", "pass" if d1 >= 0 and d2 >= 0 else "fail",
                  {"d1": d1, "d2": d2}))

    if d1 >= 0 and d2 >= 0 and v == m * n:
        sol = next(_balanced_attributions(k, d1, d2, v - m, m - 1), None)
        if sol is None:
            trace.append(("D4", "fail", {"d1": d1, "d2": d2}))
        else:
            f1, f2, g1, g2 = sol
            trace.append(("D4", "pass",
                          {"f1": f1, "f2": f2, "g1": g1, "g2": g2}))
    else:
        trace.append(("D4", "skip", {"note": "needs D1 and D3"}))

    if k - 2 not in (lam1, lam2) or lam1 == lam2:
        trace.append(("D5", "skip", None))
    elif lam1 == k - 2:
        trace.append(("D5", "pass", None))
    elif lam1 > k - 2:
        # k-2 is the smaller of the two constants; the forcing argument
        # presumes it is the larger, so nothing can be concluded
        trace.append(("D5", "pass",
                      {"note": "k-2 is the smaller constant"}))
    elif k < 4:
        # the contradiction window v < k+2+4/(k-2) <= 2k-b+2 closes
        # only from degree 4 on
        trace.append(("D5", "pass",
                      {"note": "bound window open below k=4"}))
    elif k * k > lam2 * v:
        trace.append(("D5", "fail",
                      {"note": "within-class constant forced to k-2"}))
    elif k * k == lam2 * v:
        trace.append(("D5", "warn",
                      {"note": "degenerate equality k^2 = "
                               "lam2 * v left undecided"}))
    else:
        trace.append(("D5", "pass", None))

    if lam1 == k - 2:
        trace.append(("D6", "pass" if (k * k - 2) % n == 0 else "fail",
                      {"k2_minus_2": k * k - 2, "n": n}))
        trace.append(("D7", "pass" if _two_is_square(n) else "fail",
                      {"n": n}))
        if n == 2 and lam2 > 0:
            trace.append(("D8", "fail", {"lam2": lam2, "n": n}))
        else:
            trace.append(("D8", "pass" if n == 2 else "skip", None))
    else:
        trace.append(("D6", "skip", None))
        trace.append(("D7", "skip", None))
        trace.append(("D8", "skip", None))

    return trace


def ddg_sieve(v: int, k: int, lam1: int, lam2: int,
              m: int, n: int) -> SieveVerdict:
    """Feasibility of a divisible design tuple (v, k, lam1, lam2, m, n).

    D1 size split; D2 the row-sum identity of A^2; D3 nonnegative
    eigenvalue discriminants; D4 an exact multiplicity attribution with
    f1+f2 = v-m and g1+g2 = m-1; D5 the orientation forcing when k-2 is
    the larger of the two constants; D6/D7/D8 the divisibility, quadratic
    residue and n=2 consequences of lam1 = k-2.  D7 (2 is a square mod n)
    passes whenever D6 does, with witness x = k.  The rules themselves
    live in `_ddg_rules` alone.
    """
    return _verdict([RuleResult(*r)
                     for r in _ddg_rules(v, k, lam1, lam2, m, n)])


def scan_n2_tuples(kmax: int) -> Iterator[Tuple[DdgParams, List[Rule]]]:
    """Yield (params, rules) for every (2m, k, k-2, a, m, 2) tuple that
    survives D2, with k <= kmax; rules is the `_ddg_rules` trace, so a
    caller who wants a verdict calls `ddg_sieve(*params)`.

    For fixed k and a >= 1 the counting identity pins m: it reduces to
    a(m-1) = (k^2 - 2k + 2)/2, which is integral only for even k and
    then has at most one m per divisor a.  All other m fail D2 outright,
    so these are the interesting slice of the infinite family.
    """
    for k in range(2, kmax + 1, 2):
        half = (k * k - 2 * k + 2) // 2
        for a in range(1, k + 1):
            if half % a == 0:
                # a <= k gives v = 2m >= 2 + (k^2-2k+2)/k = k + 2/k > k
                m = half // a + 1
                params = (2 * m, k, k - 2, a, m, 2)
                yield params, _ddg_rules(*params)


def scan_small_n_tuples(kmax: int, mmax: int
                        ) -> Iterator[Tuple[DdgParams, List[Rule]]]:
    """Yield (params, rules) for the tuples with lam1 = k-2, class size
    n in 3..6, k <= kmax and m <= mmax; rules is the `_ddg_rules` trace,
    so a caller who wants a verdict calls `ddg_sieve(*params)`."""
    for n in (3, 4, 5, 6):
        for k in range(2, kmax + 1):
            for m in range(2, mmax + 1):
                if k < m * n:
                    for lam2 in range(0, k + 1):
                        params = (m * n, k, k - 2, lam2, m, n)
                        yield params, _ddg_rules(*params)
