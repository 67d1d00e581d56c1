"""Arithmetic feasibility sieves for Deza and divisible design parameters.

Every rule is a necessary condition: "feasible" never claims a graph
exists, it only means no counting, parity, divisibility or eigenvalue
argument rules the tuple out.  Each rule reports pass/fail/skip (plus a
warning status for the one genuinely undecided degenerate case) so a
verdict's trace can be read as a proof sketch.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .classify import beta_formula
from .graphs import GraphError
from .spectra import _balanced_attributions

DdgParams = Tuple[int, int, int, int, int, int]


@dataclass(frozen=True)
class RuleResult:
    rule: str
    status: str                      # "pass" / "fail" / "skip" / "warn"
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        return {"rule": self.rule, "status": self.status,
                "witness": self.witness}


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

    def as_dict(self) -> dict:
        return {"feasible": self.feasible,
                "trace": [r.as_dict() for r in self.trace],
                "warnings": list(self.warnings)}


def _verdict(trace: List[RuleResult]) -> SieveVerdict:
    warnings = tuple(f"{r.rule}: {r.witness.get('note', '')}"
                     for r in trace if r.status == "warn" and r.witness)
    return SieveVerdict(all(r.status != "fail" for r in trace),
                        tuple(trace), warnings)


def quadratic_residue(c: int, n: int) -> bool:
    """True when x^2 = c (mod n) has a solution; brute force scan."""
    if n < 1:
        raise ValueError("modulus must be positive")
    c %= n
    return any(x * x % n == c for x in range(n))


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

    if b == k - 2 and a == k - 3 and k - 3 > 0:
        # v < k + 3 + 6/(k-3), kept in integers
        ok = (v - k - 3) * (k - 3) < 6
        trace.append(RuleResult("R5", "pass" if ok else "fail",
                                {"lhs": (v - k - 3) * (k - 3)}))
    else:
        trace.append(RuleResult("R5", "skip", None))

    if b == k - 2 and a == k - 4 and k - 4 > 0:
        # v < k + 4 + 12/(k-4)
        ok = (v - k - 4) * (k - 4) < 12
        trace.append(RuleResult("R6", "pass" if ok else "fail",
                                {"lhs": (v - k - 4) * (k - 4)}))
    else:
        trace.append(RuleResult("R6", "skip", None))

    return _verdict(trace)


def ddg_sieve(v: int, k: int, lam1: int, lam2: int,
              m: int, n: int) -> SieveVerdict:
    """Feasibility of a divisible design tuple (v, k, lam1, lam2, m, n).

    D1 size split; D2 the row-sum identity of A^2; D3 nonnegative
    eigenvalue discriminants; D4 an exact multiplicity attribution with
    f1+f2 = v-m and g1+g2 = m-1; D5 the orientation forcing when k-2 is
    the larger of the two constants; D6/D7/D8 the divisibility, quadratic
    residue and n=2 consequences of lam1 = k-2.
    """
    if not (v >= 1 and m >= 1 and n >= 1
            and 0 <= lam1 <= k and 0 <= lam2 <= k and k < v):
        raise GraphError(
            f"need 0 <= lam1, lam2 <= k < v and m, n >= 1, "
            f"got {(v, k, lam1, lam2, m, n)}")
    trace: List[RuleResult] = []

    trace.append(RuleResult("D1", "pass" if v == m * n else "fail",
                            {"v": v, "mn": m * n}))

    rhs = k + lam1 * (n - 1) + lam2 * n * (m - 1)
    trace.append(RuleResult("D2", "pass" if k * k == rhs else "fail",
                            {"k2": k * k, "rhs": rhs}))

    d1 = k - lam1
    d2 = k * k - lam2 * v
    trace.append(RuleResult("D3", "pass" if d1 >= 0 and d2 >= 0 else "fail",
                            {"d1": d1, "d2": d2}))

    if d1 >= 0 and d2 >= 0 and v == m * n:
        sol = next(_balanced_attributions(k, d1, d2, v - m, m - 1), None)
        if sol is None:
            trace.append(RuleResult("D4", "fail", {"d1": d1, "d2": d2}))
        else:
            f1, f2, g1, g2 = sol
            trace.append(RuleResult("D4", "pass",
                                    {"f1": f1, "f2": f2,
                                     "g1": g1, "g2": g2}))
    else:
        trace.append(RuleResult("D4", "skip",
                                {"note": "needs D1 and D3"}))

    if k - 2 not in (lam1, lam2) or lam1 == lam2:
        trace.append(RuleResult("D5", "skip", None))
    elif lam1 == k - 2:
        trace.append(RuleResult("D5", "pass", None))
    elif lam1 > k - 2:
        # k-2 is the smaller of the two constants; the forcing argument
        # presumes it is the larger, so nothing can be concluded
        trace.append(RuleResult("D5", "pass",
                                {"note": "k-2 is the smaller constant"}))
    elif k < 4:
        # the contradiction window v < k+2+4/(k-2) <= 2k-b+2 closes
        # only from degree 4 on
        trace.append(RuleResult("D5", "pass",
                                {"note": "bound window open below k=4"}))
    elif k * k > lam2 * v:
        trace.append(RuleResult("D5", "fail",
                                {"note": "within-class constant forced "
                                         "to k-2"}))
    elif k * k == lam2 * v:
        trace.append(RuleResult("D5", "warn",
                                {"note": "degenerate equality k^2 = "
                                         "lam2 * v left undecided"}))
    else:
        trace.append(RuleResult("D5", "pass", None))

    if lam1 == k - 2:
        trace.append(RuleResult(
            "D6", "pass" if (k * k - 2) % n == 0 else "fail",
            {"k2_minus_2": k * k - 2, "n": n}))
        trace.append(RuleResult(
            "D7", "pass" if quadratic_residue(2, n) else "fail", {"n": n}))
        if n == 2 and lam2 > 0:
            trace.append(RuleResult("D8", "fail",
                                    {"lam2": lam2, "n": n}))
        else:
            trace.append(RuleResult("D8", "pass" if n == 2 else "skip",
                                    None))
    else:
        trace.append(RuleResult("D6", "skip", None))
        trace.append(RuleResult("D7", "skip", None))
        trace.append(RuleResult("D8", "skip", None))

    return _verdict(trace)


def scan_n2_tuples(kmax: int) -> List[Tuple[DdgParams, SieveVerdict]]:
    """Verdicts for every (2m, k, k-2, a, m, 2) tuple surviving D2, k <= kmax.

    For fixed k and a >= 1 the counting identity pins m: it reduces to
    a(m-1) = (k^2 - 2k + 2)/2, which is integral only for even k and
    then has at most one m per divisor a.  All other m fail D2 outright,
    so this list is the interesting slice of the infinite family.
    """
    out = []
    for k in range(2, kmax + 1):
        target = k * k - 2 * k + 2
        if target % 2:
            continue
        half = target // 2
        for a in range(1, k + 1):
            if half % a:
                continue
            m = half // a + 1
            v = 2 * m
            if k >= v:
                continue
            params: DdgParams = (v, k, k - 2, a, m, 2)
            out.append((params, ddg_sieve(*params)))
    return out


def scan_small_n_tuples(kmax: int, mmax: int
                        ) -> List[Tuple[DdgParams, SieveVerdict]]:
    """Verdicts for tuples with lam1 = k-2 and class size n in 3..6."""
    out = []
    for n in (3, 4, 5, 6):
        for k in range(2, kmax + 1):
            for m in range(2, mmax + 1):
                v = m * n
                if k >= v:
                    continue
                for lam2 in range(0, k + 1):
                    params: DdgParams = (v, k, k - 2, lam2, m, n)
                    out.append((params, ddg_sieve(*params)))
    return out
