import dataclasses
import hashlib
import json

import pytest

from deza import cli
from deza.catalog import catalog_names, construct
from deza.census import generate_regular
from deza.classify import beta_formula, classify
from deza.sieve import (
    RuleResult,
    _two_is_square,
    ddg_sieve,
    deza_sieve,
    scan_n2_tuples,
    scan_small_n_tuples,
)
from oracle import quadratic_residue


class TestQuadraticResidue:
    def test_known_values(self):
        assert quadratic_residue(2, 7)        # 3^2 = 9 = 2 (mod 7)
        assert not quadratic_residue(2, 3)
        assert not quadratic_residue(2, 4)
        assert not quadratic_residue(2, 5)
        assert not quadratic_residue(2, 6)
        assert not quadratic_residue(2, 8)
        assert quadratic_residue(0, 1)
        assert quadratic_residue(2, 1)
        assert quadratic_residue(2, 2)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            quadratic_residue(2, 0)

    def test_factor_rule_matches_scan(self):
        # D7's rule: 4 does not divide n and every odd prime factor of n
        # is 1 or 7 mod 8
        for n in range(1, 3001):
            assert _two_is_square(n) == quadratic_residue(2, n), n

    def test_factor_rule_on_a_large_prime(self):
        # 999999999989 is prime and 5 mod 8; the scan would take hours
        assert not _two_is_square(999999999989)
        assert _two_is_square(2 * 7 ** 9 * 1000000007)
        verdict = ddg_sieve(999999999989, 3, 1, 0, 1, 999999999989)
        assert verdict.rule("D7").status == "fail"


class TestDezaSieve:
    def test_beta_three_halves_rejected(self):
        for tup in ((18, 5, 3, 1), (18, 13, 11, 9)):
            verdict = deza_sieve(*tup)
            assert not verdict.feasible
            assert verdict.failures() == ("R2",)
            assert verdict.rule("R2").witness == {"beta": "3/2"}

    def test_realized_tuples_pass(self):
        realized = [
            (10, 3, 1, 0),    # Petersen
            (10, 6, 4, 3),    # its complement
            (9, 4, 2, 1),     # 3x3 rook
            (8, 3, 2, 0),     # cube
            (16, 4, 2, 0),    # 4-cube
            (14, 3, 1, 0),    # Fano incidence
            (14, 4, 2, 0),    # Fano non-incidence
            (8, 4, 2, 0),     # grid 4x2
            (16, 12, 10, 8),  # complement of two cubes
            (24, 20, 18, 16),  # complement of three cubes
            (6, 4, 4, 2),     # octahedron
            (4, 2, 2, 0),     # C4
            (6, 2, 1, 0),     # C6
            (10, 6, 4, 3),    # SRG (10,6,3,4) as a Deza tuple
            (8, 6, 6, 4),     # cocktail party on 8
        ]
        for tup in realized:
            verdict = deza_sieve(*tup)
            assert verdict.feasible, (tup, verdict.failures())

    def test_beta_values(self):
        assert deza_sieve(14, 4, 2, 0).rule("R2").witness == {"beta": "6"}
        assert deza_sieve(10, 3, 1, 0).rule("R2").witness == {"beta": "6"}

    def test_upper_bound_rules_fire(self):
        # b = k-2, a = k-3: (v-k-3)(k-3) < 6 fails at v=17, k=9
        v17 = deza_sieve(17, 9, 7, 6)
        assert "R5" in v17.failures()
        # b = k-2, a = k-4: (v-k-4)(k-4) < 12 fails at v=21, k=16
        v21 = deza_sieve(21, 16, 14, 12)
        assert "R6" in v21.failures()
        # complement of two cubes sits exactly on the R6 boundary
        ok = deza_sieve(16, 12, 10, 8)
        assert ok.rule("R6").status == "pass"
        assert ok.rule("R6").witness == {"lhs": 0}

    def test_parity_rule(self):
        verdict = deza_sieve(9, 3, 1, 0)
        assert verdict.rule("R1").status == "fail"

    def test_single_value_rejected(self):
        verdict = deza_sieve(5, 4, 3, 3)
        assert not verdict.feasible
        assert verdict.rule("R3").status == "fail"
        assert verdict.rule("R2").status == "skip"

    def test_union_bound(self):
        # v >= 2k - b + 2 fails for (8, 5, 2, 1)
        verdict = deza_sieve(8, 5, 2, 1)
        assert verdict.rule("R4").status == "fail"
        assert verdict.rule("R4").witness == {"bound": 10}
        # complete graphs skip the rule
        assert deza_sieve(5, 4, 3, 1).rule("R4").status == "skip"

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            deza_sieve(4, 2, 3, 1)
        with pytest.raises(ValueError):
            deza_sieve(4, 5, 1, 0)
        with pytest.raises(ValueError):
            deza_sieve(4, 2, 1, 2)


class TestDdgSieve:
    def test_fano_tuples_pass(self):
        non = ddg_sieve(14, 4, 2, 0, 2, 7)
        assert non.feasible and not non.warnings
        assert non.rule("D2").witness == {"k2": 16, "rhs": 16}
        assert non.rule("D4").witness == {"f1": 6, "f2": 6, "g1": 0, "g2": 1}
        assert non.rule("D6").status == "pass"
        assert non.rule("D7").status == "pass"
        inc = ddg_sieve(14, 3, 1, 0, 2, 7)
        assert inc.feasible
        assert inc.rule("D4").witness == {"f1": 6, "f2": 6, "g1": 0, "g2": 1}

    def test_realized_tuples_pass(self):
        realized = [
            (8, 3, 2, 0, 2, 4),    # cube, also two K4s
            (4, 2, 2, 0, 2, 2),    # C4
            (6, 2, 1, 0, 2, 3),    # C6
            (6, 4, 4, 2, 3, 2),    # octahedron
            (8, 6, 6, 4, 4, 2),    # cocktail party
            (6, 3, 3, 0, 2, 3),    # K33
        ]
        for tup in realized:
            verdict = ddg_sieve(*tup)
            assert verdict.feasible, (tup, verdict.failures())

    def test_grid_4x2_degenerate_warning(self):
        verdict = ddg_sieve(8, 4, 0, 2, 4, 2)
        assert verdict.feasible
        assert verdict.rule("D5").status == "warn"
        assert len(verdict.warnings) == 1
        assert verdict.rule("D4").witness == {"f1": 1, "f2": 3,
                                              "g1": 3, "g2": 0}

    def test_grid_4x2_listed_orientation_infeasible(self):
        # the (8,4,2,0,2,4) reading fails the counting identity
        verdict = ddg_sieve(8, 4, 2, 0, 2, 4)
        assert not verdict.feasible
        assert verdict.rule("D2").status == "fail"
        assert verdict.rule("D2").witness == {"k2": 16, "rhs": 10}

    def test_octahedron_smaller_constant(self):
        verdict = ddg_sieve(6, 4, 4, 2, 3, 2)
        d5 = verdict.rule("D5")
        assert d5.status == "pass"
        assert d5.witness == {"note": "k-2 is the smaller constant"}

    def test_forcing_rule_fires(self):
        # lam1 < lam2 = k-2 with k >= 4 and k^2 > lam2 * v
        verdict = ddg_sieve(6, 4, 1, 2, 3, 2)
        assert verdict.rule("D5").status == "fail"

    def test_low_degree_window_open(self):
        verdict = ddg_sieve(8, 3, 0, 1, 4, 2)
        assert verdict.feasible
        assert verdict.rule("D5").witness == {
            "note": "bound window open below k=4"}
        assert verdict.rule("D4").witness == {"f1": 2, "f2": 2,
                                              "g1": 0, "g2": 3}

    def test_improper_square_case(self):
        # complete graph split into two halves: d1 = d2 = 1
        verdict = ddg_sieve(4, 3, 2, 2, 2, 2)
        assert verdict.feasible
        assert verdict.rule("D4").witness == {"f1": 0, "f2": 2,
                                              "g1": 0, "g2": 1}
        assert verdict.rule("D5").status == "skip"

    def test_d8_fires(self):
        verdict = ddg_sieve(10, 4, 2, 1, 5, 2)
        assert verdict.rule("D8").status == "fail"
        assert not verdict.feasible

    def test_d6_d7_fire(self):
        # lam1 = k-2 with n = 4: k^2 - 2 is odd for even k... pick k = 4
        verdict = ddg_sieve(12, 4, 2, 1, 3, 4)
        assert verdict.rule("D6").status == "fail"   # 4 does not divide 14
        assert verdict.rule("D7").status == "fail"   # 2 is not a QR mod 4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ddg_sieve(8, 4, 5, 0, 2, 4)
        with pytest.raises(ValueError):
            ddg_sieve(4, 4, 1, 0, 2, 2)
        with pytest.raises(ValueError):
            ddg_sieve(8, 4, 2, 0, 0, 4)

    def test_unknown_rule_name(self):
        with pytest.raises(KeyError):
            ddg_sieve(14, 3, 1, 0, 2, 7).rule("D9")

    def test_class_size_above_v_is_refused(self):
        # a split of v vertices has m, n <= v; a larger n would otherwise
        # reach D7's residue scan, which takes time linear in n
        with pytest.raises(ValueError, match=r"1 <= m, n <= v"):
            ddg_sieve(5, 3, 1, 0, 1, 10**7)
        with pytest.raises(ValueError, match=r"1 <= m, n <= v"):
            ddg_sieve(5, 3, 1, 0, 6, 1)

    def test_size_split_rule(self):
        verdict = ddg_sieve(10, 3, 1, 0, 3, 3)
        assert verdict.rule("D1").status == "fail"
        assert verdict.rule("D4").status == "skip"

    def test_deterministic(self):
        assert ddg_sieve(14, 4, 2, 0, 2, 7) == ddg_sieve(14, 4, 2, 0, 2, 7)


class TestScans:
    def test_n2_family_all_rejected(self):
        rows = list(scan_n2_tuples(40))
        assert rows, "scan should produce candidate tuples"
        for params, rules in rows:
            v, k, lam1, a, m, n = params
            assert n == 2 and a >= 1 and lam1 == k - 2
            status = _statuses(rules)
            assert "fail" in status.values(), params
            # these tuples pass the counting identity by construction
            assert status["D2"] == "pass"
            # the eigenvalue attribution is what actually rules them out,
            # so the n=2 nonexistence is a consequence, not an axiom
            assert status["D4"] == "fail", params
            assert status["D8"] == "fail", params

    def test_n2_other_sizes_fail_counting(self):
        # away from the pinned m, D2 rejects immediately
        for m in range(3, 12):
            if m == 6:
                continue  # the D2-compatible size for k=4, a=1
            verdict = ddg_sieve(2 * m, 4, 2, 1, m, 2)
            assert verdict.rule("D2").status == "fail", m

    def test_small_class_sizes_all_rejected(self):
        rows = list(scan_small_n_tuples(12, 6))
        assert rows
        for params, rules in rows:
            status = _statuses(rules)
            assert "fail" in status.values(), params
            assert status["D7"] == "fail", params


    @pytest.mark.parametrize("kmax", [60, 110])
    def test_theorem3_parameter_survivors(self, kmax):
        # up to k = 60 only k <= 4 survives: the disjoint copies of the
        # Heawood and Fano non-incidence graphs (README, theorem 3) and
        # the two (8,k,0,k-2,4,2) tuples; k = 108 adds the first tuple
        # that no graph or argument here settles
        survivors = [
            (8, 3, 0, 1, 4, 2), (8, 4, 0, 2, 4, 2),
            (14, 3, 1, 0, 2, 7), (14, 4, 2, 0, 2, 7),
            (28, 3, 1, 0, 4, 7), (28, 4, 2, 0, 4, 7),
            (42, 3, 1, 0, 6, 7), (42, 4, 2, 0, 6, 7)]
        if kmax >= 108:
            survivors.append((189, 108, 106, 60, 27, 7))
        assert _theorem3_sieve_tuples(kmax) == survivors

    def test_theorem2_parameter_survivors(self):
        # every Deza cell (v, k, k-2, a) with a in {k-3, k-4}, a > 0 and
        # complement degree k' = v-1-k >= 4 that passes the sieve.  R2 needs
        # beta > 0, that is a(v-1) < k(k-1): k' < 2 + 6/(k-3) when a = k-3
        # and k' < 3 + 12/(k-4) when a = k-4.  With k' >= 4 that leaves
        # k <= 5, v <= 12 and k <= 15, v <= 20, inside this window
        cells = {t[:2] for t in _theorem2_sieve_tuples()}
        assert sorted(cells) == THEOREM2_SIEVE_CELLS

    def test_theorem2_counting_rules_leave_nine_cells(self):
        # two counting rules outside the sieve.  The b-partners form a
        # beta-regular graph on v vertices, so v*beta is even.  Two
        # non-adjacent vertices have their 2k neighbours among the other
        # v-2 vertices, so they share at least 2k-v+2; when a is below
        # that, every non-neighbour is a b-partner and beta >= v-1-k.
        # Of the 15 sieve cells they leave nine, all inside the v <= 14
        # theorem-2 audit
        tuples = _theorem2_sieve_tuples()
        assert [t[:2] for t in tuples] == THEOREM2_SIEVE_CELLS
        rejected = {t[:2]: _counting_rule_failures(*t) for t in tuples
                    if _counting_rule_failures(*t)}
        assert rejected == {
            (11, 6): ["handshake"], (13, 6): ["handshake"],
            (15, 6): ["handshake"], (15, 10): ["handshake", "non-neighbour"],
            (17, 12): ["non-neighbour"],
            (19, 14): ["handshake", "non-neighbour"]}
        assert [cell for cell in THEOREM2_SIEVE_CELLS
                if cell not in rejected] == [
            (9, 4), (10, 4), (10, 5), (11, 4), (12, 4), (12, 6), (13, 8),
            (14, 6), (14, 8)]
        # neither rule rejects a realized tuple: the catalog's, and those
        # of the two-valued regular graphs on at most 9 vertices
        realized = {classify(construct(name)).deza
                    for name in catalog_names()}
        realized |= {classify(g).deza for v in range(1, 10)
                     for k in range(v) if v * k % 2 == 0
                     for g in generate_regular(v, k)}
        realized.discard(None)
        assert len(realized) == 24
        for t in sorted(realized):
            assert _counting_rule_failures(*t) == [], t


# the (v, k) cells of theorem 2 (b = k-2, a = k-3 or k-4, a > 0) with
# complement degree k' = v-1-k >= 4 that pass the sieve
THEOREM2_SIEVE_CELLS = [
    (9, 4), (10, 4), (10, 5), (11, 4), (11, 6), (12, 4), (12, 6),
    (13, 6), (13, 8), (14, 6), (14, 8), (15, 6), (15, 10),
    (17, 12), (19, 14)]


def _theorem2_sieve_tuples():
    """Every sieve-feasible (v, k, k-2, a) with a in {k-3, k-4}, a > 0
    and k' >= 4, for v <= 40, sorted."""
    return sorted((v, k, k - 2, a) for v in range(2, 41)
                  for k in range(4, v - 4) for a in (k - 3, k - 4)
                  if a > 0 and deza_sieve(v, k, k - 2, a).feasible)


def _theorem3_sieve_tuples(kmax):
    """Every proper (m, n >= 2) DDG tuple with 3 <= k <= kmax,
    max(lam1, lam2) = k-2 and lam1 != lam2 that satisfies D2,
    k^2 - k = lam1(n-1) + lam2 n(m-1), and passes the sieve, sorted.

    For each k the n range is complete: lam1 >= 1 gives lam1(n-1) <=
    k^2 - k, and lam1 = 0 gives lam2 = k-2 >= 1 and n <= n(m-1) =
    (k^2 - k)/lam2.  m is then fixed by D2 unless lam2 = 0, where D2
    leaves it free; those tuples are disjoint copies of one graph
    (README, theorem 3), so the scan tries m <= 7 only."""
    passed = []
    for k in range(3, kmax + 1):
        top = k * k - k
        pairs = ([(k - 2, c) for c in range(k - 2)]
                 + [(c, k - 2) for c in range(k - 2)])
        for lam1, lam2 in pairs:
            nmax = 1 + top // lam1 if lam1 else top // lam2
            for n in range(2, nmax + 1):
                rest = top - lam1 * (n - 1)
                if lam2 == 0:
                    ms = range(2, 8) if rest == 0 else ()
                elif rest > 0 and rest % (lam2 * n) == 0:
                    ms = (1 + rest // (lam2 * n),)
                else:
                    ms = ()
                for m in ms:
                    params = (m * n, k, lam1, lam2, m, n)
                    verdict = ddg_sieve(*params)
                    assert verdict.rule("D2").status == "pass"
                    if verdict.feasible:
                        passed.append(params)
    return sorted(passed)


def _statuses(rules):
    """Rule name -> status, read off a scan's (rule, status, witness)
    trace."""
    return {rule: status for rule, status, _ in rules}


def _counting_rule_failures(v, k, b, a):
    """The counting rules a Deza tuple (v, k, b, a) breaks, with beta its
    b-partner count: 'handshake' when v*beta is not even, and
    'non-neighbour' when a < 2k-v+2 and beta < v-1-k."""
    beta = beta_formula(v, k, b, a)
    failed = []
    if v * beta % 2:
        failed.append("handshake")
    if a < 2 * k - v + 2 and beta < v - 1 - k:
        failed.append("non-neighbour")
    return failed

def _small_ddg_tuples():
    """Every (v, k, lam1, lam2, m, n) with v <= 16, m * n = v, k < v and
    lam1, lam2 <= k; 344 of them have more than one balanced eigenvalue
    attribution, so D4 there depends on the order of the solutions."""
    return [(v, k, lam1, lam2, m, v // m)
            for v in range(2, 17) for m in range(1, v + 1) if v % m == 0
            for k in range(v) for lam1 in range(k + 1)
            for lam2 in range(k + 1)]


# SHA-256 of the ddg_sieve verdicts, D4 witnesses included, frozen before
# the sieve and the spectrum check shared one balance solver
DDG_SIEVE_GOLDEN = [
    ("scans", 1544,
     "55b15c59089814a5a3711ee2d23181766a5b819aefd9f027ed8b724c3c7ce1dc"),
    ("v-le-16", 27143,
     "5869892c1e35b5b66cf27568e0052b0d9281e323bdcf1eff81137c3a52b1cd6b"),
]


@pytest.mark.parametrize("family,count,digest", DDG_SIEVE_GOLDEN,
                         ids=[f for f, _, _ in DDG_SIEVE_GOLDEN])
def test_ddg_sieve_golden(family, count, digest):
    if family == "scans":
        params = [p for p, _ in
                  [*scan_small_n_tuples(12, 6), *scan_n2_tuples(40)]]
    else:
        params = _small_ddg_tuples()
    blob = json.dumps([[p, ddg_sieve(*p)] for p in params],
                      separators=(",", ":"), default=dataclasses.asdict)
    assert len(params) == count
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,kmax", [("n2", 40), ("n2", 60),
                                         ("small-n", 40), ("small-n", 60)])
def test_scan_rows_match_verdicts(capsys, family, kmax):
    # `sieve scan` prints the failing rule names off each trace the
    # public scans yield; its rows must be what `ddg_sieve` says, in
    # order, and each trace must be the verdict's
    assert cli.main(["sieve", "scan", "--family", family,
                     "--max", str(kmax), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    scan = (scan_n2_tuples(kmax) if family == "n2"
            else scan_small_n_tuples(kmax, kmax // 3))
    want = []
    for params, rules in scan:
        verdict = ddg_sieve(*params)
        assert tuple(RuleResult(*r) for r in rules) == verdict.trace, params
        want.append((params, verdict.feasible, verdict.failures()))
    rows = [(tuple(r["params"]), r["feasible"], tuple(r["failures"]))
            for r in got["results"]]
    assert rows == want
    assert got["count"] == len(want)
    assert got["feasible"] == sum(f for _, f, _ in want)


# tuples that between them reach every branch of D1 and D3-D8
DDG_BRANCH_TUPLES = [
    (10, 3, 1, 0, 3, 3), (9, 4, 2, 3, 3, 3), (6, 2, 0, 0, 3, 2),
    (14, 4, 2, 0, 2, 7), (8, 3, 2, 0, 2, 4), (9, 4, 2, 2, 3, 3),
    (8, 4, 3, 2, 4, 2), (8, 3, 0, 1, 4, 2), (6, 4, 0, 2, 3, 2),
    (8, 4, 0, 2, 4, 2), (12, 4, 0, 2, 6, 2), (8, 4, 2, 1, 4, 2),
    (14, 4, 2, 0, 7, 2), (9, 4, 2, 1, 3, 3),
]

# SHA-256 of `sieve ddg <tuple> --json` over DDG_BRANCH_TUPLES, frozen
# before D1-D8 moved into one rule function
DDG_BRANCH_GOLDEN = (
    "89acafc964ab8ecaa1f76683704fc3728821570f4044d268756b654c070247c6")


def test_ddg_branch_golden(capsys):
    digest = hashlib.sha256()
    reached = set()
    for params in DDG_BRANCH_TUPLES:
        argv = ("sieve", "ddg", *map(str, params), "--json")
        assert cli.main(list(argv)) == 0
        digest.update(f"{argv}\n{capsys.readouterr().out}".encode())
        reached |= {(r.rule, r.status, (r.witness or {}).get("note"))
                    for r in ddg_sieve(*params).trace if r.rule != "D2"}
    assert digest.hexdigest() == DDG_BRANCH_GOLDEN
    d5 = {(s, note) for rule, s, note in reached if rule == "D5"}
    assert d5 == {("skip", None), ("pass", None),
                  ("pass", "k-2 is the smaller constant"),
                  ("pass", "bound window open below k=4"),
                  ("fail", "within-class constant forced to k-2"),
                  ("warn", "degenerate equality k^2 = lam2 * v left "
                           "undecided")}
    statuses = {(rule, s) for rule, s, _ in reached}
    for rule, want in (("D1", "pass fail"), ("D3", "pass fail"),
                       ("D4", "pass fail skip"), ("D6", "pass fail skip"),
                       ("D7", "pass fail skip"), ("D8", "pass fail skip")):
        assert {s for r, s in statuses if r == rule} == set(want.split())
