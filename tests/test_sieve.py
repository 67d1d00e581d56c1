import hashlib
import json

import pytest

from deza.sieve import (
    ddg_sieve,
    deza_sieve,
    quadratic_residue,
    scan_n2_tuples,
    scan_small_n_tuples,
)


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

    def test_size_split_rule(self):
        verdict = ddg_sieve(10, 3, 1, 0, 3, 3)
        assert verdict.rule("D1").status == "fail"
        assert verdict.rule("D4").status == "skip"

    def test_deterministic(self):
        assert ddg_sieve(14, 4, 2, 0, 2, 7) == ddg_sieve(14, 4, 2, 0, 2, 7)


class TestScans:
    def test_n2_family_all_rejected(self):
        rows = scan_n2_tuples(40)
        assert rows, "scan should produce candidate tuples"
        for params, verdict in rows:
            v, k, lam1, a, m, n = params
            assert n == 2 and a >= 1 and lam1 == k - 2
            assert not verdict.feasible, params
            # these tuples pass the counting identity by construction
            assert verdict.rule("D2").status == "pass"
            # the eigenvalue attribution is what actually rules them out,
            # so the n=2 nonexistence is a consequence, not an axiom
            assert verdict.rule("D4").status == "fail", params
            assert verdict.rule("D8").status == "fail", params

    def test_n2_other_sizes_fail_counting(self):
        # away from the pinned m, D2 rejects immediately
        for m in range(3, 12):
            if m == 6:
                continue  # the D2-compatible size for k=4, a=1
            verdict = ddg_sieve(2 * m, 4, 2, 1, m, 2)
            assert verdict.rule("D2").status == "fail", m

    def test_small_class_sizes_all_rejected(self):
        rows = scan_small_n_tuples(12, 6)
        assert rows
        for params, verdict in rows:
            assert not verdict.feasible, params
            assert verdict.rule("D7").status == "fail", params


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
                  scan_small_n_tuples(12, 6) + scan_n2_tuples(40)]
    else:
        params = _small_ddg_tuples()
    blob = json.dumps([[list(p), ddg_sieve(*p).as_dict()] for p in params],
                      separators=(",", ":"))
    assert len(params) == count
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
