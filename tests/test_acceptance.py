"""End-to-end acceptance gate.

One test per criterion, each printing an `ACCEPTANCE <n> <PASS|FAIL>`
line directly to the terminal (bypassing capture) so a plain
`pytest tests/test_acceptance.py -v` shows the verdicts inline.  All
checks are exact; runtime ceilings are asserted with the checks.  The
v=16 uniqueness and v=17/18 nonexistence questions are stretch audits
behind the census --long flag and intentionally absent here.
"""

import contextlib
import hashlib
import json
import math
import time

from deza.canon import canonical_certificate
from deza.catalog import catalog, construct
from deza.census import audit_theorem, census, generate_regular
from deza.classify import classify
from deza.ddg import ddg_detect
from deza.graph6 import decode_graph6, encode_graph6
from deza.graphs import complete_graph
from deza.sieve import ddg_sieve, deza_sieve, scan_n2_tuples, \
    scan_small_n_tuples
from deza.spectra import adjacency_square_identity, char_poly, \
    ddg_spectrum_check, poly_mul, squarefree_part
from oracle import count_regular_classes_naive


@contextlib.contextmanager
def criterion(capsys, number, label, budget):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget, \
            f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} FAIL {label}")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} PASS {label} ({elapsed:.1f}s)")


def _cert_hash(g):
    return hashlib.sha256(
        canonical_certificate(g).certificate_bytes).hexdigest()


def test_criterion_1_catalog_reproduction(capsys):
    with criterion(capsys, 1, "catalog reproduction", 1.0):
        expect = {
            "petersen": dict(srg=(10, 3, 0, 1)),
            "complement-petersen": dict(srg=(10, 6, 3, 4)),
            "rook-3x3": dict(srg=(9, 4, 1, 2)),
            "hypercube-4": dict(deza=(16, 4, 2, 0)),
            "fano-incidence": dict(deza=(14, 3, 1, 0), diameter=3),
            "fano-non-incidence": dict(deza=(14, 4, 2, 0)),
            "grid-4x2": dict(deza=(8, 4, 2, 0), strictly_deza=True),
        }
        for s in (1, 2, 3):
            expect[f"complement-{s}-cubes"] = dict(
                deza=(8 * s, 8 * (s - 1) + 4, 8 * (s - 1) + 2, 8 * (s - 1)))
        for name, fields in expect.items():
            rep = classify(construct(name))
            for field, value in fields.items():
                assert getattr(rep, field) == value, (name, field)


def test_criterion_2_ddg_detection(capsys):
    with criterion(capsys, 2, "divisible design detection", 1.0):
        non = ddg_detect(construct("fano-non-incidence"))
        assert non.proper is not None
        assert non.proper.params == (14, 4, 2, 0, 2, 7)
        assert non.proper.quotient == ((0, 4), (4, 0))

        inc = ddg_detect(construct("fano-incidence"))
        assert inc.proper is not None
        assert inc.proper.params == (14, 3, 1, 0, 2, 7)
        assert inc.proper.quotient == ((0, 3), (3, 0))

        grid = ddg_detect(construct("grid-4x2"))
        assert grid.proper is not None
        computed = grid.proper.params
        assert computed == (8, 4, 0, 2, 4, 2)
        assert computed != (8, 4, 2, 0, 2, 4)   # the listed orientation

        report = audit_theorem(3, vmax=8)
        mismatches = [d for d in report.discrepancies
                      if d["kind"] == "parameter-mismatch"]
        assert len(mismatches) == 1
        assert mismatches[0]["listed"] == [8, 4, 2, 0, 2, 4]
        assert mismatches[0]["computed"] == [8, 4, 0, 2, 4, 2]


def _balance_is_exact(k, d1, d2, f1, f2, g1, g2):
    # k + (f1-f2) sqrt(d1) + (g1-g2) sqrt(d2) = 0, split by square part
    rational = k
    surds = {}
    for d, delta in ((d1, f1 - f2), (d2, g1 - g2)):
        root = math.isqrt(d)
        if root * root == d:
            rational += delta * root
        else:
            s, q = squarefree_part(d)
            surds[q] = surds.get(q, 0) + delta * s
    return rational == 0 and all(c == 0 for c in surds.values())


def test_criterion_3_spectral_audit(capsys):
    with criterion(capsys, 3, "spectral audit", 1.0):
        surd2_sixth = (1,)
        for _ in range(6):
            surd2_sixth = poly_mul(surd2_sixth, (-2, 0, 1))
        assert char_poly(construct("fano-incidence")) == \
            poly_mul((-9, 0, 1), surd2_sixth)
        assert char_poly(construct("fano-non-incidence")) == \
            poly_mul((-16, 0, 1), surd2_sixth)
        grid_poly = (1,)
        for factor in ((-4, 1), (-2, 1), (0, 1), (0, 1), (0, 1),
                       (2, 1), (2, 1), (2, 1)):
            grid_poly = poly_mul(grid_poly, factor)
        assert char_poly(construct("grid-4x2")) == grid_poly

        for entry in catalog().values():
            g = entry.graph()
            det = ddg_detect(g)
            if det.proper is None:
                continue
            res = det.proper
            spec = ddg_spectrum_check(g, *res.params)
            assert _balance_is_exact(spec.k, spec.d1, spec.d2,
                                     spec.f1, spec.f2, spec.g1, spec.g2), \
                entry.name
            assert adjacency_square_identity(
                g, res.classes, res.lam1, res.lam2, res.k) is None, entry.name


def test_criterion_4_sieve(capsys):
    with criterion(capsys, 4, "parameter sieve", 10.0):
        for tup in ((18, 5, 3, 1), (18, 13, 11, 9)):
            verdict = deza_sieve(*tup)
            assert not verdict.feasible
            assert verdict.rule("R2").witness == {"beta": "3/2"}

        n2 = scan_n2_tuples(40)
        assert n2 and all(not v.feasible for _, v in n2)

        small = scan_small_n_tuples(40, 13)
        assert small and all(not v.feasible for _, v in small)
        assert all(p[5] in (3, 4, 5, 6) and p[2] == p[1] - 2
                   for p, _ in small)

        assert ddg_sieve(14, 4, 2, 0, 2, 7).feasible
        assert ddg_sieve(14, 3, 1, 0, 2, 7).feasible

        for entry in catalog().values():
            assert deza_sieve(*entry.deza).feasible, entry.name
            det = ddg_detect(entry.graph())
            if det.proper is not None:
                assert ddg_sieve(*det.proper.params).feasible, entry.name


def test_criterion_5_enumeration_oracle(capsys):
    with criterion(capsys, 5, "enumeration vs oracle", 60.0):
        for v in range(1, 9):
            for k in range(v):
                if v * k % 2:
                    continue
                generated = list(generate_regular(v, k))
                assert len(generated) == \
                    count_regular_classes_naive(v, k), (v, k)
        cubic8 = list(generate_regular(8, 3))
        assert sum(g.is_connected() for g in cubic8) == 5
        assert len(list(generate_regular(7, 4))) == 2


def test_criterion_6_theorem_one_audit(capsys):
    with criterion(capsys, 6, "theorem 1 audit (k<=4, v<=14)", 600.0):
        report = audit_theorem(1, vmax=14, kmax=4)

        grid = [f for f in report.found if f["deza"] == [8, 4, 2, 0]]
        assert len(grid) == 1
        assert grid[0]["certificate_hash"] == _cert_hash(construct("grid-4x2"))

        non = [f for f in report.found if f["deza"] == [14, 4, 2, 0]]
        assert len(non) == 1
        assert non[0]["certificate_hash"] == \
            _cert_hash(construct("fano-non-incidence"))

        # the (14,3,1,0) realizations are enumerated, not presumed unique:
        # the Heawood graph is one of 36, and the other 35 are flagged
        fourteen = [f for f in report.found if f["deza"] == [14, 3, 1, 0]]
        assert len(fourteen) == 36
        heawood_hash = _cert_hash(construct("fano-incidence"))
        heawood = [f for f in fourteen
                   if f["certificate_hash"] == heawood_hash]
        assert len(heawood) == 1
        flagged = [d for d in report.discrepancies
                   if d["kind"] == "found-but-unexpected"]
        assert len(flagged) == 35


def test_criterion_7_theorem_two_audit(capsys):
    with criterion(capsys, 7, "theorem 2 audit (v<=10)", 300.0):
        report = audit_theorem(2, vmax=10)
        allowed_deza = {(8, 4, 2, 1), (9, 4, 2, 1)}
        allowed_srg = {(9, 4, 1, 2), (10, 3, 0, 1), (10, 6, 3, 4)}
        assert report.found
        strict_params = set()
        for f in report.found:
            g = decode_graph6(f["graph6"])
            rep = classify(g)
            v, k, b, a = rep.deza
            assert b == k - 2 and a == k - 3 and a > 0, f
            assert tuple(rep.deza) in allowed_deza or \
                (rep.srg is not None and tuple(rep.srg) in allowed_srg), f
            if rep.strictly_deza:
                strict_params.add(tuple(rep.deza))
        assert (8, 4, 2, 1) in strict_params
        assert (9, 4, 2, 1) in strict_params
        assert not report.discrepancies


def test_criterion_8_determinism_and_formats(capsys, tmp_path):
    with criterion(capsys, 8, "determinism and formats", 120.0):
        first = tmp_path / "first"
        second = tmp_path / "second"
        cells = dict(v_values=[6, 7, 8, 9], k_values=[2, 3, 4])
        census(out=str(first), jobs=2, **cells)
        census(out=str(second), jobs=2, **cells)
        for suffix in (".g6", ".meta.jsonl"):
            a = (tmp_path / ("first" + suffix)).read_bytes()
            b = (tmp_path / ("second" + suffix)).read_bytes()
            assert a == b, suffix

        g6_lines = (tmp_path / "first.g6").read_text().splitlines()
        assert g6_lines
        for line in g6_lines:
            assert encode_graph6(decode_graph6(line)) == line

        meta_lines = (tmp_path / "first.meta.jsonl").read_text().splitlines()
        assert len(meta_lines) == len(g6_lines)
        for line in meta_lines:
            assert json.dumps(json.loads(line),
                              separators=(",", ":")) == line

        assert encode_graph6(complete_graph(3)) == "Bw"
