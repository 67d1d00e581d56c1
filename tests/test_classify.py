import random
from fractions import Fraction
from itertools import combinations

import pytest

from deza.classify import beta_formula, classify
from deza.graphs import (cartesian_product, complement, complete_graph,
                         cycle_graph, disjoint_union, empty_graph,
                         fano_incidence, fano_non_incidence, hypercube,
                         make_graph, permute_graph, petersen)

from oracle import zero_lambda_audit


def _grid_4x2():
    return cartesian_product(complete_graph(4), complete_graph(2))


def _pair_counts(g):
    # independent oracle: explicit neighbour-list intersection per pair
    nbrs = [set(g.neighbours(i)) for i in range(g.v)]
    return {(i, j): len(nbrs[i] & nbrs[j])
            for i, j in combinations(range(g.v), 2)}


def test_common_values_match_oracle():
    for g in (petersen(), _grid_4x2(), fano_incidence(), cycle_graph(6)):
        oracle = _pair_counts(g)
        assert classify(g).common_values == tuple(sorted(set(oracle.values())))


def test_petersen_report():
    r = classify(petersen())
    assert r.deza == (10, 3, 1, 0)
    assert r.srg == (10, 3, 0, 1)
    assert not r.strictly_deza          # it IS strongly regular
    assert r.diameter == 2
    assert r.zero_lambda == 1
    assert r.beta == 6 and r.alpha == 3


def test_complement_petersen_report():
    r = classify(complement(petersen()))
    assert r.srg == (10, 6, 3, 4)
    assert r.deza == (10, 6, 4, 3)
    assert not r.strictly_deza


def test_rook_3x3_report():
    rook = cartesian_product(complete_graph(3), complete_graph(3))
    r = classify(rook)
    assert r.srg == (9, 4, 1, 2)
    assert r.deza == (9, 4, 2, 1)


def test_grid_4x2_is_strictly_deza():
    r = classify(_grid_4x2())
    assert r.deza == (8, 4, 2, 0)
    assert r.srg is None
    assert r.diameter == 2
    assert r.strictly_deza
    assert r.beta == 6 and r.alpha == 1
    assert r.zero_lambda == 2


def test_hypercube_reports():
    r3 = classify(hypercube(3))
    assert r3.deza == (8, 3, 2, 0)
    assert r3.diameter == 3 and not r3.strictly_deza
    r4 = classify(hypercube(4))
    assert r4.deza == (16, 4, 2, 0)
    assert r4.zero_lambda == 2
    assert r4.diameter == 4


def test_fano_reports():
    ri = classify(fano_incidence())
    assert ri.deza == (14, 3, 1, 0)
    assert ri.diameter == 3 and not ri.strictly_deza
    rn = classify(fano_non_incidence())
    assert rn.deza == (14, 4, 2, 0)
    assert rn.zero_lambda == 2
    assert rn.beta == 6


def test_cycle_reports():
    r = classify(cycle_graph(6))
    assert r.deza == (6, 2, 1, 0)
    assert r.beta == 2 and r.alpha == 3
    r5 = classify(cycle_graph(5))
    assert r5.srg == (5, 2, 0, 1)
    assert r5.deza == (5, 2, 1, 0)


def test_degenerate_reports():
    rc = classify(complete_graph(4))
    assert rc.degenerate == "complete"
    assert rc.deza is None and rc.srg is None
    assert rc.common_values == (2,)
    re_ = classify(empty_graph(3))
    assert re_.degenerate == "edgeless"
    assert re_.deza is None
    assert classify(complete_graph(1)).degenerate == "trivial"


def test_disconnected_classified_as_is():
    g = disjoint_union([complete_graph(4), complete_graph(4)])
    r = classify(g)
    assert not r.connected
    assert r.diameter is None
    assert r.deza == (8, 3, 2, 0)
    assert not r.strictly_deza


def test_irregular_graph_never_deza():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    r = classify(g)
    assert r.regular is None
    assert r.deza is None and r.srg is None


def test_classify_relabeling_invariant():
    rng = random.Random(7)
    for g in (petersen(), _grid_4x2(), fano_non_incidence()):
        base = classify(g)
        for _ in range(20):
            perm = list(range(g.v))
            rng.shuffle(perm)
            assert classify(permute_graph(g, perm)) == base


def test_pair_count_sum_identity():
    # sum over pairs of common neighbours == sum over vertices of C(deg,2)
    rng = random.Random(4242)
    for _ in range(30):
        v = rng.randrange(2, 12)
        edges = [(i, j) for i in range(v) for j in range(i + 1, v)
                 if rng.random() < 0.45]
        g = make_graph(v, edges)
        lhs = sum(_pair_counts(g).values())
        rhs = sum(d * (d - 1) // 2 for d in g.degrees())
        assert lhs == rhs


def test_beta_formula_frozen_values():
    assert beta_formula(8, 4, 2, 0) == 6
    assert beta_formula(14, 4, 2, 0) == 6
    assert beta_formula(10, 3, 1, 0) == 6
    assert beta_formula(18, 5, 3, 1) == Fraction(3, 2)
    assert beta_formula(18, 13, 11, 9) == Fraction(3, 2)
    with pytest.raises(ValueError):
        beta_formula(8, 4, 2, 2)


def test_beta_formula_matches_counted_beta():
    for g in (petersen(), _grid_4x2(), fano_incidence(), fano_non_incidence(),
              complement(petersen()), hypercube(4)):
        r = classify(g)
        assert r.deza is not None
        assert beta_formula(*r.deza) == r.beta


def test_zero_lambda_audit_hypercube_equality():
    audit = zero_lambda_audit(hypercube(4))
    assert audit.lam == 2 and audit.k == 4
    assert audit.mulder_applicable
    assert audit.v_bound_holds and audit.v_bound_equality
    assert audit.diameter_bound_holds and audit.diameter_bound_equality
    assert audit.hypercube_confirmed is True


def test_zero_lambda_audit_fano_non_incidence():
    audit = zero_lambda_audit(fano_non_incidence())
    assert audit.lam == 2
    assert audit.v_bound_holds and not audit.v_bound_equality  # 14 < 16
    assert audit.diameter_bound_holds                          # 3 <= 4
    assert audit.hypercube_confirmed is None


def test_zero_lambda_audit_lambda_one_not_applicable():
    audit = zero_lambda_audit(petersen())
    assert audit.lam == 1
    assert not audit.mulder_applicable
    assert not audit.v_bound_holds      # 10 > 2^3: why the bound needs lam>=2


def test_zero_lambda_audit_errors():
    with pytest.raises(ValueError, match="connected"):
        zero_lambda_audit(disjoint_union([hypercube(3), hypercube(3)]))
    with pytest.raises(ValueError, match=r"not a \(0,lambda\)"):
        zero_lambda_audit(complement(petersen()))
