import random

import pytest

from deza.catalog import catalog_names, construct
from deza.census import generate_regular
from deza.ddg import (
    ClassAudit,
    _classes_for_value,
    class_audits,
    ddg_detect,
    equitable_check,
)
from deza.graphs import (
    GraphError,
    cartesian_product,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    fano_incidence,
    fano_non_incidence,
    hypercube,
    make_graph,
    permute_graph,
    petersen,
)

from oracle import reference_classes_for_value, rho_closure_shortcut


def octahedron():
    return make_graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6)
                          if b != a + 1 or a % 2])


def cocktail_party(parts):
    v = 2 * parts
    return make_graph(v, [(a, b) for a in range(v) for b in range(a + 1, v)
                          if b != a + 1 or a % 2])


def grid_4x2():
    return cartesian_product(complete_graph(4), complete_graph(2))


class TestDetection:
    def test_fano_non_incidence(self):
        det = ddg_detect(fano_non_incidence())
        assert det.regular and det.values == (0, 2)
        r = det.proper
        assert r is not None
        assert r.params == (14, 4, 2, 0, 2, 7)
        assert r.classes == (tuple(range(7)), tuple(range(7, 14)))
        assert r.quotient == ((0, 4), (4, 0))

    def test_fano_incidence(self):
        r = ddg_detect(fano_incidence()).proper
        assert r is not None
        assert r.params == (14, 3, 1, 0, 2, 7)
        assert r.quotient == ((0, 3), (3, 0))

    def test_grid_4x2(self):
        r = ddg_detect(grid_4x2()).proper
        assert r is not None
        assert r.params == (8, 4, 0, 2, 4, 2)
        assert r.classes == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert r.quotient == ((1, 1, 1, 1),) * 4

    def test_cube(self):
        r = ddg_detect(hypercube(3)).proper
        assert r is not None
        assert r.params == (8, 3, 2, 0, 2, 4)
        assert r.classes == ((0, 3, 5, 6), (1, 2, 4, 7))
        assert r.quotient == ((0, 3), (3, 0))

    def test_two_cliques(self):
        g = disjoint_union([complete_graph(4), complete_graph(4)])
        r = ddg_detect(g).proper
        assert r is not None
        assert r.params == (8, 3, 2, 0, 2, 4)
        assert r.classes == (tuple(range(4)), tuple(range(4, 8)))
        assert r.quotient == ((3, 0), (0, 3))

    def test_octahedron(self):
        r = ddg_detect(octahedron()).proper
        assert r is not None
        assert r.params == (6, 4, 4, 2, 3, 2)
        assert r.classes == ((0, 1), (2, 3), (4, 5))
        assert r.quotient == ((0, 2, 2), (2, 0, 2), (2, 2, 0))

    def test_cycles(self):
        r4 = ddg_detect(cycle_graph(4)).proper
        assert r4 is not None and r4.params == (4, 2, 2, 0, 2, 2)
        r6 = ddg_detect(cycle_graph(6)).proper
        assert r6 is not None and r6.params == (6, 2, 1, 0, 2, 3)
        assert r6.classes == ((0, 2, 4), (1, 3, 5))

    def test_petersen_has_none(self):
        det = ddg_detect(petersen())
        assert det.regular and det.values == (0, 1)
        assert det.proper is None and det.improper == ()

    def test_complement_two_cubes_has_none(self):
        from deza.graphs import complement
        g = complement(disjoint_union([hypercube(3), hypercube(3)]))
        assert ddg_detect(g).proper is None

    def test_single_value_improper(self):
        det = ddg_detect(complete_graph(4))
        assert det.values == (2,)
        assert det.proper is None
        assert det.improper == ((4, 3, 2, 2, 1, 4), (4, 3, 2, 2, 2, 2),
                                (4, 3, 2, 2, 4, 1))

    def test_edgeless_improper(self):
        det = ddg_detect(empty_graph(4))
        assert det.improper == ((4, 0, 0, 0, 1, 4), (4, 0, 0, 0, 2, 2),
                                (4, 0, 0, 0, 4, 1))

    def test_irregular(self):
        det = ddg_detect(make_graph(3, [(0, 1), (1, 2)]))
        assert det == ddg_detect(make_graph(3, [(0, 1), (1, 2)]))
        assert not det.regular
        assert det.proper is None and det.improper == () and det.values == ()

    def test_relabel_invariance(self):
        rng = random.Random(31)
        base = ddg_detect(grid_4x2()).proper
        assert base is not None
        for _ in range(10):
            perm = list(range(8))
            rng.shuffle(perm)
            r = ddg_detect(permute_graph(grid_4x2(), perm)).proper
            assert r is not None
            assert r.params == base.params
            expected = sorted(tuple(sorted(perm[x] for x in cls))
                              for cls in base.classes)
            assert list(r.classes) == expected


def _proper_partitions(graphs):
    """Check _classes_for_value against the reference at every value on
    every graph; returns how many partitions had 1 < n < v."""
    proper = 0
    for g in graphs:
        for lam in range(g.v):
            got = _classes_for_value(g, lam)
            assert got == reference_classes_for_value(g, lam), (g.rows, lam)
            proper += got is not None and 1 < len(got) < g.v
    return proper


class TestClassesForValue:
    def test_random_graphs_match_reference(self):
        rng = random.Random(25)
        graphs = [make_graph(v, [(a, b) for a in range(v)
                                 for b in range(a + 1, v)
                                 if rng.randrange(10) < density])
                  for v in range(1, 13) for density in range(11)
                  for _ in range(4)]
        assert _proper_partitions(graphs) > 0

    def test_catalog_matches_reference(self):
        assert _proper_partitions(construct(name)
                                  for name in catalog_names()) > 0

    def test_regular_graphs_match_reference(self):
        graphs = [g for v in range(1, 9) for k in range(v) if v * k % 2 == 0
                  for g in generate_regular(v, k)]
        assert _proper_partitions(graphs) > 0


class TestEquitable:
    def test_heawood_split(self):
        q, bad = equitable_check(fano_incidence(),
                                 [list(range(7)), list(range(7, 14))])
        assert bad is None
        assert q == ((0, 3), (3, 0))

    def test_uneven_split_caught(self):
        q, bad = equitable_check(cycle_graph(6), [[0, 1], [2, 3], [4, 5]])
        assert q is None
        # vertices 0 and 1 of the first class disagree on class 1
        assert bad == (0, 1, 0, 1, 0, 1)

    def test_partition_validation(self):
        g = cycle_graph(4)
        with pytest.raises(GraphError):
            equitable_check(g, [[0, 1], [1, 2]])
        with pytest.raises(GraphError):
            equitable_check(g, [[0, 1], [2]])
        with pytest.raises(GraphError):
            equitable_check(g, [[0, 1], [2, 3, 4]])


class TestRhoShortcut:
    def test_octahedron_matches_detection(self):
        direct = ddg_detect(octahedron()).proper
        short = rho_closure_shortcut(octahedron())
        assert direct is not None
        assert short.params == direct.params
        assert short.classes == direct.classes
        assert short.quotient == direct.quotient

    def test_cocktail_party(self):
        r = rho_closure_shortcut(cocktail_party(4))
        assert r.params == (8, 6, 6, 4, 4, 2)
        assert r.classes == ((0, 1), (2, 3), (4, 5), (6, 7))

    def test_precondition_enforced(self):
        # grid 4x2 has a = 0, 2b - k = 0, so the inequality is strict
        with pytest.raises(GraphError, match="precondition"):
            rho_closure_shortcut(grid_4x2())
        with pytest.raises(GraphError, match="precondition"):
            rho_closure_shortcut(petersen())

    def test_needs_two_values(self):
        with pytest.raises(GraphError):
            rho_closure_shortcut(complete_graph(4))


class TestClassAudits:
    def test_heawood(self):
        r = ddg_detect(fano_incidence()).proper
        assert r is not None
        audits = class_audits(fano_incidence(), r)
        assert audits == (ClassAudit(0, True, 0, True),
                          ClassAudit(1, True, 0, True))

    def test_octahedron(self):
        g = octahedron()
        r = ddg_detect(g).proper
        assert r is not None
        for audit in class_audits(g, r):
            assert audit.coclique
            assert audit.witness_size == 4
            assert audit.divisible

    def test_grid_4x2(self):
        g = grid_4x2()
        r = ddg_detect(g).proper
        assert r is not None
        for audit in class_audits(g, r):
            assert not audit.coclique
            assert audit.witness_size == 0
            assert audit.divisible
