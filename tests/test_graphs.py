import pytest

from deza.graphs import (Graph, GraphError, cartesian_product, complement,
                         complete_graph, cycle_graph, disjoint_union,
                         empty_graph, fano_incidence, fano_lines,
                         fano_non_incidence, hypercube, make_graph,
                         permute_graph, petersen)
from oracle import induced_subgraph


def test_make_graph_basic():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.degrees() == (2, 2, 2)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.edge_count() == 3


def test_make_graph_rejects_loops_and_range():
    with pytest.raises(GraphError, match=r"loop"):
        make_graph(3, [(1, 1)])
    with pytest.raises(GraphError, match=r"out of range"):
        make_graph(3, [(0, 3)])
    with pytest.raises(GraphError, match=r"cap"):
        make_graph(513, [])
    with pytest.raises(GraphError, match=r"non-negative"):
        make_graph(-1, [])


def test_duplicate_edges_collapse():
    g = make_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_complement_involution():
    g = petersen()
    assert complement(complement(g)) == g
    assert complement(g).degrees() == (6,) * 10


def test_disjoint_union_degrees_and_connectivity():
    g = disjoint_union([complete_graph(4), complete_graph(4)])
    assert g.v == 8
    assert g.degrees() == (3,) * 8
    assert g.diameter() is None
    with pytest.raises(GraphError):
        disjoint_union([])


def test_cartesian_product_grid_4x2():
    g = cartesian_product(complete_graph(4), complete_graph(2))
    assert g.v == 8
    assert g.degrees() == (4,) * 8
    # vertex (a,b) = 2a+b: (0,0)~(0,1) (K2 edge) and (0,0)~(1,0) (K4 edge)
    assert g.has_edge(0, 1)
    assert g.has_edge(0, 2)
    assert not g.has_edge(1, 2)


def test_hypercube():
    q3 = hypercube(3)
    assert q3.v == 8
    assert q3.degrees() == (3,) * 8
    assert q3.diameter() == 3
    assert hypercube(4).diameter() == 4
    assert hypercube(0).v == 1
    # 2^9 is the vertex cap itself
    assert hypercube(9).degrees() == (9,) * 512
    with pytest.raises(GraphError, match=r"cap"):
        hypercube(10)
    with pytest.raises(GraphError, match=r"non-negative"):
        hypercube(-1)


def test_petersen_structure():
    g = petersen()
    assert g.degrees() == (3,) * 10
    assert g.diameter() == 2
    # girth 5: no triangles, no 4-cycles
    for i in range(10):
        for j in range(i + 1, 10):
            assert (g.rows[i] & g.rows[j]).bit_count() <= 1


def test_fano_lines_are_difference_set_translates():
    lines = fano_lines()
    assert lines[0] == (1, 2, 4)
    assert len(lines) == 7
    # every pair of points on exactly one line
    for p in range(7):
        for q in range(p + 1, 7):
            assert sum(1 for ln in lines if p in ln and q in ln) == 1


def test_fano_graphs():
    inc = fano_incidence()
    non = fano_non_incidence()
    assert inc.degrees() == (3,) * 14
    assert non.degrees() == (4,) * 14
    assert inc.diameter() == 3
    assert non.diameter() == 3
    # non-incidence is the bipartite complement of incidence
    for p in range(7):
        for t in range(7, 14):
            assert inc.has_edge(p, t) != non.has_edge(p, t)


def test_cycle_and_empty():
    c6 = cycle_graph(6)
    assert c6.diameter() == 3
    assert empty_graph(4).edge_count() == 0
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_permute_graph_roundtrip():
    g = petersen()
    perm = [3, 1, 4, 0, 5, 9, 2, 6, 8, 7]
    h = permute_graph(g, perm)
    inv = [0] * 10
    for x, y in enumerate(perm):
        inv[y] = x
    assert permute_graph(h, inv) == g
    with pytest.raises(GraphError):
        permute_graph(g, [0] * 10)


def test_induced_subgraph():
    g = complete_graph(5)
    h = induced_subgraph(g, [0, 2, 4])
    assert h == complete_graph(3)


def test_bfs_diameter_vs_matrix_powers():
    # independent diameter check: reachability via repeated neighbourhood
    # expansion, vertex by vertex
    for g in (petersen(), hypercube(3), cycle_graph(7), fano_incidence()):
        for s in range(g.v):
            dist = {s: 0}
            frontier = [s]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for x in frontier:
                    for y in g.neighbours(x):
                        if y not in dist:
                            dist[y] = d
                            nxt.append(y)
                frontier = nxt
            assert max(dist.values()) <= g.diameter()
        assert g.diameter() == max(
            max_dist for max_dist in [_ecc(g, s) for s in range(g.v)])


def _ecc(g, s):
    dist = {s: 0}
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in g.neighbours(x):
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return max(dist.values())
