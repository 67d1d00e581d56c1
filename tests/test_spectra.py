import inspect
import itertools
import math
import random

import pytest

from deza import spectra
from deza.graphs import (
    GraphError,
    InternalInvariantError,
    cartesian_product,
    complement,
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
from deza.spectra import (
    A2Violation,
    SpectrumMismatch,
    _balanced_attributions,
    _expected_factors,
    _prime_factors,
    _walk_char_poly,
    adjacency_square_identity,
    char_poly,
    ddg_spectrum_check,
    factor_adjacency_poly,
    poly_divmod,
    poly_eval,
    squarefree_part,
)
from oracle import poly_mul, reference_expected_multiset


def linear(r):
    # x - r
    return (-r, 1)


def surd(d):
    # x^2 - d
    return (-d, 0, 1)


def product(*factors):
    out = (1,)
    for f in factors:
        out = poly_mul(out, f)
    return out


def power(f, e):
    return product(*([f] * e))


def random_graph(v, p_numerator, rng):
    edges = set()
    for a in range(v):
        for b in range(a + 1, v):
            if rng.randrange(10) < p_numerator:
                edges.add((a, b))
    return make_graph(v, edges)


def triangle_count(g):
    t = 0
    for a in range(g.v):
        for b in range(a + 1, g.v):
            if g.has_edge(a, b):
                t += (g.rows[a] & g.rows[b] &
                      ~((1 << (b + 1)) - 1)).bit_count()
    return t


class TestPolyHelpers:
    def test_mul_eval(self):
        p = poly_mul((1, 1), (-1, 1))       # (x+1)(x-1)
        assert p == (-1, 0, 1)
        assert poly_eval(p, 5) == 24
        assert poly_eval((3,), 100) == 3

    def test_divmod_roundtrip(self):
        rng = random.Random(11)
        for _ in range(50):
            q = tuple(rng.randrange(-4, 5) for _ in range(rng.randrange(1, 4))) + (1,)
            quo = tuple(rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5)))
            rem = tuple(rng.randrange(-4, 5) for _ in range(len(q) - 1)) or (0,)
            p = tuple(a + b for a, b in
                      zip(poly_mul(q, quo) + (0,) * len(q), rem + (0,) * 99))
            p = p[:max(len(poly_mul(q, quo)), len(rem))]
            got_quo, got_rem = poly_divmod(p, q)
            rebuilt = list(poly_mul(q, got_quo))
            for i, c in enumerate(got_rem):
                rebuilt[i] += c
            assert tuple(rebuilt)[:len(p)] == p

    def test_divmod_requires_monic(self):
        with pytest.raises(ValueError):
            poly_divmod((1, 2, 3), (1, 2))

    def test_squarefree_part(self):
        assert squarefree_part(1) == (1, 1)
        assert squarefree_part(2) == (1, 2)
        assert squarefree_part(8) == (2, 2)
        assert squarefree_part(9) == (3, 1)
        assert squarefree_part(72) == (6, 2)
        with pytest.raises(ValueError):
            squarefree_part(0)
        for d in range(1, 3001):
            s = max(s for s in range(1, math.isqrt(d) + 1) if d % (s * s) == 0)
            assert squarefree_part(d) == (s, d // (s * s)), d

    def test_prime_factors_multiply_back(self):
        for n in range(1, 3001):
            factors = list(_prime_factors(n))
            primes = [p for p, _ in factors]
            assert primes == sorted(set(primes)), n
            for p, e in factors:
                bound = math.isqrt(p) + 1
                assert e >= 1 and all(p % f for f in range(2, bound)), n
            assert math.prod(p ** e for p, e in factors) == n

    def test_prime_factors_are_lazy(self):
        # a caller that stops at the first prime, as the sieve's D7 rule
        # does, must not pay for the rest: 10**18 + 9 is prime
        factors = _prime_factors(3 * (10 ** 18 + 9))
        assert inspect.isgenerator(factors)
        assert next(factors) == (3, 1)


# polynomials below are built by multiplying the factors out, so the
# char_poly comparisons do not reuse any of its own code paths
class TestCharPoly:
    def test_complete_graph(self):
        assert char_poly(complete_graph(4)) == product(
            linear(3), power(linear(-1), 3))

    def test_petersen(self):
        assert char_poly(petersen()) == product(
            linear(3), power(linear(1), 5), power(linear(-2), 4))

    def test_heawood(self):
        assert char_poly(fano_incidence()) == product(
            surd(9), power(surd(2), 6))

    def test_fano_non_incidence(self):
        assert char_poly(fano_non_incidence()) == product(
            surd(16), power(surd(2), 6))

    def test_grid_4x2(self):
        g = cartesian_product(complete_graph(4), complete_graph(2))
        assert char_poly(g) == product(
            linear(4), linear(2), power(linear(0), 3), power(linear(-2), 3))

    def test_cube(self):
        assert char_poly(hypercube(3)) == product(
            linear(3), power(linear(1), 3), power(linear(-1), 3), linear(-3))

    def test_five_cycle(self):
        assert char_poly(cycle_graph(5)) == product(
            linear(2), power((-1, 1, 1), 2))

    def test_four_cycle(self):
        assert char_poly(cycle_graph(4)) == product(
            linear(2), power(linear(0), 2), linear(-2))

    def test_newton_coefficients_on_randoms(self):
        # x^{v-1}: zero trace; x^{v-2}: -edges; x^{v-3}: -2 * triangles
        rng = random.Random(23)
        for _ in range(30):
            g = random_graph(rng.randrange(4, 10), rng.randrange(2, 8), rng)
            p = char_poly(g)
            assert p[g.v] == 1
            assert p[g.v - 1] == 0
            assert p[g.v - 2] == -g.edge_count()
            assert p[g.v - 3] == -2 * triangle_count(g)

    def test_relabel_invariance(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_graph(8, 5, rng)
            perm = list(range(8))
            rng.shuffle(perm)
            assert char_poly(permute_graph(g, perm)) == char_poly(g)


def bareiss_det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for p in range(n - 1):
        if m[p][p] == 0:
            swap = next((r for r in range(p + 1, n) if m[r][p]), None)
            if swap is None:
                return 0
            m[p], m[swap] = m[swap], m[p]
            sign = -sign
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                m[i][j] = (m[i][j] * m[p][p] - m[i][p] * m[p][j]) // prev
        prev = m[p][p]
    return sign * m[-1][-1] if n else 1


def det_x_minus_a(g, x):
    return bareiss_det([[(x if i == j else 0) - ((g.rows[i] >> j) & 1)
                         for j in range(g.v)] for i in range(g.v)])


def random_circulant(v, rng):
    # regular: a symmetric connection set on Z_v, then a random relabelling
    steps = {d for d in range(1, v // 2 + 1) if rng.randrange(4) == 0}
    edges = {(a, (a + d) % v) for a in range(v) for d in steps}
    g = make_graph(v, {(min(e), max(e)) for e in edges})
    perm = list(range(v))
    rng.shuffle(perm)
    return permute_graph(g, perm)


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return make_graph(q, [(x, y) for x in range(q) for y in range(x + 1, q)
                          if (y - x) % q in squares])


def clique_union(v, rng):
    # disjoint cliques of two random sizes, the last one cut to fit, on
    # shuffled labels: at most 4 distinct eigenvalues
    sizes = rng.sample(range(3, 9), 2)
    edges, start = [], 0
    while start < v:
        n = min(rng.choice(sizes), v - start)
        edges += itertools.combinations(range(start, start + n), 2)
        start += n
    perm = list(range(v))
    rng.shuffle(perm)
    return permute_graph(make_graph(v, edges), perm)


def random_regular(v, k, rng):
    # the pairing model, drawn again until the pairing is a simple graph
    while True:
        points = [x for x in range(v) for _ in range(k)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b))
                 for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(edges) == v * k // 2:
            return make_graph(v, edges)


def hypercube_poly(d):
    # eigenvalues d - 2i with multiplicity C(d, i)
    return product(*(power(linear(d - 2 * i), math.comb(d, i))
                     for i in range(d + 1)))


def paley_poly(q):
    # k = (q-1)/2 once, and the roots of x^2 + x - (q-1)/4, each k times
    k = (q - 1) // 2
    return product(linear(k), power((-(q - 1) // 4, 1, 1), k))


def cubes_complement_poly(s):
    # s disjoint 3-cubes: 3 and -3 s times, 1 and -1 3s times; in the
    # complement 8s-4 once, and -1-l for every other eigenvalue l
    return product(linear(8 * s - 4), power(linear(-4), s - 1),
                   power(linear(-2), 3 * s), power(linear(0), 3 * s),
                   power(linear(2), s))


def is_dense_regular(g):
    # the inputs char_poly sends through the complement
    k = g.regular_degree()
    return k is not None and 2 * k > g.v - 1


# det(xI - A) by elimination, and closed forms: neither shares code with
# the walk counts in char_poly or with its complement route
class TestCharPolyCrossCheck:
    @pytest.mark.parametrize("kind", ["regular", "irregular", "regular-dense"])
    def test_seeded_random_graphs(self, kind):
        rng = random.Random({"regular": 41, "irregular": 43,
                             "regular-dense": 47}[kind])
        parities = set()
        for _ in range(12):
            v = rng.randrange(2, 41)
            if kind == "irregular":
                g = random_graph(v, rng.randrange(1, 10), rng)
            else:
                g = random_circulant(v, rng)
            if kind == "regular-dense":
                # dense unless the circulant was dense already
                g = complement(g)
                if is_dense_regular(g):
                    parities.add(v % 2)
            p = char_poly(g)
            assert len(p) == v + 1 and p[v] == 1
            for x in rng.sample(range(-6, 7), 3):
                assert poly_eval(p, x) == det_x_minus_a(g, x)
            assert p == _walk_char_poly(g)
        if kind == "regular-dense":
            assert parities == {0, 1}

    def test_seeded_large_graphs(self, monkeypatch):
        # 32 <= v <= 72, where the minimal-polynomial route is tried:
        # unions of cliques of two sizes, and their complements, have few
        # distinct eigenvalues, random graphs many
        rng = random.Random(53)
        routes = set()
        for i in range(8):
            v = rng.randrange(32, 73)
            if i % 2:
                g = random_graph(v, rng.randrange(1, 10), rng)
            else:
                g = clique_union(v, rng)
                if i % 4:
                    g = complement(g)
            p, seen = walk_route_inputs(monkeypatch, g)
            routes.add("fall-back" if seen else "certified")
            assert len(p) == v + 1 and p[v] == 1
            for x in rng.sample(range(-6, 7), 3):
                assert poly_eval(p, x) == det_x_minus_a(g, x)
            assert p == _walk_char_poly(g)
        assert routes == {"certified", "fall-back"}

    def test_hypercube_q6(self):
        # eigenvalues 6 - 2i with multiplicity C(6, i)
        want = product(*(power(linear(6 - 2 * i), math.comb(6, i))
                         for i in range(7)))
        assert char_poly(hypercube(6)) == want

    @pytest.mark.parametrize("d", [7, 8])
    def test_hypercube_closed_form(self, d):
        assert char_poly(hypercube(d)) == hypercube_poly(d)

    @pytest.mark.parametrize("q", [61, 101])
    def test_paley_closed_form(self, q):
        assert char_poly(paley(q)) == paley_poly(q)

    def test_complement_of_q7(self):
        # Q7 has eigenvalues 7 - 2i with multiplicity C(7, i); its
        # complement has 127 - 7 = 120 once and -1 - (7 - 2i) for i >= 1
        g = complement(hypercube(7))
        assert is_dense_regular(g)
        want = product(linear(120), *(power(linear(-1 - (7 - 2 * i)),
                                            math.comb(7, i))
                                      for i in range(1, 8)))
        assert char_poly(g) == want

    @pytest.mark.parametrize("n", range(30, 41))
    def test_complete_graphs(self, n):
        # the densest graphs: maxdeg = v - 1 gives the widest fields, so
        # the walk route is checked on them too, not only char_poly, which
        # takes the complement route here
        want = product(linear(n - 1), power(linear(-1), n - 1))
        assert char_poly(complete_graph(n)) == want
        assert _walk_char_poly(complete_graph(n)) == want

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_complete_bipartite(self, n):
        # A^j of K_{n,n} has entries n^(j-1) = maxdeg^(j-1), the most walks
        # of length j between two vertices that maximum degree n allows;
        # K_{n,n} is dense, so the walk route is checked directly too
        g = complement(disjoint_union([complete_graph(n)] * 2))
        want = product(surd(n * n), power(linear(0), 2 * n - 2))
        assert char_poly(g) == want
        assert _walk_char_poly(g) == want

    @pytest.mark.parametrize("v", [0, 1, 2, 9])
    def test_edgeless(self, v):
        assert char_poly(empty_graph(v)) == (0,) * v + (1,)
        assert det_x_minus_a(empty_graph(v), 3) == 3 ** v


def walk_route_inputs(monkeypatch, g):
    """char_poly(g), and the graphs it handed to the walk route."""
    seen = []

    def record(h):
        seen.append(h)
        return _walk_char_poly(h)

    monkeypatch.setattr(spectra, "_walk_char_poly", record)
    return char_poly(g), seen


class TestCharPolyRoutes:
    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_small_complete_graphs(self, monkeypatch, v):
        # K_1 has 2k = v - 1 and stays on the walk route; K_2 and K_3 go
        # through their edgeless complements
        g = complete_graph(v)
        p, seen = walk_route_inputs(monkeypatch, g)
        assert p == product(linear(v - 1), power(linear(-1), v - 1))
        assert seen == [g if v == 1 else empty_graph(v)]

    @pytest.mark.parametrize("g, want", [
        (cycle_graph(5), product(linear(2), power((-1, 1, 1), 2))),
        (paley(13), product(linear(6), power((-3, 1, 1), 6))),
    ], ids=["cycle-5", "paley-13"])
    def test_boundary_stays_on_walk_route(self, monkeypatch, g, want):
        # 2k = v - 1: the complement is no sparser, so no detour
        assert 2 * g.regular_degree() == g.v - 1
        p, seen = walk_route_inputs(monkeypatch, g)
        assert p == want
        assert seen == [g]

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_dense_irregular_stays_on_walk_route(self, monkeypatch, n):
        # K_n minus one edge is dense but not regular
        g = complement(make_graph(n, [(0, 1)]))
        assert g.regular_degree() is None
        p, seen = walk_route_inputs(monkeypatch, g)
        assert seen == [g]
        for x in (-3, 0, 5):
            assert poly_eval(p, x) == det_x_minus_a(g, x)

    def test_inexact_complement_division_raises(self, monkeypatch):
        # a wrong chi_H leaves a remainder at x = k - v
        def corrupted(h):
            p = list(_walk_char_poly(h))
            p[0] += 1
            return tuple(p)

        monkeypatch.setattr(spectra, "_walk_char_poly", corrupted)
        with pytest.raises(InternalInvariantError):
            char_poly(complement(hypercube(3)))

    @pytest.mark.parametrize("g, want", [
        (paley(61), paley_poly(61)),
        (hypercube(6), hypercube_poly(6)),
        (complement(disjoint_union([hypercube(3)] * 8)),
         cubes_complement_poly(8)),
    ], ids=["paley-61", "q6", "cubes-complement-8"])
    def test_few_eigenvalues_skip_the_walk(self, monkeypatch, g, want):
        # 3, 7 and 4 (on the complement) distinct eigenvalues: a certified
        # minimal polynomial gives every power sum
        p, seen = walk_route_inputs(monkeypatch, g)
        assert p == want
        assert seen == []

    def test_rigid_graph_falls_back_once(self, monkeypatch):
        # a random cubic graph has about as many distinct eigenvalues as
        # vertices, so the tries at J = 8 and J = 16 both fail
        g = random_regular(64, 3, random.Random(59))
        p, seen = walk_route_inputs(monkeypatch, g)
        assert seen == [g]
        for x in (-2, 1, 4):
            assert poly_eval(p, x) == det_x_minus_a(g, x)

    @pytest.mark.parametrize("case", ["in-bound", "huge"])
    def test_wrong_minimal_polynomial_falls_back(self, monkeypatch, case):
        # Berlekamp-Massey only proposes mu: a wrong one within the
        # coefficient bound fails the exact certificate, one outside it
        # never reaches the certificate, and either way the walk decides
        mu = product(linear(6), linear(2), linear(-2), linear(-6))
        if case == "huge":
            mu = (mu[0] + (1 << 200),) + mu[1:]
        monkeypatch.setattr(spectra, "_berlekamp_massey", lambda seq: mu)
        verdicts = []
        real = spectra._annihilates

        def certify(*args):
            verdicts.append(real(*args))
            return verdicts[-1]

        monkeypatch.setattr(spectra, "_annihilates", certify)
        g = hypercube(6)
        p, seen = walk_route_inputs(monkeypatch, g)
        assert p == hypercube_poly(6)
        assert seen == [g]
        # tried at J = 8 and J = 16
        assert verdicts == ([False, False] if case == "in-bound" else [])

    def test_degree_above_half_the_prefix_waits(self, monkeypatch):
        # Q6's true mu has degree L = 7: p_0..p_8 cannot pin down a
        # recurrence that long, and 2L <= J is also what keeps the
        # certificate sums within the fields, so only J = 16 may certify
        mu = product(*(linear(6 - 2 * i) for i in range(7)))
        prefixes, verdicts = [], []
        real = spectra._annihilates

        def propose(seq):
            prefixes.append(len(seq))
            return mu

        def certify(*args):
            verdicts.append(real(*args))
            return verdicts[-1]

        monkeypatch.setattr(spectra, "_berlekamp_massey", propose)
        monkeypatch.setattr(spectra, "_annihilates", certify)
        p, seen = walk_route_inputs(monkeypatch, hypercube(6))
        assert p == hypercube_poly(6)
        assert (prefixes, verdicts, seen) == ([9, 17], [True], [])


def test_berlekamp_massey_recovers_minimal_polynomial():
    # power sums of m_i copies of distinct integers theta_i obey exactly
    # the recurrence of prod (x - theta_i), and 2L + 1 of them pin it down
    rng = random.Random(61)
    for _ in range(40):
        thetas = rng.sample(range(-9, 10), rng.randrange(1, 7))
        mults = [rng.randrange(1, 5) for _ in thetas]
        seq = [sum(m * t ** j for t, m in zip(thetas, mults))
               for j in range(2 * len(thetas) + 1)]
        assert spectra._berlekamp_massey(seq) == product(
            *(linear(t) for t in thetas))


class TestFactorisation:
    def test_heawood_factors(self):
        f = factor_adjacency_poly(char_poly(fano_incidence()), 3)
        assert f.int_roots == ((3, 1), (-3, 1))
        assert f.surd_pairs == ((2, 6),)
        assert f.residual == (1,)

    def test_integer_spectrum(self):
        f = factor_adjacency_poly(char_poly(petersen()), 3)
        assert f.int_roots == ((3, 1), (1, 5), (-2, 4))
        assert f.surd_pairs == ()
        assert f.residual == (1,)

    def test_residual_survives(self):
        # C5 leaves (x^2 + x - 1)^2, which is not an even quadratic
        f = factor_adjacency_poly(char_poly(cycle_graph(5)), 2)
        assert f.int_roots == ((2, 1),)
        assert f.surd_pairs == ()
        assert f.residual == (1, -2, -1, 2, 1)

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            factor_adjacency_poly((1, 2), 3)

    def test_surds_match_trial_division(self):
        # reference: divide by x^2 - d while the remainder is zero
        def trial(p, bound):
            pairs = []
            for d in range(2, bound * bound + 1):
                if math.isqrt(d) ** 2 == d:
                    continue
                mult = 0
                while len(p) > 2:
                    quo, rem = poly_divmod(p, surd(d))
                    if any(rem):
                        break
                    p = quo
                    mult += 1
                if mult:
                    pairs.append((d, mult))
            return tuple(pairs), p

        rng = random.Random(31)
        cases = [(product(power(surd(2), 3), surd(3), linear(4), surd(12),
                          (1, 1, 1), (-5, 0, 0, 0, 1)), 4),
                 (product(power(surd(8), 2), linear(-1), (2, 0, 1)), 3)]
        cases += [(char_poly(g), g.v) for g in
                  (random_graph(rng.randint(2, 14), rng.randrange(1, 10), rng)
                   for _ in range(60))]
        for p, bound in cases:
            f = factor_adjacency_poly(p, bound)
            roots = product(*(power(linear(r), m) for r, m in f.int_roots))
            rest, rem = poly_divmod(p, roots)
            assert not any(rem)
            assert (f.surd_pairs, f.residual) == trial(rest, bound)


class TestDdgSpectrum:
    def test_heawood(self):
        s = ddg_spectrum_check(fano_incidence(), 14, 3, 1, 0, 2, 7)
        assert (s.d1, s.d2) == (2, 9)
        assert (s.f1, s.f2, s.g1, s.g2) == (6, 6, 0, 1)
        assert s.d1 != 0 and s.d2 != 0

    def test_fano_non_incidence(self):
        s = ddg_spectrum_check(fano_non_incidence(), 14, 4, 2, 0, 2, 7)
        assert (s.d1, s.d2) == (2, 16)
        assert (s.f1, s.f2, s.g1, s.g2) == (6, 6, 0, 1)

    def test_grid_4x2_degenerate_zero(self):
        g = cartesian_product(complete_graph(4), complete_graph(2))
        s = ddg_spectrum_check(g, 8, 4, 0, 2, 4, 2)
        assert (s.d1, s.d2) == (4, 0)
        assert (s.f1, s.f2) == (1, 3)
        assert (s.g1, s.g2) == (3, 0)
        assert s.d2 == 0 and s.d1 != 0

    def test_cube_bipartition(self):
        s = ddg_spectrum_check(hypercube(3), 8, 3, 2, 0, 2, 4)
        assert (s.d1, s.d2) == (1, 9)
        assert (s.f1, s.f2, s.g1, s.g2) == (3, 3, 0, 1)

    def test_disconnected_pair_of_cliques(self):
        g = disjoint_union([complete_graph(4), complete_graph(4)])
        s = ddg_spectrum_check(g, 8, 3, 2, 0, 2, 4)
        assert (s.d1, s.d2) == (1, 9)
        assert (s.f1, s.f2, s.g1, s.g2) == (0, 6, 1, 0)

    def test_negative_discriminant(self):
        with pytest.raises(SpectrumMismatch) as exc:
            ddg_spectrum_check(fano_incidence(), 14, 3, 1, 1, 2, 7)
        assert "negative discriminant" in str(exc.value)

    def test_wrong_shape_rejected(self):
        with pytest.raises(SpectrumMismatch) as exc:
            ddg_spectrum_check(petersen(), 10, 3, 1, 0, 2, 5)
        assert exc.value.params == (10, 3, 1, 0, 2, 5)

    def test_residual_reported(self):
        with pytest.raises(SpectrumMismatch) as exc:
            ddg_spectrum_check(cycle_graph(5), 5, 2, 1, 0, 5, 1)
        assert exc.value.factors.residual == (1, -2, -1, 2, 1)

    def test_size_mismatch(self):
        with pytest.raises(GraphError):
            ddg_spectrum_check(petersen(), 10, 3, 1, 0, 3, 3)

    @pytest.mark.parametrize("lam1,d1", [(4, 0), (3, 1)])
    def test_singleton_classes(self, lam1, d1):
        # n = 1 leaves no eigenvalue +/-sqrt(d1); a zero d1 must not ask
        # the factorisation for a root 0 of multiplicity 0
        s = ddg_spectrum_check(complete_graph(5), 5, 4, lam1, 3, 5, 1)
        assert (s.k, s.d1, s.d2) == (4, d1, 1)
        assert (s.f1, s.f2, s.g1, s.g2) == (0, 0, 0, 4)


def test_expected_factors_match_reference():
    # every k <= 6, d1, d2 <= 12 and split f1 + f2, g1 + g2 <= 4; the
    # reference keeps a zero discriminant's merged multiplicity even when
    # it is 0, which no factorisation can hold, and that is the only
    # difference allowed
    splits = [(a, t - a) for t in range(5) for a in range(t + 1)]
    refused = zero_root_dropped = 0
    for k, d1, d2 in itertools.product(range(7), range(13), range(13)):
        for (f1, f2), (g1, g2) in itertools.product(splits, splits):
            got = _expected_factors(k, d1, d2, f1, f2, g1, g2)
            want = reference_expected_multiset(k, d1, d2, f1, f2, g1, g2)
            if ("impossible",) in want:
                assert got is None
                refused += 1
                continue
            if want.get(("int", 0)) == 0:
                del want[("int", 0)]
                zero_root_dropped += 1
            roots = [r for r, _ in got.int_roots]
            surds = [d for d, _ in got.surd_pairs]
            assert roots == sorted(set(roots), reverse=True)
            assert surds == sorted(set(surds))
            assert got.residual == (1,)
            assert want == {**{("int", r): e for r, e in got.int_roots},
                            **{("surd", d): e for d, e in got.surd_pairs}}
    assert refused > 0 and zero_root_dropped > 0


def _brute_attributions(d1, d2, ftot, gtot, zero):
    """The (f1, f2, g1, g2) whose sign differences (f1-f2, g1-g2) lie in
    zero, by a double loop over (f1, g1); a zero discriminant merges its
    sign pair into the first slot."""
    out = []
    for f1, g1 in itertools.product(range(ftot + 1), range(gtot + 1)):
        if (2 * f1 - ftot, 2 * g1 - gtot) in zero:
            sol = (ftot, 0) if d1 == 0 else (f1, ftot - f1)
            sol += (gtot, 0) if d2 == 0 else (g1, gtot - g1)
            if sol not in out:
                out.append(sol)
    return out


def test_balanced_attributions_match_brute_force():
    # every (k, d1, d2, ftot, gtot) with k <= 12, d1 <= 20, d2 <= 40,
    # ftot <= 8, gtot <= 4.  zero holds the (a, b) with
    # x = k + a sqrt(d1) + b sqrt(d2) = 0.  x is an algebraic integer of
    # degree at most 4 whose conjugates k +- a sqrt(d1) +- b sqrt(d2) all
    # lie below 74 in absolute value; a nonzero x has a nonzero integer
    # norm, so |x| > 74^-3 > 2e-6, and a float test at 1e-9 is exact
    checked = solved = 0
    for k, d1, d2 in itertools.product(range(13), range(21), range(41)):
        r1, r2 = math.sqrt(d1), math.sqrt(d2)
        zero = {(a, b) for a in range(-8, 9) for b in range(-4, 5)
                if abs(k + a * r1 + b * r2) < 1e-9}
        for ftot, gtot in itertools.product(range(9), range(5)):
            want = _brute_attributions(d1, d2, ftot, gtot, zero) \
                if zero else []
            got = list(_balanced_attributions(k, d1, d2, ftot, gtot))
            assert got == want, (k, d1, d2, ftot, gtot)
            checked += 1
            solved += bool(want)
    assert checked == 13 * 21 * 41 * 9 * 5
    assert solved > 0


class TestAdjacencySquare:
    def test_grid_4x2_holds(self):
        g = cartesian_product(complete_graph(4), complete_graph(2))
        classes = [[0, 1], [2, 3], [4, 5], [6, 7]]
        assert adjacency_square_identity(g, classes, 0, 2, 4) is None

    def test_swapped_constants_caught(self):
        g = cartesian_product(complete_graph(4), complete_graph(2))
        classes = [[0, 1], [2, 3], [4, 5], [6, 7]]
        got = adjacency_square_identity(g, classes, 2, 0, 4)
        assert got == A2Violation(0, 1, 0, 2)

    def test_cliques_wrong_partition(self):
        g = disjoint_union([complete_graph(4), complete_graph(4)])
        bad = [[0, 1, 2, 4], [3, 5, 6, 7]]
        got = adjacency_square_identity(g, bad, 2, 0, 3)
        assert got == A2Violation(0, 3, 2, 0)

    def test_cliques_right_partition(self):
        g = disjoint_union([complete_graph(4), complete_graph(4)])
        good = [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert adjacency_square_identity(g, good, 2, 0, 3) is None

    def test_heawood_point_line_split(self):
        g = fano_incidence()
        classes = [list(range(7)), list(range(7, 14))]
        assert adjacency_square_identity(g, classes, 1, 0, 3) is None

    def test_partition_validation(self):
        g = complete_graph(3)
        with pytest.raises(GraphError):
            adjacency_square_identity(g, [[0, 1], [1, 2]], 1, 1, 2)
        with pytest.raises(GraphError):
            adjacency_square_identity(g, [[0, 1]], 1, 1, 2)
        with pytest.raises(GraphError):
            adjacency_square_identity(g, [[0, 1], [2, 3]], 1, 1, 2)
