import itertools
import math
import random

import pytest

from deza.graphs import (
    GraphError,
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
    adjacency_square_identity,
    char_poly,
    ddg_spectrum_check,
    factor_adjacency_poly,
    poly_divmod,
    poly_eval,
    poly_mul,
    squarefree_part,
)


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


# det(xI - A) by elimination, and closed forms: neither shares code with
# the walk counts in char_poly
class TestCharPolyCrossCheck:
    @pytest.mark.parametrize("regular", [True, False],
                             ids=["regular", "irregular"])
    def test_seeded_random_graphs(self, regular):
        rng = random.Random(41 if regular else 43)
        for _ in range(12):
            v = rng.randrange(2, 41)
            g = (random_circulant(v, rng) if regular
                 else random_graph(v, rng.randrange(1, 10), rng))
            p = char_poly(g)
            assert len(p) == v + 1 and p[v] == 1
            for x in rng.sample(range(-6, 7), 3):
                assert poly_eval(p, x) == det_x_minus_a(g, x)

    def test_hypercube_q6(self):
        # eigenvalues 6 - 2i with multiplicity C(6, i)
        want = product(*(power(linear(6 - 2 * i), math.comb(6, i))
                         for i in range(7)))
        assert char_poly(hypercube(6)) == want

    @pytest.mark.parametrize("n", range(30, 41))
    def test_complete_graphs(self, n):
        # the densest graphs: maxdeg = v - 1 gives the widest fields
        assert char_poly(complete_graph(n)) == product(
            linear(n - 1), power(linear(-1), n - 1))

    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_complete_bipartite(self, n):
        # A^j of K_{n,n} has entries n^(j-1) = maxdeg^(j-1), the most walks
        # of length j between two vertices that maximum degree n allows
        g = complement(disjoint_union([complete_graph(n)] * 2))
        assert char_poly(g) == product(surd(n * n),
                                       power(linear(0), 2 * n - 2))

    @pytest.mark.parametrize("v", [0, 1, 2, 9])
    def test_edgeless(self, v):
        assert char_poly(empty_graph(v)) == (0,) * v + (1,)
        assert det_x_minus_a(empty_graph(v), 3) == 3 ** v


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
        assert not s.degenerate_d1_zero and not s.degenerate_d2_zero

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
        assert s.degenerate_d2_zero and not s.degenerate_d1_zero

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
