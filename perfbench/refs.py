"""Reference implementations that share no code with the package under test.

Graphs here are tuples of adjacency bit rows, like ``deza.graphs.Graph``
rows, so a result can be compared with the package's without going through
it.  Everything is exact integer arithmetic.
"""

import random
from math import comb


def graph6_encode(rows):
    """graph6 of a graph with v <= 258047 vertices (upper triangle read
    column by column, 6 bits per byte, offset 63)."""
    v = len(rows)
    head = chr(63 + v) if v <= 62 else "~" + "".join(
        chr(63 + (v >> s & 63)) for s in (12, 6, 0))
    bits = [rows[j] >> i & 1 for j in range(1, v) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    return head + "".join(
        chr(63 + int("".join(map(str, bits[p:p + 6])), 2))
        for p in range(0, len(bits), 6))


def graph6_decode(text):
    data = [ord(c) - 63 for c in text]
    if data[0] == 63:
        v = data[1] << 12 | data[2] << 6 | data[3]
        data = data[4:]
    else:
        v, data = data[0], data[1:]
    bits = [x >> s & 1 for x in data for s in range(5, -1, -1)]
    nbits = v * (v - 1) // 2
    if not 0 <= len(bits) - nbits < 6 or any(bits[nbits:]):
        raise ValueError(f"bad graph6 length or padding: {text!r}")
    rows = [0] * v
    pos = 0
    for j in range(1, v):
        for i in range(j):
            if bits[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return tuple(rows)


def relabel(rows, perm):
    """Vertex x becomes perm[x]."""
    out = [0] * len(rows)
    for x, r in enumerate(rows):
        out[perm[x]] = sum(1 << perm[y] for y in range(len(rows))
                           if r >> y & 1)
    return tuple(out)


def from_edges(v, edges):
    rows = [0] * v
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return tuple(rows)


def hypercube(d):
    v = 1 << d
    return from_edges(v, [(x, x ^ 1 << i) for x in range(v) for i in range(d)
                          if x < x ^ 1 << i])


def cubes_complement(s):
    """Complement of s disjoint 3-cubes."""
    cube = hypercube(3)
    v = 8 * s
    full = (1 << v) - 1
    rows = []
    for x in range(v):
        block = x // 8 * 8
        rows.append(full & ~(1 << x) & ~(cube[x % 8] << block))
    return tuple(rows)


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(x, y) for x in range(q) for y in range(x + 1, q)
                          if (y - x) % q in squares])


def heawood():
    """Point-line incidence graph of the plane with lines {i, i+1, i+3}."""
    return from_edges(14, [(p, 7 + t) for t in range(7)
                           for p in (t, (t + 1) % 7, (t + 3) % 7)])


def random_regular(v, k, rng):
    """A k-regular graph: a circulant scrambled by random double-edge
    swaps.  Unlike the pairing model it never rejects, so it stays fast at
    k=8, v=64."""
    edges = {(i, (i + d) % v) for i in range(v) for d in range(1, k // 2 + 1)}
    if k % 2:
        edges |= {(i, i + v // 2) for i in range(v // 2)}
    edges = [tuple(sorted(e)) for e in sorted(edges)]
    adj = set(edges) | {(b, a) for a, b in edges}
    for _ in range(10 * len(edges)):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or (a, d) in adj or (c, b) in adj:
            continue
        adj -= {(a, b), (b, a), (c, d), (d, c)}
        adj |= {(a, d), (d, a), (c, b), (b, c)}
        edges[i], edges[j] = tuple(sorted((a, d))), tuple(sorted((c, b)))
    return from_edges(v, edges)


def pair_values(rows):
    """(regular degree or None, sorted distinct common-neighbour counts)."""
    degs = {r.bit_count() for r in rows}
    vals = {(rows[i] & rows[j]).bit_count()
            for i in range(len(rows)) for j in range(i + 1, len(rows))}
    return (degs.pop() if len(degs) == 1 else None), tuple(sorted(vals))


def connected(rows):
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for x in range(len(rows)):
            if frontier >> x & 1:
                nxt |= rows[x]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << len(rows)) - 1


def poly_from_roots(factors):
    """Coefficients (index i = x^i) of prod f^m over integer polynomials f
    given low-order first, e.g. x - r is (-r, 1)."""
    out = [1]
    for f, m in factors:
        for _ in range(m):
            nxt = [0] * (len(out) + len(f) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(f):
                    nxt[i + j] += a * b
            out = nxt
    return out


def hypercube_charpoly(d):
    return poly_from_roots([((-(d - 2 * i), 1), comb(d, i))
                            for i in range(d + 1)])


def cubes_complement_charpoly(s):
    # the 3-cube has eigenvalues 3, 1, -1, -3 (1, 3, 3, 1 times); the
    # complement of a k-regular graph has v-1-k and -1-theta for the rest
    roots = [(8 * s - 4, 1), (-4, s - 1), (-2, 3 * s), (0, 3 * s), (2, s)]
    return poly_from_roots([((-r, 1), m) for r, m in roots if m])


def paley_charpoly(q):
    # eigenvalues (q-1)/2 once and (-1 +- sqrt q)/2, (q-1)/2 times each
    return poly_from_roots([((-(q - 1) // 2, 1), 1),
                            ((-(q - 1) // 4, 1, 1), (q - 1) // 2)])


def poly_at(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def charpoly_at(rows, x):
    """det(xI - A) by fraction-free Bareiss elimination with row pivoting."""
    v = len(rows)
    m = [[(x if i == j else 0) - (rows[i] >> j & 1) for j in range(v)]
         for i in range(v)]
    sign = 1
    prev = 1
    for p in range(v - 1):
        if m[p][p] == 0:
            swap = next((r for r in range(p + 1, v) if m[r][p]), None)
            if swap is None:
                return 0
            m[p], m[swap] = m[swap], m[p]
            sign = -sign
        piv = m[p][p]
        for i in range(p + 1, v):
            mi, mp = m[i], m[p]
            f = mi[p]
            for j in range(p + 1, v):
                mi[j] = (piv * mi[j] - f * mp[j]) // prev
        prev = piv
    return sign * m[v - 1][v - 1]


def seeded(seed, *salt):
    """An independent random stream per (seed, purpose)."""
    return random.Random(repr((seed,) + salt))
