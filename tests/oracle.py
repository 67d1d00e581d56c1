"""Test oracles: brute force for the regular-graph generator and the
canonical search, and independent checks of classification and design
structure that the package itself does not need, and a bit-by-bit graph6
codec that the string-based one in `deza.graph6` is checked against."""

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from deza.canon import canon_data, canonical_certificate
from deza.classify import classify
from deza.ddg import DdgResult, _classes_for_value, equitable_check
from deza.graph6 import Graph6Error
from deza.graphs import (Graph, GraphError, InternalInvariantError, MAX_VERTICES,
                         hypercube)


def count_regular_classes_naive(v: int, k: int) -> int:
    """Count isomorphism classes by brute force over labeled graphs.

    Every labeled k-regular graph is generated by choosing each vertex's
    forward neighbours in turn; classes are collapsed with certificates.
    Complement symmetry keeps the dense half affordable.  Shares no logic
    with the augmentation generator.
    """
    if v < 1 or not 0 <= k < v:
        raise GraphError("bad parameters")
    if v * k % 2:
        return 0
    if k > (v - 1) // 2:
        return count_regular_classes_naive(v, v - 1 - k)
    certs: Set[bytes] = set()
    deg = [0] * v
    rows = [0] * v

    def place(i: int) -> None:
        if i == v:
            g = Graph(v, tuple(rows))
            certs.add(canonical_certificate(g).certificate_bytes)
            return
        need = k - deg[i]
        if need < 0:
            return
        avail = [j for j in range(i + 1, v) if deg[j] < k]
        if need > len(avail):
            return
        for picks in itertools.combinations(avail, need):
            for j in picks:
                deg[j] += 1
                rows[j] |= 1 << i
                rows[i] |= 1 << j
            deg[i] += need
            place(i + 1)
            deg[i] -= need
            for j in picks:
                deg[j] -= 1
                rows[j] &= ~(1 << i)
                rows[i] &= ~(1 << j)

    place(0)
    return len(certs)


def reference_sets(node) -> List[int]:
    """Every neighbour set the forced-vertex rule and the deficiency
    bounds allow for the next vertex of a generator search node, as bit
    masks, by size and then in lexicographic order, before the degree
    and maxpair filters."""
    v, k = node.search.v, node.search.k
    deg = [row.bit_count() for row in node.rows]
    rem = v - len(deg) - 1
    open_ = [x for x, d in enumerate(deg) if d < k]
    if any(k - deg[x] > rem + 1 for x in open_):
        return []
    forced = [x for x in open_ if k - deg[x] == rem + 1]
    optional = [x for x in open_ if x not in forced]
    sets = []
    for size in range(len(forced), k + 1):
        # the deficiency left after the step must fit in the rem later
        # vertices, and what they lack must be edges among themselves
        left = sum(k - d for d in deg) - size + (k - size)
        if (k - size > rem or left > rem * k
                or rem * k - left > rem * (rem - 1)):
            continue
        sets += [sum(1 << x for x in forced + list(extra))
                 for extra in itertools.combinations(optional,
                                                     size - len(forced))]
    return sets


def has_completion(node) -> bool:
    """Whether a generator search node extends to a k-regular graph on v
    vertices by steps that each give the new vertex the child's maximum
    degree, keep maxpair and pass reference_add_vertex.

    A plain depth-first search over reference_sets, with no canonical
    form and no candidate filter beyond those three rules; it expects a
    node whose pairs keep maxpair, as every generator node does.
    """
    search = node.search
    rows = node.rows
    deg = [row.bit_count() for row in rows]
    if len(rows) == search.v:
        return all(d == search.k for d in deg)
    top = max(deg)
    for smask in reference_sets(node):
        s = [x for x in range(len(rows)) if smask >> x & 1]
        if len(s) < top or (len(s) == top
                            and any(deg[x] == top for x in s)):
            continue
        if search.maxpair is not None:
            # only the pairs inside s and the pairs of the new vertex
            # change their counts
            if any((rows[x] & rows[y]).bit_count() >= search.maxpair
                   for x, y in itertools.combinations(s, 2)) or any(
                       (row & smask).bit_count() > search.maxpair
                       for row in rows):
                continue
        child = reference_add_vertex(node, smask)
        if child is not None and has_completion(child):
            return True
    return False


def reference_gap(search) -> Optional[List[int]]:
    """gap[c] for c = 0..k under the sat clause of a search, or None
    without one: how far c lies below the nearest sat value at or above
    it that a count can reach, at most maxpair and k, k+1 when there is
    none.  A pair with c common neighbours that can gain at most slack
    more is dead when gap[c] > slack, and bad, at slack 0, when
    gap[c] > 0."""
    if search.sat is None:
        return None
    k = search.k
    top = k if search.maxpair is None else min(search.maxpair, k)
    return [min((t - c for t in search.sat if c <= t <= top),
                default=k + 1)
            for c in range(k + 1)]


def reference_add_vertex(node, smask: int):
    """The generator's step check as it stood before candidate choice
    became the only home of sat and of the interval rule, kept as the
    reference that every set candidate choice drops under sat must fail:
    the child of a search node whose new vertex joins the set smask, or
    None when the step breaks the frozen-value rules, sat included, or
    the interval rule.  It runs its pass under every spec that is not
    vacuous, starting from the parent's frozen values recomputed from
    its rows, and derives gap, the bad counts and whether the interval
    rule is live from sat, maxpair and k itself."""
    search = node.search
    rows = node.rows
    seen = 0
    if not search.vacuous:
        k = search.k
        for x, row in enumerate(rows):
            if row.bit_count() == k:
                for y, other in enumerate(rows):
                    if y != x:
                        seen |= 1 << (row & other).bit_count()
        gap = reference_gap(search)
        bad = 0
        if gap is not None:
            bad = sum(1 << c for c, g in enumerate(gap) if g)
            top = k if search.maxpair is None else min(search.maxpair, k)
            # only a count maxpair allows with a gap above 1 can die at
            # slack 1 or more
            if max(gap[:top + 1], default=0) <= 1:
                gap = None
        left = search.v - len(rows) - 1
        if left <= 0:
            gap = None
        dr = k - smask.bit_count()
        after = [k - row.bit_count() - (smask >> y & 1)
                 for y, row in enumerate(rows)]
        for y, dy in enumerate(after):
            c = (rows[y] & smask).bit_count()
            if dr and dy:
                if gap and gap[c] > min(dr, dy, left):
                    return None
            else:
                seen |= 1 << c
        if seen & bad or not search.frozen_ok(seen):
            return None
        for x, dx in enumerate(after):
            # without the interval rule, an x that stays open has
            # nothing to check: its frozen pairs are read from their
            # other endpoint
            if not smask >> x & 1 or (dx and not gap):
                continue
            row = rows[x]
            for y, dy in enumerate(after):
                # skip y saturated before the step
                if y == x or not (dy or smask >> y & 1):
                    continue
                c = (row & rows[y]).bit_count() + (smask >> y & 1)
                if dx and dy:
                    if gap[c] > min(dx, dy, left):
                        return None
                else:
                    seen |= 1 << c
            if seen & bad or not search.frozen_ok(seen):
                return None
    bit = 1 << len(rows)
    rows = [row | bit if smask >> y & 1 else row
            for y, row in enumerate(rows)]
    rows.append(smask)
    return type(node)(search, tuple(rows))


def automorphisms(g: Graph) -> List[Tuple[int, ...]]:
    """Every automorphism of g, by backtracking over vertex images.

    Vertex x is mapped after 0..x-1, to an unused vertex of its degree
    whose adjacencies to the images of 0..x-1 match.  Shares no logic with
    the canonical search; meant for v <= 7 or so.
    """
    v = g.v
    adj = [[g.rows[x] >> y & 1 for y in range(v)] for x in range(v)]
    deg = [sum(row) for row in adj]
    img: List[int] = []
    used = [False] * v
    out: List[Tuple[int, ...]] = []

    def place(x: int) -> None:
        if x == v:
            out.append(tuple(img))
            return
        for y in range(v):
            if used[y] or deg[y] != deg[x]:
                continue
            if all(adj[x][z] == adj[y][img[z]] for z in range(x)):
                used[y] = True
                img.append(y)
                place(x + 1)
                img.pop()
                used[y] = False

    place(0)
    return out


def group_order(gens: Sequence[Tuple[int, ...]], v: int) -> int:
    """Order of the permutation group on v points that gens generate, by
    listing every product of generators; meant for groups of a few
    thousand elements."""
    identity = tuple(range(v))
    group = {identity}
    stack = [identity]
    while stack:
        p = stack.pop()
        for s in gens:
            q = tuple(s[x] for x in p)
            if q not in group:
                group.add(q)
                stack.append(q)
    return len(group)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on the given vertices, relabelled 0..len-1 in order."""
    pos = {x: i for i, x in enumerate(vertices)}
    if len(pos) != len(vertices):
        raise GraphError("duplicate vertices")
    rows = [0] * len(vertices)
    for x, i in pos.items():
        r = g.rows[x]
        while r:
            y = (r & -r).bit_length() - 1
            r &= r - 1
            if y in pos:
                rows[i] |= 1 << pos[y]
    return Graph(len(vertices), tuple(rows))


def reference_refine(rows: Sequence[int], cells: List[List[int]],
                     splitters: List[int] | None = None) -> List[List[int]]:
    """Coarsest equitable refinement, as `deza.canon.refine` computes it but
    without its stop at a discrete partition: every splitter on the stack
    is popped and tried against every cell."""
    def mask(cell: List[int]) -> int:
        m = 0
        for x in cell:
            m |= 1 << x
        return m

    if splitters is None:
        work = [mask(c) for c in cells]
    else:
        work = list(splitters)
    while work:
        wmask = work.pop()
        out: List[List[int]] = []
        changed = False
        for c in cells:
            if len(c) == 1:
                out.append(c)
                continue
            groups: dict = {}
            for x in c:
                groups.setdefault((rows[x] & wmask).bit_count(), []).append(x)
            if len(groups) == 1:
                out.append(c)
            else:
                changed = True
                for key in sorted(groups):
                    part = groups[key]
                    out.append(part)
                    work.append(mask(part))
        if changed:
            cells = out
    return cells


def reference_encode_graph6(g: Graph) -> str:
    """graph6 of g, one adjacency bit at a time: the upper triangle in
    column order (0,1),(0,2),(1,2),(0,3),..., packed into 6-bit groups."""
    v = g.v
    if v <= 62:
        head = chr(63 + v)
    else:
        head = "~" + "".join(chr(63 + (v >> s & 0x3F)) for s in (12, 6, 0))
    bits = []
    for j in range(1, v):
        rj = g.rows[j]
        for i in range(j):
            bits.append(rj >> i & 1)
    body = []
    for p in range(0, len(bits), 6):
        group = bits[p:p + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = val << 1 | b
        body.append(chr(63 + val))
    return head + "".join(body)


def reference_decode_graph6(text: str) -> Graph:
    """Inverse of `reference_encode_graph6`, walking the triangle bit by bit;
    raises Graph6Error with the same messages and offsets as
    `deza.graph6.decode_graph6`."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    for off, ch in enumerate(s):
        if not ch.isascii():
            raise Graph6Error(f"non-ASCII character {ch!r}", off)
    data = s.encode("ascii")
    for off, byte in enumerate(data):
        if byte < 63 or byte > 126:
            raise Graph6Error(f"invalid graph6 byte {byte}", off)
    if data[0] == 126:  # '~': long form
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte vertex counts exceed the vertex cap", 1)
        if len(data) < 4:
            raise Graph6Error("truncated long-form header", len(data))
        v = 0
        for off in range(1, 4):
            v = v << 6 | (data[off] - 63)
        pos = 4
    else:
        v = data[0] - 63
        pos = 1
    if v > MAX_VERTICES:
        raise Graph6Error(f"vertex count {v} exceeds cap {MAX_VERTICES}", 0)
    nbits = v * (v - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"body length {len(data) - pos} != expected {nbytes} bytes",
            len(data))
    rows = [0] * v
    bit_index = 0
    i, j = 0, 1  # walks the column-major upper triangle
    for off in range(pos, len(data)):
        val = data[off] - 63
        for shift in (5, 4, 3, 2, 1, 0):
            b = val >> shift & 1
            if bit_index < nbits:
                if b:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                i += 1
                if i == j:
                    i, j = 0, j + 1
            elif b:
                raise Graph6Error("nonzero padding bits", off)
            bit_index += 1
    return Graph(v, tuple(rows))


def quadratic_residue(c: int, n: int) -> bool:
    """True when x^2 = c (mod n) has a solution; brute force scan, the
    reference for the sieve's rule D7."""
    if n < 1:
        raise ValueError("modulus must be positive")
    c %= n
    return any(x * x % n == c for x in range(n))


def poly_mul(p: Sequence[int], q: Sequence[int]) -> Tuple[int, ...]:
    """Product of two integer polynomials, coefficients lowest first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return tuple(out)


@dataclass(frozen=True)
class ZeroLambdaAudit:
    lam: int
    k: int
    v: int
    diameter: int
    mulder_applicable: bool        # bounds proved for lambda >= 2 only
    v_bound_holds: bool            # v <= 2^k
    v_bound_equality: bool
    diameter_bound_holds: bool     # diameter <= k
    diameter_bound_equality: bool
    hypercube_confirmed: Optional[bool]  # cert-equal to H(k,2) at equality


def zero_lambda_audit(g: Graph) -> ZeroLambdaAudit:
    """Check the (0,lambda) degree/diameter bounds: a connected k-regular
    (0,lambda) graph with lambda >= 2 has v <= 2^k and diameter <= k, with
    equality only for the k-cube (Mulder, "(0,lambda)-graphs and n-cubes",
    Discrete Math. 28, 1979)."""
    report = classify(g)
    if not report.connected:
        raise ValueError("zero-lambda audit needs a connected graph")
    if report.zero_lambda is None:
        raise ValueError("not a (0,lambda) graph: "
                         f"common values {report.common_values}")
    if report.regular is None:
        raise ValueError("zero-lambda audit needs a regular graph")
    lam = report.zero_lambda
    k = report.regular
    assert report.diameter is not None
    d = report.diameter
    v_bound = 1 << k
    v_eq = g.v == v_bound
    confirmed = None
    if v_eq:
        confirmed = canon_data(g).cert == canon_data(hypercube(k)).cert
    return ZeroLambdaAudit(
        lam=lam, k=k, v=g.v, diameter=d,
        mulder_applicable=lam >= 2,
        v_bound_holds=g.v <= v_bound, v_bound_equality=v_eq,
        diameter_bound_holds=d <= k, diameter_bound_equality=d == k,
        hypercube_confirmed=confirmed)


def rho_closure_shortcut(g: Graph) -> DdgResult:
    """Class partition via the high-value relation, without a full scan.

    For a regular graph with pair values a < b satisfying a < 2b - k the
    relation 'equal or sharing b common neighbours' is transitive, so its
    classes can be read off directly.  Raises GraphError when the value
    structure or the inequality precondition fails; the transitivity
    itself is an invariant and its failure signals a bug.
    """
    rep = classify(g)
    if rep.deza is None or rep.regular is None:
        raise GraphError("need a regular graph with exactly two pair values")
    lo, hi = sorted(rep.common_values)
    k = rep.regular
    if not lo < 2 * hi - k:
        raise GraphError(
            f"precondition a < 2b - k fails: {lo} >= {2 * hi - k}")
    classes = _classes_for_value(g, hi)
    if classes is None:
        raise InternalInvariantError(
            "high-value relation failed to be an equivalence despite "
            "a < 2b - k")
    m, n = len(classes), len(classes[0])
    quotient, _ = equitable_check(g, classes)
    return DdgResult(g.v, k, hi, lo, m, n, classes, quotient)


def reference_classes_for_value(g: Graph, lam1: int
                                ) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Classes of the relation 'equal or sharing lam1 common neighbours',
    found by checking that every member of each candidate class carries
    the same mask; None unless they form an equal-size partition."""
    v = g.v
    masks: List[int] = []
    for u in range(v):
        mk = 1 << u
        for w in range(v):
            if w != u and (g.rows[u] & g.rows[w]).bit_count() == lam1:
                mk |= 1 << w
        masks.append(mk)
    for u in range(v):
        mu = masks[u]
        rest = mu & ~(1 << u)
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if masks[w] != mu:
                return None
    seen: List[int] = []
    for mk in masks:
        if mk not in seen:
            seen.append(mk)
    sizes = {mk.bit_count() for mk in seen}
    if len(sizes) != 1:
        return None
    classes = []
    for mk in seen:
        cls = []
        while mk:
            x = (mk & -mk).bit_length() - 1
            mk &= mk - 1
            cls.append(x)
        classes.append(tuple(cls))
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


def reference_expected_multiset(k: int, d1: int, d2: int, f1: int, f2: int,
                                g1: int, g2: int) -> Dict[Tuple, int]:
    """The spectrum k, +/-sqrt(d1) with multiplicities f1, f2 and
    +/-sqrt(d2) with g1, g2, keyed ("int", r) and ("surd", d); an
    irrational pair with unequal multiplicities adds ("impossible",).
    A zero discriminant keeps its merged multiplicity even when it is 0."""
    out: Dict[Tuple, int] = {("int", k): 1}

    def add(d: int, plus: int, minus: int) -> None:
        s = math.isqrt(d)
        if s * s == d:
            if s == 0:
                out[("int", 0)] = out.get(("int", 0), 0) + plus + minus
            else:
                if plus:
                    out[("int", s)] = out.get(("int", s), 0) + plus
                if minus:
                    out[("int", -s)] = out.get(("int", -s), 0) + minus
        elif plus != minus:
            out[("impossible",)] = 1
        elif plus:
            out[("surd", d)] = out.get(("surd", d), 0) + plus

    add(d1, f1, f2)
    add(d2, g1, g2)
    return out
