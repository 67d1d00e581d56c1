"""Brute-force test oracles for the regular-graph generator and the
canonical search."""

import itertools
from typing import List, Sequence, Set, Tuple

from deza.canon import canonical_certificate
from deza.graphs import Graph, GraphError


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


def poly_mul(p: Sequence[int], q: Sequence[int]) -> Tuple[int, ...]:
    """Product of two integer polynomials, coefficients lowest first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return tuple(out)
