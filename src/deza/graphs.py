"""Immutable simple graphs over bit-row adjacency.

Vertices are 0..v-1.  Row i is a Python int whose bit j is set iff i~j, so
neighbourhood intersections are single AND/bit_count operations.  Everything
downstream (classification, canonical forms, enumeration) works on these rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence, Tuple

# Hard cap on vertex counts.  Bit rows stay cheap well past this point; the cap
# exists so a typo in a construction size fails loudly instead of allocating.
MAX_VERTICES = 512


class GraphError(ValueError):
    pass


class InternalInvariantError(RuntimeError):
    """A mathematically impossible state was reached; indicates a bug."""



def _check_vertex_count(v: int) -> None:
    if v < 0:
        raise GraphError(f"vertex count must be non-negative, got {v}")
    if v > MAX_VERTICES:
        raise GraphError(f"vertex count {v} exceeds cap {MAX_VERTICES}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; `rows[i]` holds the neighbour bitmask of i."""

    v: int
    rows: Tuple[int, ...]

    def degrees(self) -> Tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def neighbours(self, i: int) -> Tuple[int, ...]:
        # ascending, one step per set bit rather than per vertex
        out = []
        row = self.rows[i]
        while row:
            low = row & -row
            out.append(low.bit_length() - 1)
            row ^= low
        return tuple(out)

    def regular_degree(self) -> int | None:
        """Common degree if the graph is regular, else None (v=0: None)."""
        if self.v == 0:
            return None
        degs = self.degrees()
        return degs[0] if all(d == degs[0] for d in degs) else None

    def diameter(self) -> int | None:
        """Exact diameter by BFS from every vertex; None when disconnected."""
        if self.v <= 1:
            return 0
        full = (1 << self.v) - 1
        best = 0
        for s in range(self.v):
            seen = 1 << s
            frontier = seen
            dist = 0
            while seen != full:
                nxt = 0
                while frontier:
                    i = (frontier & -frontier).bit_length() - 1
                    frontier &= frontier - 1
                    nxt |= self.rows[i]
                frontier = nxt & ~seen
                if not frontier:
                    return None
                seen |= frontier
                dist += 1
            best = max(best, dist)
        return best


def make_graph(v: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Graph on v vertices with exactly the given edges (symmetric closure)."""
    _check_vertex_count(v)
    rows = [0] * v
    for e in edges:
        i, j = e
        if not (0 <= i < v and 0 <= j < v):
            raise GraphError(f"edge {e!r} out of range for {v} vertices")
        if i == j:
            raise GraphError(f"loop {e!r} not allowed")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(v, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.v) - 1
    return Graph(g.v, tuple((full & ~r) & ~(1 << i) for i, r in enumerate(g.rows)))


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    if not parts:
        raise GraphError("disjoint_union of no parts")
    v = sum(p.v for p in parts)
    _check_vertex_count(v)
    rows: list[int] = []
    off = 0
    for p in parts:
        rows.extend(r << off for r in p.rows)
        off += p.v
    return Graph(v, tuple(rows))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (a, b) gets index a*h.v + b."""
    v = g.v * h.v
    _check_vertex_count(v)
    rows = [0] * v
    for a in range(g.v):
        for b in range(h.v):
            i = a * h.v + b
            m = h.rows[b] << (a * h.v)          # same g-vertex, h-edges
            gr = g.rows[a]
            while gr:                            # g-edges, same h-vertex
                c = (gr & -gr).bit_length() - 1
                gr &= gr - 1
                m |= 1 << (c * h.v + b)
            rows[i] = m
    return Graph(v, tuple(rows))


def complete_graph(n: int) -> Graph:
    _check_vertex_count(n)
    full = (1 << n) - 1
    return Graph(n, tuple((full & ~(1 << i)) for i in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def empty_graph(n: int) -> Graph:
    _check_vertex_count(n)
    return Graph(n, (0,) * n)


def hypercube(d: int) -> Graph:
    """d-dimensional binary cube H(d,2): words of length d, edges at Hamming
    distance one."""
    if d < 0:
        raise GraphError("hypercube dimension must be non-negative")
    if d >= MAX_VERTICES.bit_length():  # 2^d > MAX_VERTICES
        raise GraphError(f"hypercube dimension {d} exceeds the vertex cap")
    v = 1 << d
    return Graph(v, tuple(
        sum(1 << (u ^ (1 << b)) for b in range(d)) for u in range(v)))


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set: adjacent iff disjoint."""
    verts = list(combinations(range(5), 2))
    idx = {s: i for i, s in enumerate(verts)}
    edges = [(idx[s], idx[t]) for s, t in combinations(verts, 2)
             if not set(s) & set(t)]
    return make_graph(10, edges)


# The Fano plane realized as the translates of the difference set {1,2,4}
# modulo 7: line t is {t+1, t+2, t+4}.  Points are vertices 0..6, lines 7..13.
_FANO_DIFFERENCE_SET = (1, 2, 4)


def fano_lines() -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(sorted((t + d) % 7 for d in _FANO_DIFFERENCE_SET))
                 for t in range(7))


def fano_incidence() -> Graph:
    edges = [(p, 7 + t) for t, line in enumerate(fano_lines()) for p in line]
    return make_graph(14, edges)


def fano_non_incidence() -> Graph:
    edges = [(p, 7 + t) for t, line in enumerate(fano_lines())
             for p in range(7) if p not in line]
    return make_graph(14, edges)


def permute_graph(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel: vertex x becomes perm[x]."""
    if sorted(perm) != list(range(g.v)):
        raise GraphError("not a permutation of the vertex set")
    rows = [0] * g.v
    for x in range(g.v):
        r = g.rows[x]
        m = 0
        while r:
            y = (r & -r).bit_length() - 1
            r &= r - 1
            m |= 1 << perm[y]
        rows[perm[x]] = m
    return Graph(g.v, tuple(rows))

