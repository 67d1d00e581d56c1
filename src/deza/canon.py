"""Exact canonical forms by partition refinement and backtracking.

The canonical form of a graph is the lexicographically least packed adjacency
obtained over a search tree: refine the unit partition to its coarsest
equitable refinement, then repeatedly individualize one vertex of the first
smallest non-singleton cell and refine again until the partition is
discrete.  Every branch is explored or is the image of an explored one
under a found automorphism, so two graphs get equal certificates iff they
are isomorphic.  No floating point, no hashing shortcuts.

Callers (the enumerator) use the automorphisms discovered as certificate
collisions to collapse symmetric extension choices.  They also prune the
tree in two ways (McKay, "Practical graph isomorphism", Congr. Numer. 30
(1981); McKay and Piperno, "Practical graph isomorphism, II", J. Symbolic
Comput. 60 (2014)):

* Orbit pruning.  At a node, a sibling in the orbit of an explored one
  under the found automorphisms fixing every individualized vertex is
  skipped.
* Backjumping.  Each individualized vertex sits at the start position of
  its cell, so a leaf's order determines its path.  When a leaf ties the
  best leaf, the automorphism sigma between them therefore fixes their
  common path prefix of length l and maps the best leaf's fully explored
  subtree at depth l+1 onto the current one.  Every node deeper than l
  returns at once, and the node at depth l goes on to its next sibling.

Every skipped leaf is the image of an earlier leaf under a found
automorphism, with an equal certificate.  So the certificate, the labeling
(the first minimal leaf in depth-first order) and the last orbit (the
closure of the visited last vertices under the found automorphisms) are
those of the full tree; only the list of generators gets shorter.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .graphs import Graph


@dataclass(frozen=True)
class CanonicalCertificate:
    """canonical_labeling[x] is the canonical position of original vertex x;
    certificate_bytes is the packed relabelled adjacency (with a vertex-count
    header) and is equal across a whole isomorphism class."""

    canonical_labeling: Tuple[int, ...]
    certificate_bytes: bytes


@dataclass(frozen=True)
class CanonData:
    """Full result of the canonical search (internal superset of the public
    certificate): last_orbit is the set of vertices that appear in the last
    canonical position over all optimal labelings, aut_gens are automorphisms
    found as certificate collisions (generating a subgroup of Aut, not
    necessarily all of it)."""

    labeling: Tuple[int, ...]
    cert: bytes
    last_orbit: frozenset
    aut_gens: Tuple[Tuple[int, ...], ...]


def _mask(cell: List[int]) -> int:
    m = 0
    for x in cell:
        m |= 1 << x
    return m


def refine(rows: Tuple[int, ...], cells: List[List[int]],
           splitters: List[int] | None = None) -> List[List[int]]:
    """Coarsest equitable refinement of the ordered partition `cells`.

    Cells split by neighbour count into a splitter set, popped last-pushed
    first; fragments are ordered by count, so the result is equivariant
    under relabeling.  `splitters` (vertex masks) seeds the work stack and
    defaults to every cell.  After x is individualized out of a cell of an
    equitable partition, only the rest of that cell can split anything:
    every cell stays uniform on each other old cell, and on [x] once the
    rest has been used.  So seeding the stack with the rest's mask alone
    gives the same splits in the same order as seeding it with every cell.
    """
    if splitters is None:
        work = [_mask(c) for c in cells]
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
            groups: dict[int, List[int]] = {}
            for x in c:
                groups.setdefault((rows[x] & wmask).bit_count(), []).append(x)
            if len(groups) == 1:
                out.append(c)
            else:
                changed = True
                for key in sorted(groups):
                    part = groups[key]
                    out.append(part)
                    work.append(_mask(part))
        if changed:
            cells = out
    return cells


def _leaf_cert_body(rows: Tuple[int, ...], order: List[int]) -> bytes:
    """Upper-triangle bits of the relabelled adjacency, packed row-major."""
    v = len(order)
    bits = bytearray()
    acc = 0
    nb = 0
    for p in range(v):
        rp = rows[order[p]]
        for q in range(p + 1, v):
            acc = acc << 1 | (rp >> order[q] & 1)
            nb += 1
            if nb == 8:
                bits.append(acc)
                acc = 0
                nb = 0
    if nb:
        bits.append(acc << (8 - nb))
    return bytes(bits)


def _in_orbit(x: int, done: List[int], gens: List[Tuple[int, ...]]) -> bool:
    """True when some product of ``gens`` maps x into ``done``."""
    if not done:
        return False
    dset = set(done)
    seen = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for s in gens:
            z = s[y]
            if z in dset:
                return True
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return False


def _cert_header(v: int) -> bytes:
    return v.to_bytes(2, "big")


def canon_data(g: Graph, root_cells: List[List[int]] | None = None) -> CanonData:
    v = g.v
    rows = g.rows
    if v == 0:
        return CanonData((), _cert_header(0), frozenset(), ())

    parent = list(range(v))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    best_cert: bytes | None = None
    best_order: List[int] = []
    best_fixed: List[int] = []
    last_set: set[int] = set()
    gens: List[Tuple[int, ...]] = []

    if root_cells is None:
        root_cells = refine(rows, [list(range(v))])

    def dfs(cells: List[List[int]], fixed: List[int]) -> int:
        """Search below the equitable partition `cells` reached by
        individualizing `fixed`; return the depth of the node to resume at,
        or v to go on as usual."""
        nonlocal best_cert, best_order, best_fixed
        ci = -1
        size = v + 1
        for i, c in enumerate(cells):
            if 1 < len(c) < size:
                ci = i
                size = len(c)
        if ci < 0:
            order = [c[0] for c in cells]
            cert = _leaf_cert_body(rows, order)
            if best_cert is None or cert < best_cert:
                best_cert = cert
                best_order = order
                best_fixed = fixed
                last_set.clear()
                last_set.add(order[-1])
            elif cert == best_cert:
                sigma = [0] * v
                bo = best_order
                for p in range(v):
                    sigma[order[p]] = bo[p]
                gens.append(tuple(sigma))
                for x in range(v):
                    union(x, sigma[x])
                last_set.add(order[-1])
                # backjump to where this path left the best leaf's path
                depth = 0
                while fixed[depth] == best_fixed[depth]:
                    depth += 1
                return depth
            return v
        cell = cells[ci]
        prefix = cells[:ci]
        suffix = cells[ci + 1:]
        depth = len(fixed)
        # Automorphisms fixing every individualized vertex map this node onto
        # itself, so siblings in one orbit under them explore identical
        # subtrees; keep one representative per orbit.  Exactness is kept:
        # only genuine automorphisms are ever used.
        stab = [s for s in gens if all(s[x] == x for x in fixed)]
        done: List[int] = []
        for x in cell:
            if stab and _in_orbit(x, done, stab):
                continue
            rest = [y for y in cell if y != x]
            back = dfs(refine(rows, prefix + [[x], rest] + suffix,
                              [_mask(rest)]), fixed + [x])
            if back < depth:
                return back
            done.append(x)
            stab = [s for s in gens if all(s[y] == y for y in fixed)]
        return v

    dfs(root_cells, [])
    assert best_cert is not None
    last_roots = {find(x) for x in last_set}
    last_orbit = frozenset(y for y in range(v) if find(y) in last_roots)
    labeling = [0] * v
    for p, x in enumerate(best_order):
        labeling[x] = p
    return CanonData(tuple(labeling), _cert_header(v) + best_cert,
                     last_orbit, tuple(gens))


def canonical_certificate(g: Graph) -> CanonicalCertificate:
    data = canon_data(g)
    return CanonicalCertificate(data.labeling, data.cert)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.v != h.v or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canon_data(g).cert == canon_data(h).cert
