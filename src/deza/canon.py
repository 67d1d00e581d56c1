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
orbit of the best leaf's last vertex under the found automorphisms) are
those of the full tree; only the list of generators gets shorter, and
it still generates Aut.  For Aut acts freely on the leaves with the best
certificate, so an automorphism is determined by its image of the best
leaf; that leaf is a visited one, which added a generator mapping it onto
the best leaf, or the image of a visited one under found automorphisms.

Two rules keep the work per node small without changing which leaves are
visited, in the manner of McKay and Piperno (2014):

* `refine` stops as soon as every cell is a singleton.  A discrete
  partition cannot split, so the splitters still on the stack would change
  nothing.
* A leaf's certificate is built as rows: row p is the upper-triangle row of
  position p, an int of v-1-p bits.  Each row is compared with the best
  leaf's row p as soon as it is built.  The first greater row rejects the
  leaf, and the first smaller one makes it the new best.  Every leaf has
  the same row widths, so this row-wise order is exactly the order of the
  packed certificate bytes, which are formed once, for the best leaf.
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
    certificate): last_orbit is the orbit of the best leaf's last vertex,
    which is the set of vertices that appear in the last canonical position
    over all optimal labelings, aut_gens are automorphisms
    found as certificate collisions, and they generate the whole group Aut
    (of the graph, or of the ordered root partition when one is given)."""

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

    Every caller passes a partition of all len(rows) vertices, so at
    len(rows) cells it is discrete and the splitters left can split nothing.
    """
    if splitters is None:
        work = [_mask(c) for c in cells]
    else:
        work = list(splitters)
    while work and len(cells) < len(rows):
        wmask = work.pop()
        out: List[List[int]] = []
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
                for key in sorted(groups):
                    part = groups[key]
                    out.append(part)
                    work.append(_mask(part))
        cells = out
    return cells


def _in_orbit(x: int, done: set[int], gens: List[Tuple[int, ...]]) -> bool:
    """True when some product of ``gens`` maps x into ``done``."""
    seen = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for s in gens:
            z = s[y]
            if z in done:
                return True
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return False


def _cert_header(v: int) -> bytes:
    return v.to_bytes(2, "big")


def _pack_rows(leaf_rows: List[int], v: int) -> bytes:
    """Concatenate the v-1-p bit rows of a leaf, row-major, and pad the last
    byte with zero bits."""
    n = v * (v - 1) // 2
    size = (n + 7) // 8
    acc = 0
    for p, row in enumerate(leaf_rows):
        acc = acc << (v - 1 - p) | row
    return (acc << (8 * size - n)).to_bytes(size, "big")


def canon_data(g: Graph, root_cells: List[List[int]] | None = None) -> CanonData:
    v = g.v
    rows = g.rows
    if v == 0:
        return CanonData((), _cert_header(0), frozenset(), ())

    full = (1 << v) - 1
    best_rows: List[int] | None = None
    best_order: List[int] = []
    best_fixed: List[int] = []
    gens: List[Tuple[int, ...]] = []

    if root_cells is None:
        root_cells = refine(rows, [list(range(v))])

    def dfs(cells: List[List[int]], fixed: List[int],
            stab: List[Tuple[int, ...]]) -> int:
        """Search below the equitable partition `cells` reached by
        individualizing `fixed`; return the depth of the node to resume at,
        or v to go on as usual.  stab lists, in order, the generators found
        so far that fix every vertex of `fixed`."""
        nonlocal best_rows, best_order, best_fixed
        ci = -1
        size = v + 1
        for i, c in enumerate(cells):
            if 1 < len(c) < size:
                ci = i
                size = len(c)
        if ci < 0:
            order = [c[0] for c in cells]
            bit = [0] * v
            for p, x in enumerate(order):
                bit[x] = 1 << (v - 1 - p)
            # Row p holds the adjacencies of order[p] to the later positions,
            # position q at bit v-1-q.  A row greater than the best leaf's
            # ends the leaf; after a smaller one the rest is built unchecked.
            leaf: List[int] = []
            tied = best_rows is not None
            later = full
            for p in range(v - 1):
                x = order[p]
                later ^= 1 << x
                width = v - 1 - p
                nbrs = rows[x] & later
                # walk whichever of neighbours and non-neighbours is fewer
                if 2 * nbrs.bit_count() > width:
                    row = (1 << width) - 1
                    m = later ^ nbrs
                else:
                    row = 0
                    m = nbrs
                while m:
                    low = m & -m
                    row ^= bit[low.bit_length() - 1]
                    m ^= low
                if tied:
                    b = best_rows[p]
                    if row > b:
                        return v
                    if row < b:
                        tied = False
                leaf.append(row)
            if not tied:
                best_rows = leaf
                best_order = order
                best_fixed = fixed
            else:
                sigma = [0] * v
                bo = best_order
                for p in range(v):
                    sigma[order[p]] = bo[p]
                gens.append(tuple(sigma))
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
        # only genuine automorphisms are ever used.  gens only grows, so stab
        # takes in just the generators found since it last looked.
        looked = len(gens)
        done: set[int] = set()
        for x in cell:
            stab += [s for s in gens[looked:] if all(s[y] == y for y in fixed)]
            looked = len(gens)
            if stab and done and _in_orbit(x, done, stab):
                continue
            rest = [y for y in cell if y != x]
            back = dfs(refine(rows, prefix + [[x], rest] + suffix,
                              [_mask(rest)]), fixed + [x],
                       [s for s in stab if s[x] == x])
            if back < depth:
                return back
            done.add(x)
        return v

    dfs(root_cells, [], [])
    assert best_rows is not None
    # a tied leaf's last vertex is best_order[-1]'s image under the inverse
    # of the generator it added, so this orbit holds every optimal last vertex
    last_orbit = {best_order[-1]}
    stack = [best_order[-1]]
    while stack:
        x = stack.pop()
        for s in gens:
            y = s[x]
            if y not in last_orbit:
                last_orbit.add(y)
                stack.append(y)
    labeling = [0] * v
    for p, x in enumerate(best_order):
        labeling[x] = p
    return CanonData(tuple(labeling),
                     _cert_header(v) + _pack_rows(best_rows, v),
                     frozenset(last_orbit), tuple(gens))


def canonical_certificate(g: Graph) -> CanonicalCertificate:
    data = canon_data(g)
    return CanonicalCertificate(data.labeling, data.cert)
