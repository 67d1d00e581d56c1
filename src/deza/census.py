"""Isomorph-free enumeration of regular graphs and theorem audits.

Generation is vertex-by-vertex canonical augmentation (McKay, "Isomorph-
free exhaustive generation", J. Algorithms 26, 1998): a child (the parent
plus one new last vertex) is kept when its neighbour set is the first
tried of its orbit under the parent's automorphisms and its new vertex
lies in the child's canonical last orbit.  Two such siblings are never
isomorphic: an isomorphism, times an automorphism of the second child that
brings the new vertex back, is an automorphism of the parent mapping one
set onto the other.  No global seen-set is needed, so memory stays
proportional to the search depth.

A search node is immutable: adding a vertex returns a new child node and
leaves its parent as it was, so the search needs no undo, and a node can
be handed to a pool worker as it is.  A node carries generators of its
whole automorphism group, found when it was accepted, and its children's
search skips every neighbour set that they map onto one already tried.

Prunes must be monotone: a violating partial graph can only have violating
completions.  A prune is a spec string, which each search reads at its
own degree.  Its checks read a pair count off the packed adjacency rows,
as the popcount of the AND of two rows, only where a step can change it.
The value of a pair with one saturated endpoint can never change again,
since a saturated vertex gains no neighbour; that is what makes
frozen-value constraints monotone.  Those constraints read only which
values are frozen, so their check gathers a child's frozen values from
its rows into a bitmask of distinct values.  An unfrozen pair can still
gain only as many common neighbours as both endpoints have free degree
and vertices remain, which bounds its final value to an interval.

Two counting rules drop children that no later vertices can complete,
so they change no output.  Birth degrees, for every spec: the maximum
degree never falls, so each of the m later vertices is born with at
least as many neighbours as the new one and gains at most k minus that
many later; the child's deficiency must cover the rest.  The counting
check, before the root refine, bounds what the later vertices add to
the pair counts: from above under maxpair, as a later vertex shares at
most maxpair neighbours with a placed one and two later vertices share
at most maxpair placed neighbours; from below under sat, as each later
neighbour of an open x adds at most k - 1 to the pair counts of x,
which must still reach sat values.

The sat clause, with its interval rule, is enforced at candidate
choice alone; a pair that can no longer reach a sat value never will,
so that changes no output either.  A step with neighbour set s touches
the pair of the new vertex with every placed y, at |N(y) & s|, and the
pair of every x in s with every other y not saturated before, at
c_xy + [y in s]; pairs frozen before the step keep their values.  With
degrees read after the step, a touched pair can gain at most
min(k - deg x, k - deg y) more common neighbours: its slack, 0 when the
step freezes it.  The m vertices still to come bound it no further, as
the forced-vertex rule keeps every deficiency after the step at most m.
So a set breaks sat, or leaves a pair whose interval holds no sat
value, exactly when a touched pair is dead at its slack, and candidate
choice drops exactly those sets.  A pair the step does not touch keeps
its count and its slack, so it stays alive.  satdistinct and anchor are
checked on the child's rows, and only on a spec with satdistinct that
is not vacuous.
"""

import hashlib
import json
import multiprocessing
import os
import re
from dataclasses import asdict, dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Set, Tuple, Union)

from . import __version__
from .canon import canon_data, canonical_certificate, refine
from .catalog import construct, graph_facts
from .classify import beta_formula
from .graphs import Graph, GraphError
from .graph6 import encode_graph6

DEFAULT_LIMITS_NOTE = ("default limits: any k for v <= 10, k <= 4 for "
                       "v <= 14, and k <= 4 for v <= 16 with long=True; "
                       "set DEZA_MAX_VERTICES to override")


def _compile_term(term: str, kind: str = "prune") -> Callable[[int], int]:
    """Compile an integer or k-<int> term to a function of the degree."""
    term = term.strip()
    m = re.fullmatch(r"k-(\d+)", term)
    if m:
        offset = int(m.group(1))
        return lambda k: k - offset
    if re.fullmatch(r"-?\d+", term):
        value = int(term)
        return lambda k: value
    raise GraphError(f"bad {kind} term {term!r}; use an integer or k-<int>")


class _Search:
    """What every node of one search shares: v, k, the prune spec read at
    degree k, and the tables derived from it, computed once.

    A spec such as 'maxpair=k-2;sat=0,k-2;satdistinct=2;anchor=k-2' holds
    each clause at most once; an absent prune is a spec with no clauses.
    maxpair bounds every common-neighbour count.  For pairs with a
    saturated endpoint (degree k, value frozen): the value must lie in sat
    when given; the number of distinct frozen values must not exceed
    distinct; and once that many are present, anchor must be among them.
    Without satdistinct, anchor would prune nothing, so it is refused.  A
    k-<int> term below zero stays negative, and no count can equal it.
    Since a regular graph freezes every pair, sat also rejects an unfrozen
    pair whose reachable interval holds none of its values.

    A pair with c common neighbours that can still gain at most t more (its
    slack) is dead when no sat value lies in [c, c + t].  dead[t] is the
    mask of those counts c, for c at most maxpair and at most k - t (a
    pair whose endpoints each lack t neighbours has at most k - t
    common ones).  The masks only shrink as t grows, so dead[min(s, t)]
    is dead[s] | dead[t].  A frozen pair has slack 0, so dead[0] is the
    sat test, and the rest is the interval rule; candidate choice
    applies both.  vacuous says whether no value 0..min(maxpair, k) is in
    dead[0] and frozen_ok accepts them all.  The rules only get stricter
    on larger value sets, so such a spec can reject no step; then no
    frozen value is computed at all.  dead is None for a spec without sat
    or without a dead count, so for every vacuous one.

    gap[c], for c at most maxpair and k, is how far c lies below the
    nearest sat value at or above it, k+1 when there is none; the
    pair-sum bound of counts_ok reads it.  gap is None unless some count
    below the largest sat value has a gap, as only such a count can make
    the bound refuse a child that the dead-pair rule lets through.  Both
    tables read only the sat values up to min(maxpair, k), as no count
    can reach a larger one.
    """

    __slots__ = ("v", "k", "maxpair", "sat", "distinct", "anchor",
                 "vacuous", "dead", "gap")

    def __init__(self, v: int, k: int, prune: Optional[str]):
        self.v = v
        self.k = k
        self.maxpair: Optional[int] = None
        self.sat: Optional[Tuple[int, ...]] = None
        self.distinct: Optional[int] = None
        self.anchor: Optional[int] = None
        given = set()
        for clause in (prune or "").split(";"):
            clause = clause.strip()
            if not clause:
                continue
            key, _, value = clause.partition("=")
            key = key.strip()
            if key in given:
                raise GraphError(f"bad prune term {clause!r}: the {key} "
                                 f"clause is repeated")
            given.add(key)
            if key == "maxpair":
                self.maxpair = _compile_term(value)(k)
            elif key == "sat":
                self.sat = tuple(sorted({_compile_term(t)(k)
                                         for t in value.split(",")}))
            elif key == "satdistinct":
                try:
                    self.distinct = int(value)
                except ValueError:
                    raise GraphError(f"bad prune term {value.strip()!r}; "
                                     f"use an integer") from None
            elif key == "anchor":
                self.anchor = _compile_term(value)(k)
            else:
                raise GraphError(f"unknown prune clause {key!r}")
        if self.anchor is not None and self.distinct is None:
            raise GraphError("bad prune spec: the anchor clause needs a "
                             "satdistinct clause")
        top = k if self.maxpair is None else min(self.maxpair, k)
        dead: Optional[Tuple[int, ...]] = None
        gap: Optional[Tuple[int, ...]] = None
        if self.sat is not None:
            sat = [t for t in self.sat if t <= top]
            gap = tuple(min((t - c for t in sat if t >= c),
                            default=k + 1) for c in range(top + 1))
            dead = tuple(sum(1 << c for c, g in enumerate(gap[:k - t + 1])
                             if g > t) for t in range(k + 1))
            if not any(gap[:max([0, *sat])]):
                gap = None
        self.dead = dead if dead and dead[0] else None
        self.gap = gap
        low = sum(1 << c for c in range(top + 1))
        self.vacuous = self.dead is None and self.frozen_ok(low)

    def frozen_ok(self, seen: int) -> bool:
        """Whether satdistinct and anchor accept the values in the mask
        seen (bit c set when some frozen pair has c common neighbours)."""
        most = self.distinct
        if most is not None:
            distinct = seen.bit_count()
            if distinct > most:
                return False
            anchor = self.anchor
            if (anchor is not None and distinct == most
                    and (anchor < 0 or not seen >> anchor & 1)):
                return False
        return True

    def root(self) -> "_Partial":
        """The node holding the first vertex alone."""
        return _Partial(self, (0,))


class _Partial(NamedTuple):
    """An immutable search node: the adjacency rows of a partial graph and
    gens, the automorphisms canon_data found when the node was accepted,
    which its children's search uses to skip symmetric candidate sets.
    Every rule on a node reads its rows: a vertex set is a bit mask, as a
    row is, a degree is a row's popcount, and a pair count is
    (rows[x] & rows[y]).bit_count().  add_vertex returns a child and
    never changes its node.
    """

    search: _Search
    rows: Tuple[int, ...]
    gens: Tuple[Tuple[int, ...], ...] = ()

    def graph(self) -> Graph:
        return Graph(len(self.rows), self.rows)

    def add_vertex(self, smask: int) -> "_Partial":
        """The child whose new vertex r joins the set smask."""
        rows = [*self.rows, smask]
        bit = 1 << len(self.rows)
        while smask:
            y = smask.bit_length() - 1
            rows[y] |= bit
            smask ^= 1 << y
        return _Partial(self.search, tuple(rows))

    def frozen_values_ok(self) -> bool:
        """Whether satdistinct and anchor accept the node's frozen values,
        the counts of its pairs with a saturated endpoint.  The rules only
        get stricter as values join, so they are checked after the pairs
        of each saturated x, from the last vertex back."""
        search = self.search
        if search.distinct is None or search.vacuous:
            return True
        k = search.k
        rows = self.rows
        seen = 0
        for x in range(len(rows) - 1, -1, -1):
            row = rows[x]
            if row.bit_count() == k:
                for y, other in enumerate(rows):
                    if y != x:
                        seen |= 1 << (row & other).bit_count()
                if not search.frozen_ok(seen):
                    return False
        return True

    def counts_ok(self) -> bool:
        """Whether the m = v - n later vertices can fill every deficiency
        d_y = k - deg y within the pair-count bounds of the spec.

        sat gives a lower bound, when search.gap is set.  A pair of open
        vertices x and y must still gain gap[c_xy] common neighbours, all
        of them later neighbours of x; each of the d_x later neighbours
        of x has k - 1 other neighbours, so the gaps of x with the other
        open y sum to at most d_x*(k - 1).  This is the partial form of
        the Deza row-sum identity, the sum over y of c_xy being k(k - 1).
        It refuses more children than the other half, so it runs first.

        maxpair gives upper bounds.  A later vertex has at most maxpair
        neighbours among those of a placed z, so the d_u of the placed
        neighbours u of z sum to at most m*maxpair; and two later
        vertices share at most maxpair placed neighbours, so the
        C(d_y, 2) sum to at most maxpair*C(m, 2).
        """
        search = self.search
        k = search.k
        rows = self.rows
        gap = search.gap
        if gap is not None:
            open_rows = []
            for row in rows:
                if row.bit_count() < k:
                    open_rows.append(row)
            # the most the other open vertices can add to one sum
            ceiling = (len(open_rows) - 1) * max(gap)
            for x, row in enumerate(open_rows):
                room = (k - row.bit_count()) * (k - 1)
                if room >= ceiling:
                    continue
                for y, other in enumerate(open_rows):
                    if y != x:
                        room -= gap[(row & other).bit_count()]
                        if room < 0:
                            return False
        most = search.maxpair
        if most is not None:
            m = search.v - len(rows)
            # masks[d]: the placed vertices with deficiency d
            masks = [0] * (k + 1)
            pairs = 0
            for y, row in enumerate(rows):
                d = k - row.bit_count()
                masks[d] |= 1 << y
                pairs += d * (d - 1)
            if pairs > most * m * (m - 1):
                return False
            # above: for each j below the largest deficiency, the vertices
            # with deficiency above j; a vertex with deficiency d is in d
            # of these masks, so a row's popcounts with them sum its d_u
            above = []
            mask = 0
            for d in range(k, 0, -1):
                mask |= masks[d]
                if mask:
                    above.append(mask)
            cap = m * most
            for row in rows:
                total = 0
                for mask in above:
                    total += (row & mask).bit_count()
                if total > cap:
                    return False
        return True


def _candidate_sets(node: _Partial) -> Iterator[int]:
    """Neighbour sets, as bit masks, for the next vertex in a fixed order.

    Sets come by size, then in lexicographic order of their optional
    members.  The forced-vertex rule (a vertex whose deficiency equals
    the number of vertices still to come after this one must be picked
    now) and three counting bounds on the total remaining deficiency
    shape them, and two filters drop sets that could only be rejected
    later.  The third bound is on birth degrees: with m vertices after
    this one, each is born with at least size neighbours (the maximum
    degree never falls) and gains at most k - size later ones, so the
    child's deficiency total_def + k - 2*size must be at least
    m*(2*size - k), the most the later vertices lack after their edges
    among themselves.  The filters:

    - degree: the new vertex r must get the child's maximum degree, since
      refine splits by degree first and orders the fragments ascending,
      so only then can r lie in the last root cell; smaller sizes are
      skipped, and at the parent's maximum degree a vertex already there
      is left out.  No vertex gains a neighbour before the next one is
      placed, so the maximum degree of a node is its last vertex's;
    - maxpair: a set is dropped as soon as a pair inside it already has
      maxpair common neighbours, or an existing vertex has more than
      maxpair neighbours in it.  Both counts only grow with the set, so
      dropping at the first such prefix is exact;
    - dead pairs, when search.dead is set: a set is dropped when a pair
      its step touches would be dead at its slack after the step (see
      _Search and the module docstring).  For an open x and another open
      y with count c, the step keeps c at slack min(k - deg x - 1,
      k - deg y) when x joins alone, and makes it c + 1 at
      min(k - deg x - 1, k - deg y - 1) when both join.  A dead count
      in the first case makes y join with x, and a dead count or one
      above maxpair in the second keeps the two apart, as a conflict
      like maxpair's.  No y gets both: that needs c = min(maxpair, k)
      outside sat, dead at every slack, but the pair was alive before
      the step.  These relations are built for the open x of degree k-1
      (tails), and for every open x once dead[1] is not 0; a prefix is
      dropped once a vertex it requires is blocked or passed.  The new vertex
      and a placed y get |N(y) & s|, and every such pair has slack
      k - size: size is at least deg y, and above it when y is in s, as
      at size = top the degree filter leaves out the optional vertices of
      degree top, and a forced one of degree top makes lo > top.  Each
      size watches the y where that count can be dead, and checks them
      when the last member is picked: for the prefix before it, fix
      holds the y whose count is dead unless the last member is their
      neighbour, and avoid those whose count is dead if it is.  A node
      where no step can leave a touched pair with a slack that has a
      dead count builds nothing.

    The surviving sets keep their relative order.
    """
    search = node.search
    v, k = search.v, search.k
    rows = node.rows
    deg = [row.bit_count() for row in rows]
    r = len(rows)
    rem_after = v - r - 1
    forced: List[int] = []
    optional: List[int] = []
    total_def = 0
    for j in range(r):
        d = k - deg[j]
        total_def += d
        if d == rem_after + 1:
            forced.append(j)
        elif d:
            optional.append(j)
    top = deg[-1]
    lo = max(len(forced), top)
    hi = len(forced) + len(optional)
    # after the step the remaining deficiency must fit in the leftover
    # vertices: sum <= rem_after*k and the excess of rem_after*k over the
    # sum must be coverable by edges among the leftovers
    num = total_def + k - rem_after * k
    lo = max(lo, (num + 1) // 2)
    num = rem_after * (rem_after - 1) - rem_after * k + total_def + k
    hi = min(hi, num // 2)
    hi = min(hi, (total_def + k * (rem_after + 1)) // (2 * (rem_after + 1)))
    # With m = rem_after, lo needs no k - m term: top >= k - m - 1 (at the
    # root as k < v, then as the last vertex's size), and if equal every
    # open vertex is forced, so len(forced) = r >= k - m.  So by induction
    # every d <= m + 1, with no guard: forced vertices join every set, and
    # the new vertex gets k - size <= m.  hi needs no k term: the birth
    # bound tops k only if total_def >= (m+1)(k+2); then for m >= 1 the
    # lower sum bound lies above it by m(total_def - k(m+1))/(2(m+1)) > 0,
    # and for m = 0 every open vertex is forced, so lo >= total_def > it.
    # A forced vertex of degree top makes top = k - m - 1, so lo >= r > top.
    if lo > hi:
        return
    maxp = search.maxpair
    dead = search.dead
    # every pair a step touches keeps at least this slack, as no placed
    # vertex has more than top neighbours
    if dead is not None and not dead[max(0, min(k - hi, k - 1 - top))]:
        dead = None
    # conflict[x]: the candidates y that cannot join x, because x and y
    # already have maxpair common neighbours or their pair would die if
    # both did; a vertex z with maxpair neighbours in the set blocks every
    # further neighbour of z
    conflict = dict.fromkeys(forced + optional, 0)
    nbrs = {}
    requiring = 0
    if maxp is not None or dead is not None:
        reach = 0
        for x in conflict:
            reach |= 1 << x
        if maxp is not None:
            # only a vertex with maxpair open neighbours can block any
            hot = [z for z in range(r)
                   if (rows[z] & reach).bit_count() >= maxp]
        if dead is not None:
            # the count that joining both takes above maxpair
            over = 1 << (k if maxp is None else min(maxp, k)) + 1
            every = dead[1]
            # require[x]: the candidates that must join whenever x does
            require = dict.fromkeys(conflict, 0)
        for x in conflict:
            row = rows[x]
            if maxp is not None:
                nbrs[x] = [z for z in hot if row >> z & 1]
            if dead is not None and (every or deg[x] == k - 1):
                mine = dead[k - deg[x] - 1] | over
                # by[j]: the open y whose pair with x has relation j, bit
                # 0 when y must join with x and bit 1 when it must not
                by = [0, 0, 0]
                for y in conflict:
                    if y != x:
                        c = (row & rows[y]).bit_count()
                        j = mine >> c & 3
                        if every:
                            # the slack of y after both join, when x is
                            # not a tail; with y out the pair keeps the
                            # slack of y, at which it is alive
                            j |= dead[k - deg[y] - 1] >> c & 2
                        by[j] |= 1 << y
                require[x] = by[1]
                if require[x]:
                    requiring |= 1 << x
                apart = by[2]
                conflict[x] |= apart
                while apart:
                    low = apart & -apart
                    conflict[low.bit_length() - 1] |= 1 << x
                    apart ^= low
            elif maxp is not None and deg[x] >= maxp:
                # a pair has at most min(deg x, deg y) common neighbours
                for y in conflict:
                    if y != x and (row & rows[y]).bit_count() >= maxp:
                        conflict[x] |= 1 << y
    base = 0
    blocked = 0
    for x in forced:
        if blocked >> x & 1:
            return
        base |= 1 << x
        blocked |= conflict[x]
    base_need = 0
    if requiring:
        for x in forced:
            base_need |= require[x]
    if maxp is not None:
        for row in rows:
            c = (row & base).bit_count()
            if c > maxp:
                return
            if c == maxp:
                blocked |= row
    for size in range(lo, hi + 1):
        need = size - len(forced)
        pool = optional
        if size == top:
            pool = [x for x in optional if deg[x] != top]
        n = len(pool)
        checks = False
        if dead is not None:
            joinable = reach
            if size == top:
                joinable = base
                for x in pool:
                    joinable |= 1 << x
            # the dead counts of every pair of the new vertex, and the
            # placed y whose pair can be dead: one with no neighbour that
            # can join keeps count 0
            now = dead[k - size]
            watch = [(y, row) for y, row in enumerate(rows)
                     if now and (row & joinable or now & 1)]
            checks = bool(watch or requiring & joinable)
            if checks and need <= 1:
                fix, avoid = _dead_masks(base, watch, now)
        if need == 0:
            if not checks or not (base_need & ~base or fix):
                yield base
            continue
        # lexicographic combinations of need members of pool, built one
        # member at a time; masks[d], blocks[d] and needs[d] hold the set,
        # its blocked vertices and the vertices it requires after d picks
        picks = [0] * need
        masks = [base] * need
        blocks = [blocked] * need
        needs = [base_need] * need
        d = 0
        i = 0
        while True:
            block = blocks[d]
            end = n - need + d
            while i <= end and block >> pool[i] & 1:
                i += 1
            if i > end:
                if d == 0:
                    break
                d -= 1
                i = picks[d] + 1
                continue
            picks[d] = i
            x = pool[i]
            mask = masks[d] | 1 << x
            if d + 1 == need:
                # the last pick completes the relations and the counts of
                # the new vertex, its own among them
                if not checks or not (
                        fix & ~rows[x] or avoid & rows[x]
                        or (needs[d] | require[x]) & ~mask):
                    yield mask
                i += 1
                continue
            block |= conflict[x]
            if maxp is not None:
                for z in nbrs[x]:
                    if (rows[z] & mask).bit_count() == maxp:
                        block |= rows[z]
            if checks:
                # the prefix is dead when a vertex it requires is blocked,
                # already passed, or one too many for the picks left
                wanted = needs[d] | require[x]
                unmet = wanted & ~mask
                if unmet:
                    low = (unmet & -unmet).bit_length() - 1
                    if (unmet & block or unmet.bit_count() > need - d - 1
                            or low not in pool or pool.index(low) < i):
                        i += 1
                        continue
                if d + 2 == need:
                    fix, avoid = _dead_masks(mask, watch, now)
                    if fix & avoid:
                        i += 1
                        continue
                needs[d + 1] = wanted
            d += 1
            masks[d] = mask
            blocks[d] = block
            i += 1


def _dead_masks(prefix: int, watch: Sequence[Tuple[int, int]], dead: int
                ) -> Tuple[int, int]:
    """fix and avoid of _candidate_sets for a set whose members but the
    last are in prefix: for each watched (y, row), the pair of y and the
    new vertex gets |N(y) & prefix|, plus one when the last member is a
    neighbour of y, and every such pair has the dead counts dead; fix
    holds the y whose count is dead without that one, and avoid those
    whose count is dead with it."""
    fix = avoid = 0
    for y, row in watch:
        c = (row & prefix).bit_count()
        fix |= (dead >> c & 1) << y
        avoid |= (dead >> c + 1 & 1) << y
    return fix, avoid


def _last_cell_possible(rows: Sequence[int]) -> bool:
    """Whether the last vertex r can lie in the last root cell.

    refine splits the unit partition by degree and then, popping the
    last-pushed splitter first, by neighbours in the maximum-degree cell
    D, ordering fragments ascending each time.  So its last cell holds
    only members of D with the most neighbours in D, and r must be one;
    candidate choice already put r in D, so the maximum degree is r's.
    """
    last = rows[-1]
    top = last.bit_count()
    dmask = 0
    for x, row in enumerate(rows):
        if row.bit_count() == top:
            dmask |= 1 << x
    mine = (last & dmask).bit_count()
    for row in rows:
        if row.bit_count() == top and (row & dmask).bit_count() > mine:
            return False
    return True


def _orbit_seen(s: int, seen: Set[int],
                gens: Sequence[Tuple[int, ...]]) -> bool:
    """True if some automorphism image of the mask s was already processed.

    On a miss the whole orbit of s is added to seen.  The filters of
    _candidate_sets read only what automorphisms preserve, so every
    image is a set that candidate choice yields.  That holds for the
    dead-pair rule too: it reads only degrees, pair counts and the spec,
    and a set it drops has every image dropped with it.
    """
    if s in seen:
        return True
    orbit = {s}
    queue = [s]
    while queue:
        cur = queue.pop()
        members = [x for x in range(cur.bit_length()) if cur >> x & 1]
        for g in gens:
            img = 0
            for x in members:
                img |= 1 << g[x]
            if img not in orbit:
                orbit.add(img)
                queue.append(img)
    seen.update(orbit)
    return False


def generate_regular(v: int, k: int, prune: Optional[str] = None,
                     jobs: int = 1) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of k-regular graphs.

    The output order is deterministic and independent of jobs.  A prune
    is a spec string, such as "maxpair=k-2;sat=0,k-2", read at degree k.
    """
    if v < 1:
        raise GraphError("need at least one vertex")
    if not 0 <= k < v:
        raise GraphError(f"degree {k} out of range for {v} vertices")
    if v * k % 2:
        raise GraphError(f"no {k}-regular graph on {v} vertices: v*k is odd")
    if jobs < 1:
        raise GraphError(f"jobs must be at least 1, got {jobs}")
    if prune is not None and not isinstance(prune, str):
        raise GraphError(f"unsupported prune argument {prune!r}")
    search = _Search(v, k, prune)
    if jobs > 1:
        yield from _generate_parallel(search, jobs)
        return
    yield from _extend(search.root())


def _accepted_children(node: _Partial) -> Iterator[_Partial]:
    """Yield each accepted child of node, carrying its automorphisms.

    A child is accepted when its neighbour set is the first of its orbit
    under node.gens, it passes the prunes, and its new vertex r lies in
    the canonical last orbit.  Cheap necessary conditions run first:
    _candidate_sets yields only sets that give r the maximum degree and
    pass maxpair, sat and the interval rule; frozen_values_ok (satdistinct
    and anchor), _last_cell_possible and counts_ok, which drops children
    with no completion, read the child's rows before the root refine.
    Every test is invariant under the parent's automorphisms, so skipping
    orbits with _orbit_seen after the first ones keeps the same
    representatives.
    """
    r = len(node.rows)
    gens = node.gens
    seen_sets: Set[int] = set()
    for s in _candidate_sets(node):
        if gens and _orbit_seen(s, seen_sets, gens):
            continue
        child = node.add_vertex(s)
        if (not child.frozen_values_ok()
                or not _last_cell_possible(child.rows)
                or not child.counts_ok()):
            continue
        cells = refine(child.rows, [list(range(r + 1))])
        if r in cells[-1]:
            data = canon_data(child.graph(), cells)
            if r in data.last_orbit:
                yield child._replace(gens=data.aut_gens)


def _extend(node: _Partial) -> Iterator[Graph]:
    if len(node.rows) == node.search.v:
        yield node.graph()
        return
    for child in _accepted_children(node):
        yield from _extend(child)


def _frontier(search: _Search, min_nodes: int) -> List[_Partial]:
    """Accepted nodes at one depth below v, in DFS order."""
    depth = 1
    level = [search.root()]
    while depth < search.v - 1 and 0 < len(level) < min_nodes:
        level = [child for node in level
                 for child in _accepted_children(node)]
        depth += 1
    return level


# Frontier subtrees per pool worker.  Work per subtree is very uneven:
# cut at 8 nodes, (14,3) under the theorem-3 prune has one subtree with
# 2.51 s of the cell's 2.55 s, so at 4 per worker one of two workers sat
# idle.  At 16 per worker its largest subtree is half the cell.
_SUBTREES_PER_JOB = 16


def _subtree_task(node: _Partial) -> List[Tuple[int, ...]]:
    return [g.rows for g in _extend(node)]


def _generate_parallel(search: _Search, jobs: int) -> Iterator[Graph]:
    """Yield the serial output of generate_regular from a pool of jobs.

    The tree is cut at the first whole level, in DFS order, that holds at
    least _SUBTREES_PER_JOB * jobs nodes, or at depth v-1; each node's
    subtree is one task.  A node is immutable, so it goes to its worker
    as it is, automorphisms included, and the worker searches on from it
    exactly as the serial run would.  Work per subtree is very uneven, so
    many small tasks per worker are what keep every worker busy to the
    end.  The ordered imap returns the subtrees in frontier order, and
    every frontier level is itself in DFS order, so the output is the
    serial DFS order whatever depth the cut lands at.
    """
    level = _frontier(search, min_nodes=_SUBTREES_PER_JOB * jobs)
    if not level:
        return
    with multiprocessing.Pool(jobs) as pool:
        for chunk in pool.imap(_subtree_task, level):
            for rows in chunk:
                yield Graph(search.v, rows)


@dataclass(frozen=True)
class CensusRecord:
    """One enumerated graph with its classification summary.

    Field order below is the JSON field order; records never carry
    timestamps or floats so identical runs serialize identically.
    """
    graph6: str
    v: int
    k: int
    deza: Optional[Tuple[int, int, int, int]]
    strictly_deza: bool
    srg: Optional[Tuple[int, int, int, int]]
    ddg: Optional[Tuple[int, int, int, int]]
    diameter: Optional[int]
    certificate_hash: str
    generator: Tuple[Tuple[str, object], ...]

    def as_dict(self) -> Dict[str, object]:
        # vars() lists the fields in declaration order; asdict() would
        # also deep-copy each one, at 4x the cost of as_json
        return {**vars(self),
                "ddg": (None if self.ddg is None else
                        dict(zip(("lambda1", "lambda2", "m", "n"), self.ddg))),
                "generator": dict(self.generator)}

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))


def _cert_hash(g: Graph) -> str:
    cert = canonical_certificate(g).certificate_bytes
    return hashlib.sha256(cert).hexdigest()


def build_record(g: Graph, generator: Tuple[Tuple[str, object], ...]
                 ) -> CensusRecord:
    k = g.regular_degree()
    if k is None:
        raise GraphError("census records cover regular graphs only")
    return CensusRecord(graph6=encode_graph6(g), v=g.v, k=k,
                        **graph_facts(g), certificate_hash=_cert_hash(g),
                        generator=generator)


_FILTER_FLAGS: Dict[str, Callable[[CensusRecord], bool]] = {
    "all": lambda rec: True,
    "connected": lambda rec: rec.diameter is not None,
    "deza": lambda rec: rec.deza is not None,
    "strictly-deza": lambda rec: rec.strictly_deza,
    "srg": lambda rec: rec.srg is not None,
    "ddg-proper": lambda rec: rec.ddg is not None,
}

_FILTER_ALIASES = {
    "strictly deza": "strictly-deza",
    "ddg proper": "ddg-proper",
    "deza with b=k-2": "deza(*,*,k-2,*)",
}


def parse_filter(spec: str) -> Callable[[CensusRecord], bool]:
    """Compile a record filter such as 'deza(*,4,k-2,1)&connected'.

    Atoms: all, connected, deza, strictly-deza, srg, ddg-proper, and
    parameter forms deza(v,k,b,a) / ddg(l1,l2,m,n) whose terms are
    integers, '*', or k-<int> resolved against the record's degree, and
    'v' as the first term of deza(...) only.  A bad term raises here,
    before any record is seen.
    """
    checks: List[Callable[[CensusRecord], bool]] = []
    for raw in spec.split("&"):
        atom = " ".join(raw.strip().lower().split())
        atom = _FILTER_ALIASES.get(atom, atom)
        m = re.fullmatch(r"(deza|ddg)\s*\(([^)]*)\)", atom)
        if m:
            kind = m.group(1)
            terms = [t.strip() for t in m.group(2).split(",")]
            if len(terms) != 4:
                raise GraphError(f"filter {raw!r} needs four parameters")
            # '*' matches anything, 'v' only as deza's vertex count;
            # every other term is compiled now, before any record exists
            bounds = [None if t == "*" or (t, i, kind) == ("v", 0, "deza")
                      else _compile_term(t, "filter")
                      for i, t in enumerate(terms)]

            def check(rec: CensusRecord, kind=kind, bounds=bounds) -> bool:
                params = rec.deza if kind == "deza" else rec.ddg
                if params is None:
                    return False
                return all(b is None or b(rec.k) == p
                           for b, p in zip(bounds, params))

            checks.append(check)
        elif atom in _FILTER_FLAGS:
            checks.append(_FILTER_FLAGS[atom])
        else:
            raise GraphError(f"unknown filter atom {raw!r}")
    return lambda rec: all(c(rec) for c in checks)


def _check_limits(v: int, k: int, long: bool) -> None:
    env = os.environ.get("DEZA_MAX_VERTICES")
    if env is not None:
        try:
            ceiling = int(env)
        except ValueError:
            raise GraphError(f"DEZA_MAX_VERTICES must be an integer, "
                             f"got {env!r}") from None
        if v <= ceiling:
            return
        raise GraphError(f"v={v} exceeds DEZA_MAX_VERTICES={ceiling}")
    if v <= 10:
        return
    if v <= 14 and k <= 4:
        return
    if long and v <= 16 and k <= 4:
        return
    raise GraphError(f"v={v}, k={k} outside {DEFAULT_LIMITS_NOTE}")


def _as_values(values: Union[int, Iterable[int]]) -> List[int]:
    if isinstance(values, int):
        return [values]
    return sorted(set(values))


_Cell = Tuple[int, int, Optional[str], object]


def _records(cells: Iterable[_Cell], jobs: int, long: bool,
             generator: Tuple[Tuple[str, object], ...] = ()
             ) -> Iterator[Tuple[object, CensusRecord]]:
    """Draw every (v, k, prune, target) cell now, checking each against the
    desk limits as it comes, so a window past them fails at its first bad
    cell; then lazily yield (target, record) for each graph in generation
    order.
    """
    checked = []
    for cell in cells:
        _check_limits(cell[0], cell[1], long)
        checked.append(cell)
    return ((target, build_record(g, generator))
            for v, k, prune, target in checked
            for g in generate_regular(v, k, prune=prune, jobs=jobs))


def census(v_values: Union[int, Iterable[int]],
           k_values: Union[int, Iterable[int]],
           filter_spec: str = "all",
           out: Optional[str] = None,
           prune: Optional[str] = None,
           jobs: int = 1,
           long: bool = False) -> List[CensusRecord]:
    """Enumerate the given (v, k) cells into sorted census records.

    Records are ordered by (v, k, certificate hash).  With `out`, writes
    out.g6 (one graph6 line per record) and out.meta.jsonl, fsynced on
    completion.  Cells with odd v*k or k >= v are skipped; cells past the
    desk limits, or an out prefix in no existing directory, raise an
    error before any cell runs.
    """
    accept = parse_filter(filter_spec)
    vs = _as_values(v_values)
    ks = _as_values(k_values)
    generator = (("version", __version__), ("bounds", {"v": vs, "k": ks}),
                 ("prune", prune))
    found = _records([(v, k, prune, None) for v in vs for k in ks
                      if 0 <= k < v and v * k % 2 == 0], jobs, long, generator)
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise GraphError(f"no directory for the census files {out}.g6 "
                         f"and {out}.meta.jsonl")
    records = sorted((rec for _, rec in found if accept(rec)),
                     key=lambda r: (r.v, r.k, r.certificate_hash))
    if out is not None:
        _write_census_files(out, records)
    return records


def _write_census_files(prefix: str, records: Sequence[CensusRecord]) -> None:
    for suffix, render in ((".g6", lambda r: r.graph6),
                           (".meta.jsonl", lambda r: r.as_json())):
        try:
            with open(prefix + suffix, "w", encoding="ascii") as fh:
                for rec in records:
                    fh.write(render(rec) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise GraphError(f"cannot write {prefix + suffix}: "
                             f"{exc.strerror}") from None


@dataclass(frozen=True)
class AuditReport:
    """Outcome of checking one classification theorem by enumeration.

    found lists every graph in scope; matches pairs found graphs with
    expected cases; discrepancies carry kind 'found-but-unexpected',
    'expected-but-missing', or 'parameter-mismatch'.
    """
    theorem: int
    bounds: Dict[str, object]
    expected: Tuple[Dict[str, object], ...]
    found: Tuple[Dict[str, object], ...]
    matches: Tuple[Dict[str, object], ...]
    discrepancies: Tuple[Dict[str, object], ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self), "ok": self.ok}


@dataclass(frozen=True)
class _Case:
    """An expected case of a theorem.

    A certificate case is the catalog graph of that name, found by
    certificate and checked against its listed parameters; a family is
    recognised by the theorem's matcher.  A case is in the window when
    v <= vmax and k <= kmax (no k bound without kmax; a family without a
    fixed v has no v bound).
    """
    name: str
    params: Tuple[Optional[int], ...]
    match: str = "certificate"
    required: bool = True
    extra: Dict[str, object] = field(default_factory=dict)

    def in_window(self, vmax: int, kmax: Optional[int]) -> bool:
        v, k = self.params[:2]
        return (v is None or v <= vmax) and (kmax is None or k <= kmax)


_Match = Tuple[Optional[str], Optional[str]]


@dataclass(frozen=True)
class _Theorem:
    """One classification statement: window, cells, scope and cases.

    cells(vmax, kmax) yields (v, k, prune, target) in enumeration order;
    in_scope(record, target) returns the parameters of a graph the theorem
    covers, else None; match(record) names the case and the problem of a
    graph that matched no certificate case.
    """
    vmax: int
    kmax: Optional[int]
    scope: str
    key: str
    cells: Callable[[int, Optional[int]], Iterator[_Cell]]
    in_scope: Callable[[CensusRecord, object], Optional[tuple]]
    match: Callable[[CensusRecord], _Match]
    missing: str
    cases: Tuple[_Case, ...]


def _a0_cells(vmax: int, kmax: int) -> Iterator[_Cell]:
    # the count of b-partners, k(k-1)/(k-2) when a=0, must be an integer;
    # k-2 divides k(k-1) only if it divides 2, so only k = 3, 4 have graphs
    return ((v, k, "maxpair=k-2;sat=0,k-2", (v, k, k - 2, 0))
            for k in (3, 4) if k <= kmax
            for v in range(k + 2, vmax + 1) if v * k % 2 == 0)


def _gap_cells(vmax: int, kmax: Optional[int]) -> Iterator[_Cell]:
    for gap in (3, 4):
        for v in range(5, vmax + 1):
            top = v - 2 if kmax is None else min(kmax, v - 2)
            for k in range(gap + 1, top + 1):
                a = k - gap
                # the sieve's R1 and R2: handshake parity, and a b-partner
                # count that is a positive integer at most v-1
                beta = beta_formula(v, k, k - 2, a)
                if (v * k % 2 == 0 and beta.denominator == 1
                        and 0 < beta <= v - 1):
                    yield (v, k, f"maxpair=k-2;sat=k-{gap},k-2",
                           (v, k, k - 2, a))


def _ddg_cells(vmax: int, kmax: int) -> Iterator[_Cell]:
    # K_vmax is the last cell: no k-regular graph has k >= v
    return ((v, k, "maxpair=k-2;satdistinct=2;anchor=k-2", k - 2)
            for k in range(3, min(kmax, vmax - 1) + 1)
            for v in range(k + 1, vmax + 1) if v * k % 2 == 0)


def _deza_scope(rec: CensusRecord, target):
    if rec.diameter is not None and rec.deza == target:
        return rec.deza
    return None


def _ddg_scope(rec: CensusRecord, larger: int):
    if rec.ddg is None or max(rec.ddg[:2]) != larger:
        return None
    return (rec.v, rec.k) + rec.ddg


_A0_OTHERS = {
    (8, 4): "an (8,4,2,0) graph other than the 4x2 rook's graph",
    (14, 4): "a (14,4,2,0) graph other than the plane non-incidence graph",
    (16, 4): "a (16,4,2,0) graph other than the 4-cube",
}


def _match_a0(rec: CensusRecord) -> _Match:
    v, k = rec.deza[:2]
    if (v, k) in _A0_OTHERS:
        return None, _A0_OTHERS[v, k]
    if k != 3:
        return None, f"parameters {rec.deza} outside every listed case"
    if rec.diameter == 2:
        return None, "a diameter-2 (v,3,1,0) graph other than the " \
                     "Petersen graph"
    if v == 14:
        return ("cubic-diameter-exceeds-2",
                "a (14,3,1,0) graph that is not the point-line "
                "incidence graph, contradicting the uniqueness claim")
    return "cubic-diameter-exceeds-2", None


def _match_gap(rec: CensusRecord) -> _Match:
    v, k, _, a = rec.deza
    if k - a == 3:
        if rec.strictly_deza and (v, k) in ((8, 4), (9, 4)):
            return f"strict-deza-({v},4,2,1)", None
        if rec.srg in ((9, 4, 1, 2), (10, 6, 3, 4)):
            return "srg-({},{},{},{})".format(*rec.srg), None
    return None, f"parameters {rec.deza} outside every a=k-{k - a} case"


def _match_unlisted_ddg(rec: CensusRecord) -> _Match:
    return None, ("a proper divisible design graph with larger constant "
                  "k-2 not on the list")


_MISSING_CERT = "no enumerated graph matched this certificate"

_THEOREMS = {
    # b=k-2, a=0 makes a (0,k-2)-graph: at k=4 Mulder's bound ("(0,lambda)-
    # graphs and n-cubes", Discrete Math. 28, 1979) gives v <= 2^4 = 16, with
    # equality only for the 4-cube, so the long window v <= 16 closes k=4
    1: _Theorem(
        vmax=14, kmax=4, key="deza",
        scope="connected Deza graphs with b=k-2 and a=0",
        cells=_a0_cells, in_scope=_deza_scope, match=_match_a0,
        missing=_MISSING_CERT, cases=(
            _Case("grid-4x2", (8, 4, 2, 0)),
            _Case("fano-non-incidence", (14, 4, 2, 0)),
            _Case("hypercube-4", (16, 4, 2, 0)),
            _Case("petersen", (10, 3, 1, 0), extra={"diameter": 2}),
            _Case("cubic-diameter-exceeds-2", (None, 3, 1, 0), "family",
                  required=False, extra={"note": "any number of members"}),
            _Case("heawood", (14, 3, 1, 0),
                  extra={"note": "claimed to be the only graph with "
                                 "these parameters"}),
        )),
    2: _Theorem(
        vmax=10, kmax=None, key="deza",
        scope="connected Deza graphs with b=k-2 and a in {k-3, k-4}, a>0",
        cells=_gap_cells, in_scope=_deza_scope, match=_match_gap,
        missing="no enumerated graph realized this case", cases=(
            _Case("strict-deza-(8,4,2,1)", (8, 4, 2, 1), "family",
                  extra={"verdict": "strictly-deza"}),
            _Case("strict-deza-(9,4,2,1)", (9, 4, 2, 1), "family",
                  extra={"verdict": "strictly-deza"}),
            _Case("srg-(9,4,1,2)", (9, 4, 2, 1), "family",
                  extra={"verdict": "srg"}),
            _Case("srg-(10,6,3,4)", (10, 6, 4, 3), "family",
                  extra={"verdict": "srg"}),
            _Case("complement-2-cubes", (16, 12, 10, 8)),
            _Case("complement-3-cubes", (24, 20, 18, 16)),
        )),
    3: _Theorem(
        vmax=14, kmax=4, key="ddg",
        scope="proper divisible design graphs whose larger pair constant "
              "equals k-2",
        cells=_ddg_cells, in_scope=_ddg_scope, match=_match_unlisted_ddg,
        missing=_MISSING_CERT, cases=(
            _Case("fano-non-incidence", (14, 4, 2, 0, 2, 7)),
            _Case("heawood", (14, 3, 1, 0, 2, 7)),
            _Case("grid-4x2", (8, 4, 2, 0, 2, 4)),
        )),
}


def audit_theorem(theorem: int, vmax: Optional[int] = None,
                  kmax: Optional[int] = None, jobs: int = 1,
                  long: bool = False) -> AuditReport:
    """Exhaustively check one of the three classification statements.

    Theorem 1 covers connected Deza graphs with b=k-2 and a=0; theorem 2
    the a=k-3 and a=k-4 (a>0) cases; theorem 3 proper divisible design
    graphs whose larger pair constant equals k-2.  Named expected graphs
    are matched by certificate, families by parameters.  vmax and kmax
    default to the theorem's window when None; an expected case is
    in the window when its v <= vmax and its k <= kmax.  Every cell is
    checked against the desk limits before any is enumerated.
    """
    t = _THEOREMS.get(theorem)
    if t is None:
        raise GraphError(f"no theorem {theorem}; pick 1, 2, or 3")
    vmax = t.vmax if vmax is None else vmax
    kmax = t.kmax if kmax is None else kmax
    cases = [c for c in t.cases if c.in_window(vmax, kmax)]
    records = _records(t.cells(vmax, kmax), jobs, long)
    by_cert = {_cert_hash(construct(c.name)): c
               for c in cases if c.match == "certificate"}
    found: List[Dict[str, object]] = []
    matches: List[Dict[str, object]] = []
    discrepancies: List[Dict[str, object]] = []
    for target, rec in records:
        params = t.in_scope(rec, target)
        if params is None:
            continue
        listed = by_cert.get(rec.certificate_hash)
        case, problem = (listed.name, None) if listed else t.match(rec)
        entry: Dict[str, object] = {
            "graph6": rec.graph6, "v": rec.v, "k": rec.k,
            "deza": list(rec.deza) if rec.deza else None,
            "diameter": rec.diameter, "connected": rec.diameter is not None,
            "certificate_hash": rec.certificate_hash, "case": case}
        if t.key == "ddg":
            entry["ddg"] = list(params[2:])
        found.append(entry)
        if case is not None:
            matches.append({"case": case, "graph6": rec.graph6})
        if problem is not None:
            discrepancies.append({"kind": "found-but-unexpected",
                                  "graph6": rec.graph6, t.key: list(params),
                                  "details": problem})
        elif listed and listed.params != params:
            discrepancies.append({
                "kind": "parameter-mismatch", "case": case,
                "graph6": rec.graph6, "listed": list(listed.params),
                "computed": list(params),
                "details": "the listed parameter tuple does not "
                           "match the computed one"})
    matched = {m["case"] for m in matches}
    discrepancies.extend({"kind": "expected-but-missing", "case": c.name,
                          "details": t.missing}
                         for c in cases
                         if c.required and c.name not in matched)
    expected = tuple({"case": c.name, "match": c.match,
                      t.key: list(c.params), **c.extra} for c in cases)
    bounds = {"vmax": vmax, "kmax": kmax, "scope": t.scope}
    return AuditReport(theorem, bounds, expected, tuple(found),
                       tuple(matches), tuple(discrepancies))
