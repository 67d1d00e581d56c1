"""Isomorph-free enumeration of regular graphs and theorem audits.

Generation is vertex-by-vertex canonical augmentation: a child (the parent
plus one new last vertex) is kept only when its added vertex lies in the
canonical last orbit of the child, and only once per parent up to
certificate equality.  Together these guarantee exactly one representative
per isomorphism class without a global seen-set, so memory stays
proportional to the search depth.

Prunes must be monotone: a violating partial graph can only have violating
completions.  A prune is a PruneSpec.  Its checks read a pair count off
the packed adjacency rows, as the popcount of the AND of two rows, only
where a step can change it; the value of a pair whose two endpoints are
both saturated can never change again, which is what makes frozen-value
constraints monotone.
"""

import hashlib
import json
import multiprocessing
import os
import re
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union)

from . import __version__
from .canon import canon_data, canonical_certificate, refine
from .catalog import construct
from .classify import classify
from .ddg import ddg_detect
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
        return lambda k: max(k - offset, 0)
    if re.fullmatch(r"-?\d+", term):
        value = int(term)
        return lambda k: value
    raise GraphError(f"bad {kind} term {term!r}; use an integer or k-<int>")


@dataclass(frozen=True)
class PruneSpec:
    """Declarative monotone prune on partial graphs.

    max_pair_count bounds every common-neighbour count.  For pairs whose
    endpoints are both saturated (degree k, value frozen): the value must
    lie in saturated_values when given; the number of distinct frozen
    values must not exceed saturated_distinct_max; and once that many are
    present, saturated_anchor must be among them.
    """
    max_pair_count: Optional[int] = None
    saturated_values: Optional[Tuple[int, ...]] = None
    saturated_distinct_max: Optional[int] = None
    saturated_anchor: Optional[int] = None

    @staticmethod
    def from_string(spec: str, k: int) -> "PruneSpec":
        """Parse 'maxpair=k-2;sat=0,k-2;satdistinct=2;anchor=k-2'."""
        maxpair = None
        sat = None
        distinct = None
        anchor = None
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            key, _, value = clause.partition("=")
            key = key.strip()
            if key == "maxpair":
                maxpair = _compile_term(value)(k)
            elif key == "sat":
                sat = tuple(sorted({_compile_term(t)(k)
                                    for t in value.split(",")}))
            elif key == "satdistinct":
                distinct = int(value)
            elif key == "anchor":
                anchor = _compile_term(value)(k)
            else:
                raise GraphError(f"unknown prune clause {key!r}")
        return PruneSpec(maxpair, sat, distinct, anchor)

    def __str__(self) -> str:
        """The spec string with every k-term resolved."""
        parts = []
        if self.max_pair_count is not None:
            parts.append(f"maxpair={self.max_pair_count}")
        if self.saturated_values is not None:
            parts.append("sat=" + ",".join(map(str, self.saturated_values)))
        if self.saturated_distinct_max is not None:
            parts.append(f"satdistinct={self.saturated_distinct_max}")
        if self.saturated_anchor is not None:
            parts.append(f"anchor={self.saturated_anchor}")
        return ";".join(parts)


Prune = Union[None, str, PruneSpec]


class _Partial:
    """Mutable search state with journaled undo.

    Tracks adjacency rows, degrees and the multiset of frozen pair values
    (pairs whose endpoints are both saturated).  A pair count is read off
    the bit rows as (rows[x] & rows[y]).bit_count(); no count matrix is
    kept, so the journal holds only each step's frozen values.
    """

    __slots__ = ("v", "k", "rows", "deg", "frozen", "journal")

    def __init__(self, v: int, k: int):
        self.v = v
        self.k = k
        self.rows: List[int] = []
        self.deg: List[int] = []
        self.frozen: Dict[int, int] = {}
        self.journal: List[List[int]] = []

    def graph(self) -> Graph:
        return Graph(len(self.rows), tuple(self.rows))

    def rebuild(self, rows: Sequence[int]) -> None:
        """Replay rows vertex by vertex; with no spec every step is taken."""
        for r, mask in enumerate(rows):
            self.add_vertex([j for j in range(r) if mask >> j & 1], None)

    def add_vertex(self, s: Sequence[int],
                   spec: Optional[PruneSpec]) -> bool:
        """Append a vertex adjacent to s; False when the step breaks the
        frozen-value rules of spec.

        Callers pass sets that already satisfy maxpair (_candidate_sets
        drops every other one), so only the pairs that become frozen now,
        which pair a newly saturated vertex with a saturated one, are
        checked.  Every check runs before the state changes, so a rejected
        step leaves it as it was.
        """
        rows = self.rows
        deg = self.deg
        k = self.k
        r = len(rows)
        smask = 0
        for x in s:
            smask |= 1 << x
        newly = [x for x in s if deg[x] + 1 == k]
        adds: List[int] = []
        if newly or len(s) == k:
            saturated = [x for x in range(r)
                         if deg[x] == k and not smask >> x & 1]
            for i, x in enumerate(newly):
                row = rows[x]
                for y in newly[i + 1:]:
                    adds.append((row & rows[y]).bit_count() + 1)
                for y in saturated:
                    adds.append((row & rows[y]).bit_count())
            if len(s) == k:
                for x in saturated + newly:
                    adds.append((rows[x] & smask).bit_count())
            if spec is not None and not self._frozen_ok(adds, spec):
                return False
        frozen = self.frozen
        for value in adds:
            frozen[value] = frozen.get(value, 0) + 1
        bit = 1 << r
        for x in s:
            rows[x] |= bit
            deg[x] += 1
        rows.append(smask)
        deg.append(len(s))
        self.journal.append(adds)
        return True

    def _frozen_ok(self, adds: List[int], spec: PruneSpec) -> bool:
        if spec.saturated_values is not None:
            if any(value not in spec.saturated_values for value in adds):
                return False
        if spec.saturated_distinct_max is not None:
            distinct = set(self.frozen)
            distinct.update(adds)
            if len(distinct) > spec.saturated_distinct_max:
                return False
            if (spec.saturated_anchor is not None
                    and len(distinct) == spec.saturated_distinct_max
                    and spec.saturated_anchor not in distinct):
                return False
        return True

    def doomed_vertices(self, spec: Optional[PruneSpec]) -> Set[int]:
        """Degree k-1 vertices that no accepted neighbour set can contain.

        Once such a vertex is picked, its values with the saturated
        vertices are frozen by add_vertex unchanged, and the set of
        distinct frozen values only grows, so failing _frozen_ok on these
        values alone is final.
        """
        if spec is None or (spec.saturated_values is None
                            and spec.saturated_distinct_max is None):
            return set()
        k = self.k
        rows = self.rows
        saturated = [rows[y] for y, d in enumerate(self.deg) if d == k]
        doomed: Set[int] = set()
        for j, d in enumerate(self.deg):
            if d != k - 1:
                continue
            row = rows[j]
            values = [(row & other).bit_count() for other in saturated]
            if not self._frozen_ok(values, spec):
                doomed.add(j)
        return doomed

    def pop_vertex(self) -> None:
        frozen = self.frozen
        for value in self.journal.pop():
            left = frozen[value] - 1
            if left:
                frozen[value] = left
            else:
                del frozen[value]
        rows = self.rows
        deg = self.deg
        smask = rows.pop()
        deg.pop()
        keep = ~(1 << len(rows))
        for x in range(len(rows)):
            if smask >> x & 1:
                rows[x] &= keep
                deg[x] -= 1


def _parse_prune(prune: Prune, k: int) -> Optional[PruneSpec]:
    if prune is None or isinstance(prune, PruneSpec):
        return prune
    if isinstance(prune, str):
        return PruneSpec.from_string(prune, k)
    raise GraphError(f"unsupported prune argument {prune!r}")


def _candidate_sets(state: _Partial, spec: Optional[PruneSpec]
                    ) -> Iterator[Tuple[int, ...]]:
    """Neighbour sets for the next vertex, in a fixed deterministic order.

    Sets come by size, then in lexicographic order of their optional
    members.  The forced-vertex rule (a vertex whose deficiency equals
    the number of vertices still to come after this one must be picked
    now) and two counting bounds on the total remaining deficiency shape
    them, and three filters drop sets that could only be rejected later:

    - degree: the new vertex r must get the child's maximum degree, since
      refine splits by degree first and orders the fragments ascending,
      so only then can r lie in the last root cell; smaller sizes are
      skipped, and at the parent's maximum degree a vertex already there
      is left out;
    - doomed: under a frozen-value spec a vertex of degree k-1 is left
      out when saturating it would already violate the spec, since its
      pair counts with the saturated vertices are final once it is
      picked;
    - maxpair: a set is dropped as soon as a pair inside it already has
      maxpair common neighbours, or an existing vertex has more than
      maxpair neighbours in it.  Both counts only grow with the set, so
      dropping at the first such prefix is exact.

    The surviving sets keep their relative order.
    """
    v, k = state.v, state.k
    rows = state.rows
    deg = state.deg
    r = len(rows)
    rem_after = v - r - 1
    doomed = state.doomed_vertices(spec)
    forced: List[int] = []
    optional: List[int] = []
    total_def = 0
    for j in range(r):
        d = k - deg[j]
        total_def += d
        if d == 0:
            continue
        if d > rem_after + 1:
            return
        if d == rem_after + 1:
            if j in doomed:
                return
            forced.append(j)
        elif j not in doomed:
            optional.append(j)
    top = max(deg)
    lo = max(len(forced), k - rem_after, top)
    hi = min(k, len(forced) + len(optional))
    # after the step the remaining deficiency must fit in the leftover
    # vertices: sum <= rem_after*k and the excess of rem_after*k over the
    # sum must be coverable by edges among the leftovers
    num = total_def + k - rem_after * k
    lo = max(lo, (num + 1) // 2)
    num = rem_after * (rem_after - 1) - rem_after * k + total_def + k
    hi = min(hi, num // 2)
    if lo > hi:
        return
    maxp = spec.max_pair_count if spec else None
    # conflict[x]: the candidates y that cannot join x, because x and y
    # already have maxpair common neighbours; a vertex z with maxpair
    # neighbours in the set blocks every further neighbour of z
    conflict = dict.fromkeys(forced + optional, 0)
    nbrs = {}
    if maxp is not None:
        for x in conflict:
            row = rows[x]
            nbrs[x] = [z for z in range(r) if row >> z & 1]
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
            if any(deg[x] == top for x in forced):
                continue
            pool = [x for x in optional if deg[x] != top]
        n = len(pool)
        if need == 0:
            yield tuple(forced)
            continue
        # lexicographic combinations of need members of pool, built one
        # member at a time; masks[d] and blocks[d] hold the set and its
        # blocked vertices after d picks
        picks = [0] * need
        masks = [base] * need
        blocks = [blocked] * need
        d = 0
        i = 0
        while True:
            block = blocks[d]
            last = n - need + d
            while i <= last and block >> pool[i] & 1:
                i += 1
            if i > last:
                if d == 0:
                    break
                d -= 1
                i = picks[d] + 1
                continue
            picks[d] = i
            if d + 1 == need:
                yield tuple(sorted(forced + [pool[p] for p in picks]))
                i += 1
                continue
            x = pool[i]
            mask = masks[d] | 1 << x
            block |= conflict[x]
            if maxp is not None:
                for z in nbrs[x]:
                    if (rows[z] & mask).bit_count() == maxp:
                        block |= rows[z]
            d += 1
            masks[d] = mask
            blocks[d] = block
            i += 1


def _last_cell_possible(rows: Sequence[int], deg: Sequence[int]) -> bool:
    """Whether the last vertex r can lie in the last root cell.

    refine splits the unit partition by degree and then, popping the
    last-pushed splitter first, by neighbours in the maximum-degree cell
    D, ordering fragments ascending each time.  So its last cell holds
    only members of D with the most neighbours in D, and r must be one.
    """
    r = len(rows) - 1
    top = max(deg)
    if deg[r] != top:
        return False
    members = [x for x in range(r + 1) if deg[x] == top]
    dmask = 0
    for x in members:
        dmask |= 1 << x
    mine = (rows[r] & dmask).bit_count()
    return all((rows[x] & dmask).bit_count() <= mine for x in members)


def _orbit_seen(s: Tuple[int, ...], seen: Set[Tuple[int, ...]],
                gens: Sequence[Tuple[int, ...]]) -> bool:
    """True if some automorphism image of s was already processed.

    On a miss the whole orbit of s is added to seen (capped; the cap only
    costs duplicate work later, which certificate dedup absorbs).
    """
    if s in seen:
        return True
    orbit = {s}
    queue = [s]
    while queue:
        cur = queue.pop()
        for g in gens:
            img = tuple(sorted(g[x] for x in cur))
            if img not in orbit:
                orbit.add(img)
                queue.append(img)
        if len(orbit) > 4096:
            break
    seen.update(orbit)
    return False


def generate_regular(v: int, k: int, prune: Prune = None,
                     jobs: int = 1) -> Iterator[Graph]:
    """Yield one representative per isomorphism class of k-regular graphs.

    The output order is deterministic and independent of jobs.  A prune
    is a PruneSpec or its string form.
    """
    if v < 1:
        raise GraphError("need at least one vertex")
    if not 0 <= k < v:
        raise GraphError(f"degree {k} out of range for {v} vertices")
    if v * k % 2:
        raise GraphError(f"no {k}-regular graph on {v} vertices: v*k is odd")
    if jobs < 1:
        raise GraphError(f"jobs must be at least 1, got {jobs}")
    spec = _parse_prune(prune, k)
    if v == 1:
        yield Graph(1, (0,))
        return
    if jobs > 1:
        yield from _generate_parallel(v, k, spec, jobs)
        return
    state = _Partial(v, k)
    state.add_vertex([], spec)
    yield from _extend(state, spec, ())


def _accepted_children(state: _Partial, spec: Optional[PruneSpec],
                       parent_gens: Sequence[Tuple[int, ...]]
                       ) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Push each accepted child onto state and yield its automorphisms.

    A child is accepted when it passes the prunes, its new vertex r lies
    in the canonical last orbit, and its certificate is new among its
    siblings.  The child is popped when the consumer resumes.  Cheap
    necessary conditions run first: _candidate_sets yields only sets that
    give r the maximum degree and pass maxpair, add_vertex checks the
    frozen values, and _last_cell_possible runs before the root refine.
    Every test is invariant under the parent's automorphisms, so skipping
    orbits with _orbit_seen after the first ones keeps the same
    representatives.
    """
    r = len(state.rows)
    seen_sets: Set[Tuple[int, ...]] = set()
    seen_certs: Set[bytes] = set()
    for s in _candidate_sets(state, spec):
        if parent_gens and _orbit_seen(s, seen_sets, parent_gens):
            continue
        if not state.add_vertex(s, spec):
            continue
        if _last_cell_possible(state.rows, state.deg):
            child = state.graph()
            cells = refine(child.rows, [list(range(r + 1))])
            if r in cells[-1]:
                data = canon_data(child, cells)
                if r in data.last_orbit and data.cert not in seen_certs:
                    seen_certs.add(data.cert)
                    yield data.aut_gens
        state.pop_vertex()


def _extend(state: _Partial, spec: Optional[PruneSpec],
            parent_gens: Sequence[Tuple[int, ...]]) -> Iterator[Graph]:
    leaf = len(state.rows) + 1 == state.v
    for gens in _accepted_children(state, spec, parent_gens):
        if leaf:
            yield state.graph()
        else:
            yield from _extend(state, spec, gens)


_Node = Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]


def _frontier(v: int, k: int, spec: Optional[PruneSpec],
              min_nodes: int) -> List[_Node]:
    """Accepted partial graphs (rows, automorphisms) at one depth below
    v, in DFS order."""
    depth = 1
    level: List[_Node] = [((0,), ())]
    while depth < v - 1 and 0 < len(level) < min_nodes:
        nxt: List[_Node] = []
        for rows, gens in level:
            state = _Partial(v, k)
            state.rebuild(rows)
            nxt.extend((tuple(state.rows), child_gens) for child_gens
                       in _accepted_children(state, spec, gens))
        depth += 1
        level = nxt
    return level


def _subtree_task(args) -> List[Tuple[int, ...]]:
    v, k, spec, (rows, gens) = args
    state = _Partial(v, k)
    state.rebuild(rows)
    return [g.rows for g in _extend(state, spec, gens)]


def _generate_parallel(v: int, k: int, spec: Optional[PruneSpec],
                       jobs: int) -> Iterator[Graph]:
    level = _frontier(v, k, spec, min_nodes=4 * jobs)
    if not level:
        return
    tasks = [(v, k, spec, node) for node in level]
    with multiprocessing.Pool(jobs) as pool:
        for chunk in pool.imap(_subtree_task, tasks):
            for rows in chunk:
                yield Graph(v, rows)


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
        return {
            "graph6": self.graph6,
            "v": self.v,
            "k": self.k,
            "deza": list(self.deza) if self.deza else None,
            "strictly_deza": self.strictly_deza,
            "srg": list(self.srg) if self.srg else None,
            "ddg": (None if self.ddg is None else
                    {"lambda1": self.ddg[0], "lambda2": self.ddg[1],
                     "m": self.ddg[2], "n": self.ddg[3]}),
            "diameter": self.diameter,
            "certificate_hash": self.certificate_hash,
            "generator": dict(self.generator),
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))


def _cert_hash(g: Graph) -> str:
    cert = canonical_certificate(g).certificate_bytes
    return hashlib.sha256(cert).hexdigest()


def build_record(g: Graph, generator: Tuple[Tuple[str, object], ...]
                 ) -> CensusRecord:
    rep = classify(g)
    det = ddg_detect(g)
    ddg = None
    if det.proper is not None:
        ddg = (det.proper.lam1, det.proper.lam2, det.proper.m, det.proper.n)
    k = g.regular_degree()
    if k is None:
        raise GraphError("census records cover regular graphs only")
    return CensusRecord(
        graph6=encode_graph6(g),
        v=g.v,
        k=k,
        deza=rep.deza,
        strictly_deza=rep.strictly_deza,
        srg=rep.srg,
        ddg=ddg,
        diameter=rep.diameter,
        certificate_hash=_cert_hash(g),
        generator=generator,
    )


_FILTER_ALIASES = {
    "all": "all",
    "deza": "deza",
    "strictly deza": "strictly-deza",
    "strictly-deza": "strictly-deza",
    "srg": "srg",
    "ddg proper": "ddg-proper",
    "ddg-proper": "ddg-proper",
    "connected": "connected",
    "deza with b=k-2": "deza(*,*,k-2,*)",
}


def parse_filter(spec: str) -> Callable[[CensusRecord], bool]:
    """Compile a record filter such as 'deza(*,4,k-2,1)&connected'.

    Atoms: all, connected, deza, strictly-deza, srg, ddg-proper, and
    parameter forms deza(v,k,b,a) / ddg(l1,l2,m,n) whose terms are
    integers, '*', 'v' (first term only), or k-<int> resolved against the
    record's degree.  A bad term raises here, before any record is seen.
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
            # '*' matches anything, 'v' only as the vertex count; every
            # other term is compiled now, before any record exists
            bounds = [None if t == "*" or (t == "v" and i == 0)
                      else _compile_term(t, "filter")
                      for i, t in enumerate(terms)]

            def check(rec: CensusRecord, kind=kind, bounds=bounds) -> bool:
                params = rec.deza if kind == "deza" else rec.ddg
                if params is None:
                    return False
                return all(b is None or b(rec.k) == p
                           for b, p in zip(bounds, params))

            checks.append(check)
        elif atom == "all":
            checks.append(lambda rec: True)
        elif atom == "connected":
            checks.append(lambda rec: rec.diameter is not None)
        elif atom == "deza":
            checks.append(lambda rec: rec.deza is not None)
        elif atom == "strictly-deza":
            checks.append(lambda rec: rec.strictly_deza)
        elif atom == "srg":
            checks.append(lambda rec: rec.srg is not None)
        elif atom == "ddg-proper":
            checks.append(lambda rec: rec.ddg is not None)
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


def census(v_values: Union[int, Iterable[int]],
           k_values: Union[int, Iterable[int]],
           filter_spec: str = "all",
           out: Optional[str] = None,
           prune: Prune = None,
           jobs: int = 1,
           long: bool = False) -> List[CensusRecord]:
    """Enumerate the given (v, k) cells into sorted census records.

    Records are ordered by (v, k, certificate hash).  With `out`, writes
    out.g6 (one graph6 line per record) and out.meta.jsonl, fsynced on
    completion.  Cells with odd v*k or k >= v are skipped; cells past the
    desk limits raise an error naming the limit.
    """
    accept = parse_filter(filter_spec)
    vs = _as_values(v_values)
    ks = _as_values(k_values)
    for v in vs:
        for k in ks:
            if 0 <= k < v and v * k % 2 == 0:
                _check_limits(v, k, long)
    prune_note = str(prune) if isinstance(prune, PruneSpec) else prune
    records: List[CensusRecord] = []
    for v in vs:
        for k in ks:
            if not 0 <= k < v or v * k % 2:
                continue
            generator = (("version", __version__),
                         ("bounds", {"v": vs, "k": ks}),
                         ("prune", prune_note))
            cell = []
            for g in generate_regular(v, k, prune=prune, jobs=jobs):
                rec = build_record(g, generator)
                if accept(rec):
                    cell.append(rec)
            cell.sort(key=lambda r: r.certificate_hash)
            records.extend(cell)
    if out is not None:
        _write_census_files(out, records)
    return records


def _write_census_files(prefix: str, records: Sequence[CensusRecord]) -> None:
    for suffix, render in ((".g6", lambda r: r.graph6),
                           (".meta.jsonl", lambda r: r.as_json())):
        with open(prefix + suffix, "w", encoding="ascii") as fh:
            for rec in records:
                fh.write(render(rec) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


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
        return {
            "theorem": self.theorem,
            "bounds": self.bounds,
            "expected": list(self.expected),
            "found": list(self.found),
            "matches": list(self.matches),
            "discrepancies": list(self.discrepancies),
            "ok": self.ok,
        }


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


_Cell = Tuple[int, int, str, object]
_Match = Tuple[Optional[str], Optional[str]]


@dataclass(frozen=True)
class _Theorem:
    """One classification statement: window, cells, scope and cases.

    cells(vmax, kmax) lists (v, k, prune, target) in enumeration order;
    in_scope(g, target) returns (classification, parameters) for a graph
    the theorem covers, else None; match(classification) names the case
    and the problem of a graph that matched no certificate case.
    """
    vmax: int
    kmax: Optional[int]
    scope: str
    key: str
    cells: Callable[[int, Optional[int]], List[_Cell]]
    in_scope: Callable[[Graph, object], Optional[tuple]]
    match: Callable[[object], _Match]
    missing: str
    cases: Tuple[_Case, ...]


def _a0_cells(vmax: int, kmax: int) -> List[_Cell]:
    # the count of b-partners, k(k-1)/(k-2) when a=0, must be an integer,
    # so the other degrees admit no graph at all
    return [(v, k, "maxpair=k-2;sat=0,k-2", (v, k, k - 2, 0))
            for k in range(3, kmax + 1) if k * (k - 1) % (k - 2) == 0
            for v in range(k + 2, vmax + 1) if v * k % 2 == 0]


def _gap_cells(vmax: int, kmax: Optional[int]) -> List[_Cell]:
    cells = []
    for gap in (3, 4):
        for v in range(5, vmax + 1):
            for k in range(gap + 1, min(kmax or v - 2, v - 2) + 1):
                a = k - gap
                # b-partner count: elementary double counting, must be a
                # positive integer at most v-1 for any realization
                num = k * (k - 1) - a * (v - 1)
                if (v * k % 2 == 0 and num > 0 and num % (gap - 2) == 0
                        and num // (gap - 2) <= v - 1):
                    cells.append((v, k, f"maxpair=k-2;sat=k-{gap},k-2",
                                  (v, k, k - 2, a)))
    return cells


def _ddg_cells(vmax: int, kmax: int) -> List[_Cell]:
    return [(v, k, "maxpair=k-2;satdistinct=2;anchor=k-2", k - 2)
            for k in range(3, kmax + 1)
            for v in range(k + 1, vmax + 1) if v * k % 2 == 0]


def _deza_scope(g: Graph, target):
    rep = classify(g)
    if rep.connected and rep.deza == target:
        return rep, rep.deza
    return None


def _ddg_scope(g: Graph, larger: int):
    res = ddg_detect(g).proper
    if res is None or max(res.lam1, res.lam2) != larger:
        return None
    return classify(g), res.params


_A0_OTHERS = {
    (8, 4): "an (8,4,2,0) graph other than the 4x2 rook's graph",
    (14, 4): "a (14,4,2,0) graph other than the plane non-incidence graph",
    (16, 4): "a (16,4,2,0) graph other than the 4-cube",
}


def _match_a0(rep) -> _Match:
    v, k = rep.deza[:2]
    if (v, k) in _A0_OTHERS:
        return None, _A0_OTHERS[v, k]
    if k != 3:
        return None, f"parameters {rep.deza} outside every listed case"
    if rep.diameter == 2:
        return None, "a diameter-2 (v,3,1,0) graph other than the " \
                     "Petersen graph"
    if v == 14:
        return ("cubic-diameter-exceeds-2",
                "a (14,3,1,0) graph that is not the point-line "
                "incidence graph, contradicting the uniqueness claim")
    return "cubic-diameter-exceeds-2", None


def _match_gap(rep) -> _Match:
    v, k, _, a = rep.deza
    if k - a == 3:
        if rep.strictly_deza and (v, k) in ((8, 4), (9, 4)):
            return f"strict-deza-({v},4,2,1)", None
        if rep.srg in ((9, 4, 1, 2), (10, 6, 3, 4)):
            return "srg-({},{},{},{})".format(*rep.srg), None
    return None, f"parameters {rep.deza} outside every a=k-{k - a} case"


def _match_unlisted_ddg(rep) -> _Match:
    return None, ("a proper divisible design graph with larger constant "
                  "k-2 not on the list")


_MISSING_CERT = "no enumerated graph matched this certificate"

_THEOREMS = {
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
    default to the theorem's window when absent or 0; an expected case is
    in the window when its v <= vmax and its k <= kmax.  Every cell is
    checked against the desk limits before any is enumerated.
    """
    t = _THEOREMS.get(theorem)
    if t is None:
        raise GraphError(f"no theorem {theorem}; pick 1, 2, or 3")
    vmax = vmax or t.vmax
    kmax = kmax or t.kmax
    cases = [c for c in t.cases if c.in_window(vmax, kmax)]
    cells = t.cells(vmax, kmax)
    for v, k, _, _ in cells:
        _check_limits(v, k, long)
    by_cert = {_cert_hash(construct(c.name)): c
               for c in cases if c.match == "certificate"}
    found: List[Dict[str, object]] = []
    matches: List[Dict[str, object]] = []
    discrepancies: List[Dict[str, object]] = []
    for v, k, prune, target in cells:
        for g in generate_regular(v, k, prune=prune, jobs=jobs):
            hit = t.in_scope(g, target)
            if hit is None:
                continue
            rep, params = hit
            cert = _cert_hash(g)
            g6 = encode_graph6(g)
            listed = by_cert.get(cert)
            case, problem = (listed.name, None) if listed else t.match(rep)
            entry: Dict[str, object] = {
                "graph6": g6, "v": v, "k": k,
                "deza": list(rep.deza) if rep.deza else None,
                "diameter": rep.diameter, "connected": rep.connected,
                "certificate_hash": cert, "case": case}
            if t.key == "ddg":
                entry["ddg"] = list(params[2:])
            found.append(entry)
            if case is not None:
                matches.append({"case": case, "graph6": g6})
            if problem is not None:
                discrepancies.append({"kind": "found-but-unexpected",
                                      "graph6": g6, t.key: list(params),
                                      "details": problem})
            elif listed and listed.params != params:
                discrepancies.append({
                    "kind": "parameter-mismatch", "case": case,
                    "graph6": g6, "listed": list(listed.params),
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
