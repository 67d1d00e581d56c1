"""Divisible design graph detection and partition audits.

A divisible design graph on parameters (v, k, lam1, lam2, m, n) is a
k-regular graph with a partition into m classes of size n such that
vertices share lam1 common neighbours inside a class and lam2 across.
The design is proper when m > 1, n > 1 and lam1 != lam2; otherwise the
certification is improper and carries no structure beyond the counts.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .graphs import Graph, GraphError, InternalInvariantError

Params = Tuple[int, int, int, int, int, int]


@dataclass(frozen=True)
class DdgResult:
    """A verified proper divisible design structure on a graph."""
    v: int
    k: int
    lam1: int
    lam2: int
    m: int
    n: int
    classes: Tuple[Tuple[int, ...], ...]
    quotient: Optional[Tuple[Tuple[int, ...], ...]]

    @property
    def params(self) -> Params:
        return (self.v, self.k, self.lam1, self.lam2, self.m, self.n)


@dataclass(frozen=True)
class DdgDetection:
    """Outcome of scanning a graph for divisible design structure.

    proper holds the unique proper certification when one exists.  When
    every vertex pair shares the same number of common neighbours, any
    split into equal classes certifies an improper design; improper then
    lists those parameter tuples, one per divisor split of v.
    """
    regular: bool
    values: Tuple[int, ...]
    proper: Optional[DdgResult]
    improper: Tuple[Params, ...]


def _classes_for_value(g: Graph, lam1: int) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Group vertices by the relation 'shares lam1 common neighbours'.

    The candidate class of u is forced: mask(u) is u itself plus every w
    whose pair count with u equals lam1.  As u lies in mask(u), the
    distinct masks cover V, and they partition it exactly when their
    sizes sum to v; every member of a class then has that class's mask.
    Returns the classes, in least-member order (the order masks are
    first seen), when they partition V into equal-size cells, else None.
    """
    rows = g.rows
    masks = dict.fromkeys(
        sum(1 << w for w, rw in enumerate(rows)
            if w == u or (ru & rw).bit_count() == lam1)
        for u, ru in enumerate(rows))
    sizes = [mk.bit_count() for mk in masks]
    if sum(sizes) != g.v or len(set(sizes)) != 1:
        return None
    return tuple(tuple(x for x in range(g.v) if mk >> x & 1) for mk in masks)


def _class_labels(v: int, classes: Sequence[Sequence[int]]) -> List[int]:
    """label[x] = the index of the class holding x; GraphError unless the
    classes partition 0..v-1."""
    label = [-1] * v
    for idx, cls in enumerate(classes):
        for x in cls:
            if not 0 <= x < v:
                raise GraphError(f"partition names vertex {x} outside range")
            if label[x] != -1:
                raise GraphError(f"partition repeats vertex {x}")
            label[x] = idx
    if -1 in label:
        raise GraphError(f"partition misses vertex {label.index(-1)}")
    return label


def equitable_check(g: Graph, classes: Sequence[Sequence[int]]):
    """Neighbour counts into each class, when constant per source class.

    Returns (quotient, None) with quotient[i][j] = neighbours a vertex of
    class i has in class j, or (None, witness) naming the first pair of
    same-class vertices whose counts into some class disagree.
    """
    _class_labels(g.v, classes)
    cmasks = [sum(1 << x for x in cls) for cls in classes]
    quotient = []
    for i, cls in enumerate(classes):
        base = [(g.rows[cls[0]] & cmasks[j]).bit_count()
                for j in range(len(classes))]
        for u in cls[1:]:
            for j in range(len(classes)):
                c = (g.rows[u] & cmasks[j]).bit_count()
                if c != base[j]:
                    return None, (i, j, cls[0], u, base[j], c)
        quotient.append(tuple(base))
    return tuple(quotient), None


def ddg_detect(g: Graph) -> DdgDetection:
    """Find the divisible design structure of a graph, if any.

    For two distinct pair values each value is tried as the within-class
    constant; the class partition is forced by the relation masks, so at
    most one candidate can survive (two survivors would need class sizes
    n1 + n2 = v + 1 with n1 * n2 <= v, impossible once both exceed 1).
    """
    k = g.regular_degree()
    if k is None:
        return DdgDetection(False, (), None, ())
    rows = g.rows
    values = sorted({(rows[u] & rows[w]).bit_count()
                     for u in range(g.v) for w in range(u + 1, g.v)})
    if len(values) == 1:
        lam = values[0]
        improper = tuple((g.v, k, lam, lam, m, g.v // m)
                         for m in range(1, g.v + 1) if g.v % m == 0)
        return DdgDetection(True, tuple(values), None, improper)
    if len(values) != 2:
        return DdgDetection(True, tuple(values), None, ())

    found: List[DdgResult] = []
    for lam1, lam2 in ((values[0], values[1]), (values[1], values[0])):
        classes = _classes_for_value(g, lam1)
        if classes is None:
            continue
        # proper: a pair with lam1 shares a class, so n >= 2; and m >= 2,
        # as one class would give lam1 to every pair
        n = len(classes[0])
        m = len(classes)
        for cls in classes:
            for i, u in enumerate(cls):
                for w in cls[i + 1:]:
                    if (rows[u] & rows[w]).bit_count() != lam1:
                        raise InternalInvariantError(
                            "partition violates its defining pair value")
        quotient, _ = equitable_check(g, classes)
        found.append(DdgResult(g.v, k, lam1, lam2, m, n, classes, quotient))
    if len(found) > 1:
        raise InternalInvariantError(
            f"two proper certifications on one graph: "
            f"{found[0].params} and {found[1].params}")
    return DdgDetection(True, tuple(values),
                        found[0] if found else None, ())


@dataclass(frozen=True)
class ClassAudit:
    """Structural facts about one class of a design partition.

    witness_size is the number of vertices adjacent to every member of
    the class; divisible records whether the class size divides it.
    """
    index: int
    coclique: bool
    witness_size: int
    divisible: bool


def class_audits(g: Graph, result: DdgResult) -> Tuple[ClassAudit, ...]:
    """Per-class coclique and common-neighbourhood checks."""
    out = []
    for i, cls in enumerate(result.classes):
        coclique = all(not g.has_edge(u, w)
                       for a, u in enumerate(cls) for w in cls[a + 1:])
        common = (1 << g.v) - 1
        for x in cls:
            common &= g.rows[x]
        size = common.bit_count()
        out.append(ClassAudit(i, coclique, size, size % result.n == 0))
    return tuple(out)
