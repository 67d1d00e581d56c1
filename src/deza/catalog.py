"""Named reference graphs with their expected classifications.

Every entry records what the classifier and the divisible-design detector
should say about it.  graph_facts computes those facts for any graph, and
census records carry the same ones; verify_catalog recomputes them and
reports any drift.  The 4x2 rook's graph keeps a note about its divisible
design parameters because the orientation that actually verifies has the
small within-class constant, not the large one.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .classify import classify
from .ddg import ddg_detect
from .graphs import (Graph, GraphError, cartesian_product, complement,
                     complete_graph, disjoint_union, fano_incidence,
                     fano_non_incidence, hypercube, petersen)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    build: Callable[[], Graph]
    deza: Optional[Tuple[int, int, int, int]]
    srg: Optional[Tuple[int, int, int, int]]
    strictly_deza: bool
    diameter: int
    ddg: Optional[Tuple[int, int, int, int]]
    note: Optional[str] = None

    def graph(self) -> Graph:
        return self.build()


def _grid(a: int, b: int) -> Graph:
    return cartesian_product(complete_graph(a), complete_graph(b))


def _cubes_complement(s: int) -> Graph:
    return complement(disjoint_union([hypercube(3)] * s))


def _entries() -> Tuple[CatalogEntry, ...]:
    out = [
        CatalogEntry(
            "petersen", "Kneser graph K(5,2)", petersen,
            deza=(10, 3, 1, 0), srg=(10, 3, 0, 1), strictly_deza=False,
            diameter=2, ddg=None),
        CatalogEntry(
            "complement-petersen", "triangular graph T(5)",
            lambda: complement(petersen()),
            deza=(10, 6, 4, 3), srg=(10, 6, 3, 4), strictly_deza=False,
            diameter=2, ddg=None),
        CatalogEntry(
            "rook-3x3", "3x3 rook's graph K3 x K3",
            lambda: _grid(3, 3),
            deza=(9, 4, 2, 1), srg=(9, 4, 1, 2), strictly_deza=False,
            diameter=2, ddg=None),
        CatalogEntry(
            "hypercube-3", "3-dimensional cube", lambda: hypercube(3),
            deza=(8, 3, 2, 0), srg=None, strictly_deza=False,
            diameter=3, ddg=(2, 0, 2, 4)),
        CatalogEntry(
            "hypercube-4", "4-dimensional cube", lambda: hypercube(4),
            deza=(16, 4, 2, 0), srg=None, strictly_deza=False,
            diameter=4, ddg=None),
        CatalogEntry(
            "fano-incidence",
            "point-line incidence graph of the projective plane of order 2",
            fano_incidence,
            deza=(14, 3, 1, 0), srg=None, strictly_deza=False,
            diameter=3, ddg=(1, 0, 2, 7)),
        CatalogEntry(
            "fano-non-incidence",
            "point-line non-incidence graph of the same plane",
            fano_non_incidence,
            deza=(14, 4, 2, 0), srg=None, strictly_deza=False,
            diameter=3, ddg=(2, 0, 2, 7)),
        CatalogEntry(
            "grid-4x2", "4x2 rook's graph K4 x K2",
            lambda: _grid(4, 2),
            deza=(8, 4, 2, 0), srg=None, strictly_deza=True,
            diameter=2, ddg=(0, 2, 4, 2),
            note="often listed with the design parameters (2, 0, 2, 4); "
                 "only the (0, 2, 4, 2) orientation verifies"),
    ]
    for s in (1, 2, 3):
        k = 8 * (s - 1) + 4
        params = (8 * s, k, k - 2, k - 4)
        out.append(CatalogEntry(
            f"complement-{s}-cubes",
            f"complement of {s} disjoint 3-cubes",
            lambda s=s: _cubes_complement(s),
            deza=params, srg=None, strictly_deza=True,
            diameter=2, ddg=(0, 2, 4, 2) if s == 1 else None,
            note="isomorphic to grid-4x2" if s == 1 else None))
    return tuple(out)


_CATALOG = {e.name: e for e in _entries()}

_ALIASES = {
    "grid-3x3": "rook-3x3",
    "heawood": "fano-incidence",
    "complement-1-cube": "complement-1-cubes",
}


def catalog() -> Dict[str, CatalogEntry]:
    return dict(_CATALOG)


def catalog_names() -> Tuple[str, ...]:
    return tuple(_CATALOG)


def construct(name: str) -> Graph:
    """Build a catalog graph by name (a few aliases are accepted)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _CATALOG:
        known = ", ".join(_CATALOG)
        raise GraphError(f"unknown graph {name!r}; known names: {known}")
    return _CATALOG[key].graph()


def graph_facts(g: Graph) -> Dict[str, object]:
    """The facts a catalog entry freezes and a census record carries, in
    CatalogEntry field order: deza, srg, strictly_deza, diameter, and ddg,
    the (lambda1, lambda2, m, n) of the proper design or None."""
    rep = classify(g)
    det = ddg_detect(g)
    return {"deza": rep.deza, "srg": rep.srg,
            "strictly_deza": rep.strictly_deza, "diameter": rep.diameter,
            "ddg": None if det.proper is None else det.proper.params[2:]}


def verify_entry(entry: CatalogEntry) -> List[str]:
    """Recompute an entry's classification; returns mismatch descriptions."""
    facts = graph_facts(entry.graph())
    return [f"{name} {got} != {getattr(entry, name)}"
            for name, got in facts.items() if got != getattr(entry, name)]


def verify_catalog() -> Dict[str, List[str]]:
    """Reproduction check over the whole catalog; values are problem lists."""
    return {name: verify_entry(entry) for name, entry in catalog().items()}
