"""Pair-count classification: Deza / strictly Deza / SRG / (0,lambda) verdicts.

A Deza graph (v,k,b,a) is k-regular and every two distinct vertices have
either b or a common neighbours (b >= a, both values realized).  Strictly
Deza additionally means diameter 2 and not strongly regular.  Unlike the SRG
verdict, the Deza verdict ignores whether a pair is adjacent.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .graphs import Graph, InternalInvariantError


@dataclass(frozen=True)
class ClassificationReport:
    v: int
    connected: bool
    regular: Optional[int]            # common degree, None if irregular
    common_values: Tuple[int, ...]    # sorted distinct pair counts
    deza: Optional[Tuple[int, int, int, int]]        # (v, k, b, a)
    srg: Optional[Tuple[int, int, int, int]]         # (v, k, lambda, mu)
    degenerate: Optional[str]         # "complete" / "edgeless" / "trivial"
    strictly_deza: bool
    zero_lambda: Optional[int]        # lambda when values within {0, lambda}
    diameter: Optional[int]           # None = disconnected (infinite)
    alpha: Optional[int]              # per-vertex count of a-partners
    beta: Optional[int]               # per-vertex count of b-partners


def classify(g: Graph) -> ClassificationReport:
    v = g.v
    regular = g.regular_degree()
    adj_values: set[int] = set()
    non_values: set[int] = set()
    for i in range(v):
        ri = g.rows[i]
        for j in range(i + 1, v):
            c = (ri & g.rows[j]).bit_count()
            if ri >> j & 1:
                adj_values.add(c)
            else:
                non_values.add(c)
    values = tuple(sorted(adj_values | non_values))

    degenerate = None
    if v == 1:
        degenerate = "trivial"
    elif regular == v - 1:
        degenerate = "complete"
    elif regular == 0 and v >= 2:
        degenerate = "edgeless"

    deza = None
    if regular is not None and len(values) == 2 and degenerate is None:
        deza = (v, regular, values[1], values[0])

    srg = None
    if (regular is not None and degenerate is None
            and len(adj_values) == 1 and len(non_values) == 1):
        srg = (v, regular, next(iter(adj_values)), next(iter(non_values)))

    diameter = g.diameter()
    connected = diameter is not None
    strictly = deza is not None and diameter == 2 and srg is None

    zero_lambda = None
    nonzero = [c for c in values if c]
    if connected and len(nonzero) == 1:
        zero_lambda = nonzero[0]

    alpha = beta = None
    if deza is not None:
        _, k, b, a = deza
        betas = set()
        for i in range(v):
            ri = g.rows[i]
            betas.add(sum(1 for j in range(v) if j != i
                          and (ri & g.rows[j]).bit_count() == b))
        if len(betas) != 1:
            raise InternalInvariantError(
                f"per-vertex b-partner count not constant: {sorted(betas)}")
        beta = betas.pop()
        alpha = v - 1 - beta

    return ClassificationReport(
        v=v, connected=connected, regular=regular, common_values=values,
        deza=deza, srg=srg, degenerate=degenerate, strictly_deza=strictly,
        zero_lambda=zero_lambda, diameter=diameter, alpha=alpha, beta=beta)


def beta_formula(v: int, k: int, b: int, a: int) -> Fraction:
    """Counting identity for the number of b-partners of any vertex of a
    (v,k,b,a) Deza graph: beta = (k(k-1) - a(v-1)) / (b-a).  A non-integral
    or out-of-range value rules the parameter tuple out."""
    if b == a:
        raise ValueError("degenerate Deza parameters: b == a")
    return Fraction(k * (k - 1) - a * (v - 1), b - a)
