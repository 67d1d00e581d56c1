import dataclasses

import pytest

from deza.catalog import (CatalogEntry, catalog, catalog_names, construct,
                          graph_facts, verify_catalog, verify_entry)
from deza.canon import canonical_certificate
from deza.census import CensusRecord
from deza.classify import classify
from deza.graphs import GraphError, cartesian_product, complete_graph


def _cert(g):
    return canonical_certificate(g).certificate_bytes


class TestVerification:
    def test_every_entry_checks_out(self):
        # recomputes every frozen field from the constructed graph
        problems = verify_catalog()
        assert all(not issues for issues in problems.values()), problems
        assert set(problems) == set(catalog_names())

    def test_drift_is_named_field_by_field(self):
        # a grid-4x2 entry listed with the (2, 0, 2, 4) orientation, an
        # srg and the wrong diameter: each drifted fact is one line, in
        # field order, computed value first
        entry = dataclasses.replace(catalog()["grid-4x2"], srg=(8, 4, 2, 0),
                                    diameter=3, ddg=(2, 0, 2, 4))
        assert verify_entry(entry) == [
            "srg None != (8, 4, 2, 0)", "diameter 2 != 3",
            "ddg (0, 2, 4, 2) != (2, 0, 2, 4)"]

    def test_facts_are_entry_and_record_fields(self):
        # the facts a catalog entry freezes are the ones a census record
        # carries, in the entry's field order
        facts = list(graph_facts(construct("grid-4x2")))
        entry = [f.name for f in dataclasses.fields(CatalogEntry)]
        record = {f.name for f in dataclasses.fields(CensusRecord)}
        assert facts == [name for name in entry if name in facts]
        assert set(facts) <= record

    def test_names_are_stable(self):
        assert catalog_names() == (
            "petersen", "complement-petersen", "rook-3x3",
            "hypercube-3", "hypercube-4",
            "fano-incidence", "fano-non-incidence",
            "grid-4x2",
            "complement-1-cubes", "complement-2-cubes", "complement-3-cubes",
        )


class TestConstruct:
    def test_aliases(self):
        assert _cert(construct("heawood")) == _cert(construct("fano-incidence"))
        assert _cert(construct("grid-3x3")) == _cert(construct("rook-3x3"))
        assert _cert(construct("complement-1-cube")) == \
            _cert(construct("complement-1-cubes"))

    def test_catalog_returns_a_copy(self):
        names = catalog_names()
        entries = catalog()
        del entries["petersen"]
        assert catalog_names() == names
        assert construct("petersen").v == 10
        assert "petersen" in catalog()

    def test_unknown_name_lists_options(self):
        with pytest.raises(GraphError, match="petersen"):
            construct("no-such-graph")

    def test_grid_is_a_box_product(self):
        box = cartesian_product(complete_graph(4), complete_graph(2))
        assert _cert(construct("grid-4x2")) == _cert(box)


class TestFrozenFacts:
    def test_petersen_entry(self):
        e = catalog()["petersen"]
        assert e.deza == (10, 3, 1, 0)
        assert e.srg == (10, 3, 0, 1)
        assert not e.strictly_deza
        assert e.diameter == 2
        assert e.ddg is None

    def test_fano_pair(self):
        inc = catalog()["fano-incidence"]
        non = catalog()["fano-non-incidence"]
        assert inc.deza == (14, 3, 1, 0)
        assert inc.diameter == 3
        assert inc.ddg == (1, 0, 2, 7)
        assert non.deza == (14, 4, 2, 0)
        assert non.diameter == 3
        assert non.ddg == (2, 0, 2, 7)
        # both bipartite, so neither is strictly Deza
        assert not inc.strictly_deza and not non.strictly_deza

    def test_grid_entry_parameters(self):
        e = catalog()["grid-4x2"]
        assert e.deza == (8, 4, 2, 0)
        assert e.strictly_deza
        assert e.ddg == (0, 2, 4, 2)
        assert "2, 0, 2, 4" in e.note

    def test_cube_complement_family(self):
        for s in (1, 2, 3):
            e = catalog()[f"complement-{s}-cubes"]
            assert e.deza == (8 * s, 8 * (s - 1) + 4,
                              8 * (s - 1) + 2, 8 * (s - 1))
            assert e.strictly_deza
            assert e.diameter == 2
            rep = classify(e.graph())
            assert rep.deza == e.deza
            assert rep.strictly_deza

    def test_hypercube_entries(self):
        q3 = catalog()["hypercube-3"]
        q4 = catalog()["hypercube-4"]
        assert q3.deza == (8, 3, 2, 0) and q3.diameter == 3
        assert q4.deza == (16, 4, 2, 0) and q4.diameter == 4
        assert q4.ddg is None

    def test_only_one_srg_overlap_per_entry(self):
        # an SRG entry is never also marked strictly Deza
        for e in catalog().values():
            assert not (e.srg and e.strictly_deza)
