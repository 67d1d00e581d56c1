import hashlib
import importlib
import itertools
import json
import os
import random
from collections import Counter

import pytest

from deza import cli
from deza.canon import canonical_certificate, refine
from deza.catalog import construct
from deza.census import (
    PruneSpec,
    _accepted_children,
    _candidate_sets,
    _last_cell_possible,
    _Partial,
    audit_theorem,
    census,
    generate_regular,
    parse_filter,
)
from deza.classify import classify
from deza.graph6 import decode_graph6, encode_graph6
from deza.graphs import GraphError
from oracle import count_regular_classes_naive

# isomorphism-class counts of k-regular graphs, any connectivity; the
# published cubic counts (6 at v=8, 21 at v=10) pin the generator to the
# literature, the rest were frozen from the brute-force oracle
COUNTS = {
    (1, 0): 1, (2, 0): 1, (2, 1): 1, (3, 0): 1, (3, 2): 1,
    (4, 0): 1, (4, 1): 1, (4, 2): 1, (4, 3): 1,
    (5, 0): 1, (5, 2): 1, (5, 4): 1,
    (6, 0): 1, (6, 1): 1, (6, 2): 2, (6, 3): 2, (6, 4): 1, (6, 5): 1,
    (7, 0): 1, (7, 2): 2, (7, 4): 2, (7, 6): 1,
    (8, 0): 1, (8, 1): 1, (8, 2): 3, (8, 3): 6, (8, 4): 6,
    (8, 5): 3, (8, 6): 1, (8, 7): 1,
}

# unpruned counts past the oracle's reach, frozen from the generator; the
# cubic ones (21 at v=10, tested below, and 94 at v=12) match OEIS A005638
LARGER_COUNTS = {(12, 3): 94, (10, 4): 60, (11, 4): 266}

SAT_PRUNE = "maxpair=k-2;sat=0,k-2"
ANCHOR_PRUNE = "maxpair=k-2;satdistinct=2;anchor=k-2"


def _g6_set(graphs):
    return sorted(encode_graph6(g) for g in graphs)


class TestGenerateRegular:
    def test_matches_oracle_up_to_seven(self):
        for v in range(1, 8):
            for k in range(v):
                if v * k % 2:
                    continue
                got = len(list(generate_regular(v, k)))
                assert got == count_regular_classes_naive(v, k) == \
                    COUNTS[(v, k)], (v, k)

    def test_frozen_counts_at_eight(self):
        for k in (2, 3, 4):
            assert len(list(generate_regular(8, k))) == COUNTS[(8, k)]

    def test_cubic_at_ten(self):
        graphs = list(generate_regular(10, 3))
        assert len(graphs) == 21
        assert sum(g.is_connected() for g in graphs) == 19

    @pytest.mark.parametrize("v,k", sorted(LARGER_COUNTS))
    def test_frozen_unpruned_counts(self, v, k):
        assert len(list(generate_regular(v, k))) == LARGER_COUNTS[(v, k)]

    def test_quartic_at_nine(self):
        graphs = list(generate_regular(9, 4))
        assert len(graphs) == 16
        assert all(g.is_connected() for g in graphs)

    def test_no_duplicates_in_output(self):
        g6 = _g6_set(generate_regular(8, 3))
        assert len(set(g6)) == len(g6)

    def test_bad_parameters(self):
        with pytest.raises(GraphError):
            list(generate_regular(0, 0))
        with pytest.raises(GraphError):
            list(generate_regular(5, 5))
        with pytest.raises(GraphError):
            list(generate_regular(5, 3))   # odd vk
        for jobs in (0, -3):
            with pytest.raises(GraphError, match="jobs"):
                list(generate_regular(8, 3, jobs=jobs))
        with pytest.raises(GraphError, match="unsupported prune argument"):
            list(generate_regular(8, 3, prune=lambda g: True))

    def test_oracle_parity_shortcut(self):
        assert count_regular_classes_naive(5, 3) == 0


class TestPrunes:
    def test_spec_parsing(self):
        spec = PruneSpec.from_string("maxpair=k-2;sat=0,k-2", 4)
        assert spec.max_pair_count == 2
        assert spec.saturated_values == (0, 2)
        spec = PruneSpec.from_string("satdistinct=2;anchor=k-2", 5)
        assert spec.saturated_distinct_max == 2
        assert spec.saturated_anchor == 3

    def test_unknown_clause(self):
        with pytest.raises(GraphError):
            PruneSpec.from_string("frobnicate=3", 4)

    def test_spec_string_in_provenance(self):
        spec = PruneSpec.from_string(ANCHOR_PRUNE + ";sat=0,k-2", 4)
        assert str(spec) == "maxpair=2;sat=0,2;satdistinct=2;anchor=2"
        records = census([8], [4], prune=PruneSpec.from_string(SAT_PRUNE, 4))
        assert dict(records[0].generator)["prune"] == "maxpair=2;sat=0,2"

    @pytest.mark.parametrize("v,k,prune", [
        pytest.param(8, 3, SAT_PRUNE, id="8-3"),
        pytest.param(8, 4, SAT_PRUNE, id="8-4"),
        pytest.param(9, 4, SAT_PRUNE, id="9-4"),
        pytest.param(12, 3, SAT_PRUNE, id="12-3"),
        pytest.param(9, 4, "maxpair=k-2;sat=k-3,k-2", id="9-4-theorem2"),
        pytest.param(9, 4, ANCHOR_PRUNE, id="9-4-anchor"),
        pytest.param(12, 3, ANCHOR_PRUNE, id="12-3-anchor"),
        # no sat clause: only the maxpair prune of candidate generation
        # and add_vertex fires
        pytest.param(10, 4, "maxpair=k-2", id="10-4-maxpair"),
    ])
    def test_prune_equals_post_filter(self, v, k, prune):
        # a pruned run must produce exactly the unpruned graphs whose pair
        # counts, all frozen in a regular graph, satisfy the spec
        spec = PruneSpec.from_string(prune, k)

        def obeys(g):
            values = {(g.rows[u] & g.rows[w]).bit_count()
                      for u in range(g.v) for w in range(u + 1, g.v)}
            if max(values) > spec.max_pair_count:
                return False
            if spec.saturated_values is not None:
                return values <= set(spec.saturated_values)
            distinct = spec.saturated_distinct_max
            return distinct is None or len(values) < distinct or (
                len(values) == distinct and spec.saturated_anchor in values)

        pruned = _g6_set(generate_regular(v, k, prune=prune))
        plain = _g6_set(g for g in generate_regular(v, k) if obeys(g))
        assert pruned == plain

    @pytest.mark.parametrize("v,k,prune", [(10, 4, SAT_PRUNE),
                                           (9, 4, ANCHOR_PRUNE),
                                           (10, 4, None),
                                           (11, 4, "maxpair=k-2")])
    def test_candidate_filters_drop_only_rejected_sets(self, v, k, prune):
        # walk the whole pruned search; at every node the sets dropped
        # from the reference list must fail the degree rule, break maxpair
        # on the child's rows or be sets add_vertex rejects, the kept ones
        # must pass the degree rule and maxpair and come in reference
        # order, and a child skipped by the degree rule or the last-cell
        # test must have its new vertex outside the last root cell
        spec = None if prune is None else PruneSpec.from_string(prune, k)
        maxpair = spec and spec.max_pair_count
        state = _Partial(v, k)
        state.add_vertex([], spec)
        dropped = skipped = 0

        def outside_last_cell(r):
            return r not in refine(state.rows, [list(range(r + 1))])[-1]

        def breaks_maxpair(s):
            if maxpair is None:
                return False
            r = len(state.rows)
            child = [row | (1 << r if x in s else 0)
                     for x, row in enumerate(state.rows)]
            child.append(sum(1 << x for x in s))
            return max(_pair_counts(child).values()) > maxpair

        def walk(gens):
            nonlocal dropped, skipped
            every = _reference_sets(state)
            kept = list(_candidate_sets(state, spec))
            kept_set = set(kept)
            assert kept == [s for s in every if s in kept_set]
            r = len(state.rows)
            top = max(state.deg)
            for s in every:
                rows = list(state.rows)
                lower = len(s) < top or (
                    len(s) == top and any(state.deg[x] == top for x in s))
                if s in kept_set:
                    assert not lower
                    assert not breaks_maxpair(s)
                    if state.add_vertex(s, spec):
                        if not _last_cell_possible(state.rows, state.deg):
                            skipped += 1
                            assert outside_last_cell(r)
                        state.pop_vertex()
                    continue
                dropped += 1
                if not lower:
                    assert breaks_maxpair(s) or not state.add_vertex(s, spec)
                    assert state.rows == rows
                elif state.add_vertex(s, spec):
                    assert outside_last_cell(r)
                    state.pop_vertex()
            if r + 1 < v:
                for child_gens in _accepted_children(state, spec, gens):
                    walk(child_gens)

        walk(())
        assert dropped > 0 and skipped > 0

    def test_anchor_prune_subset(self):
        # anchored runs keep only graphs where some saturated pair hits k-2
        anchored = _g6_set(generate_regular(
            8, 4, prune="maxpair=k-2;satdistinct=2;anchor=k-2"))
        everything = _g6_set(generate_regular(8, 4))
        assert set(anchored) <= set(everything)
        assert "GQzTrg" in anchored      # the 4x2 grid survives


def _reference_sets(state):
    """Every neighbour set the forced-vertex rule and the deficiency
    bounds allow, by size and then in lexicographic order, before the
    degree, maxpair and doomed filters."""
    v, k, deg = state.v, state.k, state.deg
    rem = v - len(deg) - 1
    open_ = [x for x, d in enumerate(deg) if d < k]
    if any(k - deg[x] > rem + 1 for x in open_):
        return []
    forced = [x for x in open_ if k - deg[x] == rem + 1]
    optional = [x for x in open_ if x not in forced]
    sets = []
    for size in range(len(forced), k + 1):
        # the deficiency left after the step must fit in the rem later
        # vertices, and what they lack must be edges among themselves
        left = sum(k - d for d in deg) - size + (k - size)
        if (k - size > rem or left > rem * k
                or rem * k - left > rem * (rem - 1)):
            continue
        sets += [tuple(sorted(forced + list(extra)))
                 for extra in itertools.combinations(optional,
                                                     size - len(forced))]
    return sets


def _pair_counts(rows):
    return {(x, y): (rows[x] & rows[y]).bit_count()
            for x in range(len(rows)) for y in range(x + 1, len(rows))}


def _frozen_from_rows(rows, k):
    saturated = {x for x, row in enumerate(rows) if row.bit_count() == k}
    return dict(Counter(c for (x, y), c in _pair_counts(rows).items()
                        if x in saturated and y in saturated))


def _frozen_rules_allow(rows, k, spec):
    """The verdict of the spec's frozen-value rules on a whole partial
    graph, from its rows alone; maxpair is left to candidate choice."""
    values = set(_frozen_from_rows(rows, k))
    if spec.saturated_values is not None and \
            not values <= set(spec.saturated_values):
        return False
    distinct = spec.saturated_distinct_max
    if distinct is not None:
        if len(values) > distinct:
            return False
        if spec.saturated_anchor is not None and len(values) == distinct \
                and spec.saturated_anchor not in values:
            return False
    return True


@pytest.mark.parametrize("v,k", [(10, 4), (12, 3)])
@pytest.mark.parametrize("prune", [SAT_PRUNE, ANCHOR_PRUNE, "maxpair=k-2"],
                         ids=["sat", "anchor", "maxpair"])
def test_partial_matches_recomputation(v, k, prune):
    # seeded random add_vertex/pop_vertex walks: the verdict of the
    # frozen-value rules and the frozen multiset must equal a from-scratch
    # recomputation over the rows, and a rejected add or an add and pop
    # must change nothing; add_vertex does not judge maxpair, so under a
    # maxpair-only spec every add is accepted
    spec = PruneSpec.from_string(prune, k)
    frozen_rules = spec != PruneSpec(spec.max_pair_count)
    rng = random.Random(f"{v}-{k}-{prune}")
    outcomes = Counter()
    for _ in range(40):
        state = _Partial(v, k)
        assert state.add_vertex([], spec)
        for _ in range(60):
            before = (list(state.rows), list(state.deg), dict(state.frozen))
            r = len(state.rows)
            if r > 1 and (r == v or rng.random() < 0.2):
                state.pop_vertex()
                rows = state.rows
                assert state.deg == [row.bit_count() for row in rows]
                assert state.frozen == _frozen_from_rows(rows, k)
                continue
            open_ = [x for x in range(r) if state.deg[x] < k]
            s = sorted(rng.sample(open_, rng.randint(0, min(k, len(open_)))))
            smask = sum(1 << x for x in s)
            child = [row | (1 << r if row_id in s else 0)
                     for row_id, row in enumerate(state.rows)] + [smask]
            ok = state.add_vertex(s, spec)
            outcomes[ok] += 1
            assert ok == _frozen_rules_allow(child, k, spec)
            if not ok:
                assert (state.rows, state.deg, state.frozen) == before
                continue
            assert state.rows == child
            assert state.deg == [row.bit_count() for row in child]
            assert state.frozen == _frozen_from_rows(child, k)
            if rng.random() < 0.3:
                state.pop_vertex()
                assert (state.rows, state.deg, state.frozen) == before
    assert outcomes[True] > 0
    assert (outcomes[False] > 0) == frozen_rules


class TestDeterminism:
    def test_parallel_sequence_identical(self):
        serial = [encode_graph6(g) for g in generate_regular(9, 4)]
        parallel = [encode_graph6(g) for g in generate_regular(9, 4, jobs=2)]
        assert serial == parallel

    def test_two_censuses_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        census([8], [3], out=str(a))
        census([8], [3], out=str(b), jobs=2)
        for suffix in (".g6", ".meta.jsonl"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == \
                (tmp_path / ("b" + suffix)).read_bytes()


class TestCensusRecords:
    def test_file_format_and_round_trip(self, tmp_path):
        prefix = tmp_path / "cells"
        records = census([6, 7], [2], out=str(prefix))
        g6_lines = (tmp_path / "cells.g6").read_text().splitlines()
        meta_lines = (tmp_path / "cells.meta.jsonl").read_text().splitlines()
        assert g6_lines == [r.graph6 for r in records]
        assert len(meta_lines) == len(records)
        for line, rec in zip(meta_lines, records):
            assert line == rec.as_json()
            data = json.loads(line)
            assert list(data) == ["graph6", "v", "k", "deza",
                                  "strictly_deza", "srg", "ddg", "diameter",
                                  "certificate_hash", "generator"]
            # re-serialization is byte-identical: no floats, fixed order
            assert json.dumps(data, separators=(",", ":")) == line
            g = decode_graph6(data["graph6"])
            rep = classify(g)
            assert data["v"] == g.v
            assert data["deza"] == (list(rep.deza) if rep.deza else None)

    def test_records_sorted_by_cell_then_hash(self):
        records = census([6, 7, 8], [2])
        keys = [(r.v, r.k, r.certificate_hash) for r in records]
        assert keys == sorted(keys)
        assert len(set(r.certificate_hash for r in records)) == len(records)

    def test_odd_cells_skipped(self):
        with_odd = [r.graph6 for r in census([5, 6], [3])]
        without = [r.graph6 for r in census([6], [3])]
        assert with_odd == without


class TestFilters:
    def test_alias_expansion(self):
        accept = parse_filter("deza with b=k-2")
        records = census([8], [4])
        picked = [r for r in records if accept(r)]
        assert any(r.graph6 == "GQzTrg" for r in picked)
        assert all(r.deza is not None and r.deza[2] == r.k - 2
                   for r in picked)

    def test_exact_parameter_filter(self):
        records = census([8], [4], filter_spec="deza(8,4,2,0)")
        assert [r.graph6 for r in records] == ["GQzTrg"]

    def test_vertex_term_only_in_first_position(self):
        records = census([8], [4], filter_spec="deza(v,4,k-2,0)")
        assert [r.graph6 for r in records] == ["GQzTrg"]
        with pytest.raises(GraphError, match="k-<int>"):
            census([8], [4], filter_spec="deza(*,v,*,*)")

    def test_wildcard_filter_finds_both_strict_graphs(self):
        records = census([8, 9], [4], filter_spec="deza(*,4,2,1)")
        assert all(r.deza[1:] == (4, 2, 1) for r in records)
        found = {(r.v, r.strictly_deza) for r in records}
        assert (8, True) in found
        assert (9, True) in found

    def test_srg_filter_is_petersen_at_ten(self):
        records = census([10], [3], filter_spec="srg")
        assert len(records) == 1
        assert records[0].srg == (10, 3, 0, 1)
        record_cert = canonical_certificate(
            decode_graph6(records[0].graph6)).certificate_bytes
        petersen_cert = canonical_certificate(
            construct("petersen")).certificate_bytes
        assert record_cert == petersen_cert

    def test_conjunction_and_connected(self):
        records = census([6], [2], filter_spec="connected & srg")
        assert records == []      # C6 is not strongly regular
        records = census([6], [2], filter_spec="connected")
        assert len(records) == 1  # the hexagon

    def test_bad_atom(self):
        with pytest.raises(GraphError):
            parse_filter("nonsense-atom")


class TestLimits:
    def test_desk_limits_enforced(self):
        with pytest.raises(GraphError, match="limit"):
            census([12], [6])

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DEZA_MAX_VERTICES", "6")
        with pytest.raises(GraphError):
            census([8], [3])
        monkeypatch.setenv("DEZA_MAX_VERTICES", "8")
        assert census([8], [3])


class TestAudits:
    def test_theorem_one_small_window(self):
        report = audit_theorem(1, vmax=10)
        assert report.ok
        cases = sorted(f["case"] for f in report.found)
        assert cases == ["cubic-diameter-exceeds-2",
                         "cubic-diameter-exceeds-2",
                         "grid-4x2", "petersen"]
        by_case = {f["case"]: f for f in report.found}
        assert by_case["grid-4x2"]["graph6"] == "GQzTrg"
        assert by_case["petersen"]["diameter"] == 2

    def test_theorem_two_full_window(self):
        report = audit_theorem(2)
        assert report.ok
        assert len(report.found) == 5
        cases = sorted(f["case"] for f in report.found)
        assert cases == ["srg-(10,6,3,4)", "srg-(9,4,1,2)",
                         "strict-deza-(8,4,2,1)", "strict-deza-(9,4,2,1)",
                         "strict-deza-(9,4,2,1)"]
        assert all(f["deza"][2] == f["k"] - 2 for f in report.found)

    def test_theorem_three_flags_parameter_mismatch(self):
        report = audit_theorem(3, vmax=8)
        assert not report.ok
        assert [f["graph6"] for f in report.found] == ["GQzTrg"]
        kinds = [d["kind"] for d in report.discrepancies]
        assert kinds == ["parameter-mismatch"]
        mismatch = report.discrepancies[0]
        assert mismatch["listed"] == [8, 4, 2, 0, 2, 4]
        assert mismatch["computed"] == [8, 4, 0, 2, 4, 2]

    def test_theorem_two_expected_cases_follow_kmax(self):
        # an expected case is in the window when v <= vmax and k <= kmax
        report = audit_theorem(2, vmax=10, kmax=5)
        assert report.ok
        cases = [e["case"] for e in report.expected]
        assert cases == ["strict-deza-(8,4,2,1)", "strict-deza-(9,4,2,1)",
                         "srg-(9,4,1,2)"]
        report = audit_theorem(2, vmax=10, kmax=3)
        assert report.ok
        assert report.expected == ()

    @pytest.mark.parametrize("theorem,vmax,cell", [
        (1, 16, "v=16, k=3"), (2, 12, "v=11, k=8"), (3, 16, "v=16, k=3")])
    def test_limits_checked_before_enumerating(self, monkeypatch, theorem,
                                               vmax, cell):
        def never(*args, **kwargs):
            raise AssertionError("enumerated before checking every cell")
        # the attribute deza.census is the re-exported function, not the module
        monkeypatch.setattr(importlib.import_module("deza.census"),
                            "generate_regular", never)
        with pytest.raises(GraphError, match=f"^{cell} outside default"):
            audit_theorem(theorem, vmax=vmax)

    def test_report_serializes(self):
        report = audit_theorem(3, vmax=8)
        text = json.dumps(report.as_dict(), separators=(",", ":"))
        assert json.loads(text)["theorem"] == 3

    def test_unknown_theorem(self):
        with pytest.raises(GraphError):
            audit_theorem(7)


# SHA-256 of `deza audit` stdout, frozen before the audits shared a driver
AUDIT_GOLDEN = [
    (("--theorem", "1", "--vmax", "10", "--json"), 0,
     "9d40a3935cd60586c803494ef7e3b0a053b13fb09e0b7615ce000f11fd1d75ed"),
    (("--theorem", "1", "--vmax", "10"), 0,
     "3c2ba3653830f5037072620b68fb1cb2bada291ec26f2f873d147ef17d6cecf4"),
    (("--theorem", "2", "--json"), 0,
     "08696e7a12f59ebd988f70d1d2bcfc74762cd07b90c7ad5c8809af808905720d"),
    (("--theorem", "2"), 0,
     "1ed2e44e53bc38af6340d73b1244de04e1c5385e20a5dc36f6557ddbbac81542"),
    (("--theorem", "3", "--vmax", "10", "--json"), 2,
     "2bda760ceb1c112f0825f441d1887b93c999fb2e92191df94521ffb8a79fb9f7"),
    (("--theorem", "3", "--vmax", "10"), 2,
     "b68745c35d4baa9b4d865c12f98016dfc2d4bf5a1b7b86acca2ca862197dd6da"),
]


@pytest.mark.parametrize("argv,code,digest", AUDIT_GOLDEN,
                         ids=[" ".join(a) for a, _, _ in AUDIT_GOLDEN])
def test_audit_output_golden(capsys, argv, code, digest):
    assert cli.main(["audit", *argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
