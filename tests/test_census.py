import hashlib
import itertools
import json
import os
import pickle
import random
from collections import Counter
from dataclasses import replace

import pytest

import deza.census
from deza import cli
from deza.canon import canonical_certificate, refine
from deza.catalog import construct
from deza.census import (
    _accepted_children,
    _candidate_sets,
    _check_limits,
    _ddg_scope,
    _deza_scope,
    _frontier,
    _gap_cells,
    _last_cell_possible,
    _match_a0,
    _match_gap,
    _match_unlisted_ddg,
    _Partial,
    _Search,
    _SUBTREES_PER_JOB,
    _subtree_task,
    audit_theorem,
    build_record,
    census,
    generate_regular,
    parse_filter,
)
from deza.classify import classify
from deza.ddg import ddg_detect
from deza.graph6 import decode_graph6, encode_graph6
from deza.graphs import (GraphError, complement, disjoint_union, hypercube,
                         make_graph)
from deza.sieve import deza_sieve
from oracle import (automorphisms, count_regular_classes_naive, group_order,
                    has_completion, reference_add_vertex, reference_gap,
                    reference_sets)

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
GAP3_PRUNE = "maxpair=k-2;sat=k-3,k-2"
GAP4_PRUNE = "maxpair=k-2;sat=k-4,k-2"
# a sat value above maxpair, which the search reads as sat=0,1,2: read
# as given, count 3 would need an open pair both to join and to stay apart
BOTH_PRUNE = "maxpair=3;sat=0,1,2,4"
# cells whose whole pruned search the candidate-choice tests walk; under
# sat=0,2,3 at (10,4), with no maxpair, the sat pair-sum bound alone
# refuses children and two graphs remain
FILTER_CELLS = [(10, 4, SAT_PRUNE), (9, 4, ANCHOR_PRUNE), (10, 4, None),
                (11, 4, "maxpair=k-2"), (12, 3, SAT_PRUNE),
                (10, 4, "sat=0,2,3")]


def _g6_set(graphs):
    return sorted(encode_graph6(g) for g in graphs)


class TestGenerateRegular:
    def test_matches_oracle_up_to_seven(self):
        for v in range(1, 8):
            for k in range(v):
                if v * k % 2:
                    continue
                graphs = [g.rows for g in generate_regular(v, k)]
                assert len(graphs) == count_regular_classes_naive(v, k) == \
                    COUNTS[(v, k)], (v, k)
                # the pool gets the frontier as it is, down to the
                # one-vertex root, which is already a graph when v = 1
                if v <= 4:
                    assert [g.rows for g in generate_regular(
                        v, k, jobs=2)] == graphs, (v, k)

    def test_frozen_counts_at_eight(self):
        for k in (2, 3, 4):
            assert len(list(generate_regular(8, k))) == COUNTS[(8, k)]

    def test_cubic_at_ten(self):
        graphs = list(generate_regular(10, 3))
        assert len(graphs) == 21
        assert sum(g.diameter() is not None for g in graphs) == 19

    @pytest.mark.parametrize("v,k", sorted(LARGER_COUNTS))
    def test_frozen_unpruned_counts(self, v, k):
        assert len(list(generate_regular(v, k))) == LARGER_COUNTS[(v, k)]

    def test_quartic_at_nine(self):
        graphs = list(generate_regular(9, 4))
        assert len(graphs) == 16
        assert all(g.diameter() is not None for g in graphs)

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
        # a prune is a spec string: a callable, or the bytes of a spec,
        # is refused
        for prune in (lambda g: True, SAT_PRUNE.encode()):
            with pytest.raises(GraphError,
                               match="unsupported prune argument"):
                list(generate_regular(8, 3, prune=prune))
        with pytest.raises(GraphError, match="bad prune term 'x'"):
            list(generate_regular(8, 3, prune="satdistinct=x"))

    def test_oracle_parity_shortcut(self):
        assert count_regular_classes_naive(5, 3) == 0


class TestPrunes:
    def test_spec_parsing(self):
        search = _Search(5, 4, "maxpair=k-2;sat=0,k-2")
        assert search.maxpair == 2
        assert search.sat == (0, 2)
        search = _Search(6, 5, "satdistinct=2;anchor=k-2")
        assert search.distinct == 2
        assert search.anchor == 3

    def test_negative_terms_match_nothing(self):
        # a k-<int> term below zero stays negative: no pair count, record
        # parameter or maxpair bound can meet it
        assert _Search(8, 4, "maxpair=k-2;sat=k-5,k-2").sat == (-1, 2)
        assert _Search(6, 1, "maxpair=k-2").maxpair == -1
        assert list(generate_regular(8, 4, "maxpair=k-2;sat=k-5,k-2")) == []
        assert census(range(2, 7), [1], prune="maxpair=k-2") == []
        for spec in ("ddg(k-5,*,*,*)", "deza(*,*,*,k-5)"):
            assert census([8], [4], filter_spec=spec) == []

    def test_anchor_needs_satdistinct(self, capsys):
        # the anchor rule reads the satdistinct bound, so alone it would
        # prune nothing
        with pytest.raises(GraphError, match="anchor clause needs a "
                                             "satdistinct clause"):
            _Search(8, 4, "anchor=1")
        assert cli.main(["enumerate", "--v", "8", "--k", "4",
                         "--prune", "anchor=1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad prune spec")

    def test_unknown_clause(self):
        with pytest.raises(GraphError, match="unknown prune clause"):
            _Search(5, 4, "frobnicate=3")
        # a clause given twice is refused, not read as the last one
        with pytest.raises(GraphError, match="the sat clause is repeated"):
            _Search(5, 4, "sat=0;maxpair=2;sat=k-2")

    def test_spec_string_in_provenance(self):
        # each cell reads the k-terms at its own degree: (8,3) runs under
        # maxpair=1 and has no graph, where maxpair=2, the (8,4) reading,
        # would keep five; the records carry the string as given
        records = census([8], [3, 4], prune="maxpair=k-2")
        assert [r.k for r in records] == [4, 4]
        assert {dict(r.generator)["prune"] for r in records} == {
            "maxpair=k-2"}

    @pytest.mark.parametrize("v,k,prune", [
        pytest.param(8, 3, SAT_PRUNE, id="8-3"),
        pytest.param(8, 4, SAT_PRUNE, id="8-4"),
        pytest.param(9, 4, SAT_PRUNE, id="9-4"),
        pytest.param(12, 3, SAT_PRUNE, id="12-3"),
        pytest.param(9, 4, GAP3_PRUNE, id="9-4-theorem2"),
        pytest.param(9, 4, ANCHOR_PRUNE, id="9-4-anchor"),
        pytest.param(12, 3, ANCHOR_PRUNE, id="12-3-anchor"),
        # two graphs remain, the 4x2 grid among them
        pytest.param(8, 4, ANCHOR_PRUNE, id="8-4-anchor"),
        # the interval rule rejects steps at slack >= 1 and srg(10,6,3,4)
        # survives
        pytest.param(10, 6, GAP3_PRUNE, id="10-6-gap3"),
        # no sat clause: only the maxpair prune of candidate generation
        # fires
        pytest.param(10, 4, "maxpair=k-2", id="10-4-maxpair"),
        # no maxpair, and the interval rule is live: candidate choice
        # drops sets whose pairs can no longer reach a sat value, and two
        # graphs remain
        pytest.param(10, 5, "sat=0,k-3,k-2", id="10-5-sat-only"),
        # no maxpair, and the sat pair-sum bound refuses children: count 1
        # must grow to 2, and two graphs remain
        pytest.param(10, 4, "sat=0,2,3", id="10-4-pair-sum"),
        # sat 4 lies above maxpair, so the search reads sat only up to
        # 3 and count 3 is dead at every slack; six graphs remain, those
        # of sat=0,1,2
        pytest.param(10, 4, BOTH_PRUNE, id="10-4-both-relations"),
    ])
    def test_prune_equals_post_filter(self, v, k, prune):
        # a pruned run must produce exactly the unpruned graphs whose pair
        # counts, all frozen in a regular graph, satisfy the spec
        spec = _Search(v, k, prune)

        def obeys(g):
            values = {(g.rows[u] & g.rows[w]).bit_count()
                      for u in range(g.v) for w in range(u + 1, g.v)}
            if spec.maxpair is not None and max(values) > spec.maxpair:
                return False
            if spec.sat is not None:
                return values <= set(spec.sat)
            distinct = spec.distinct
            return distinct is None or len(values) < distinct or (
                len(values) == distinct and spec.anchor in values)

        pruned = _g6_set(generate_regular(v, k, prune=prune))
        plain = _g6_set(g for g in generate_regular(v, k) if obeys(g))
        assert pruned == plain

    @pytest.mark.parametrize("v,k,prune,rule", [
        # the frozen values reject children of this cell that candidate
        # choice and the counting bounds let through, and three graphs
        # remain; at (8,4) no child is left for them to reject
        (9, 4, ANCHOR_PRUNE, "add_vertex"),
        # the interval rule drops sets whose child rows the frozen-value
        # rules accept, and srg(10,6,3,4) remains
        (10, 6, GAP3_PRUNE, "interval"),
    ])
    def test_post_filter_cells_fire(self, monkeypatch, v, k, prune, rule):
        # the post-filter cases above stand for a rule only where it
        # rejects a step and output remains; satdistinct and anchor refuse
        # children that add_vertex builds, on their rows, while the
        # interval rule drops sets at candidate choice: those whose child
        # rows the frozen-value rules accept and the reference step check
        # refuses
        refused = 0
        if rule == "add_vertex":
            real = _Partial.add_vertex

            def counted(self, smask):
                nonlocal refused
                child = real(self, smask)
                refused += not child.frozen_values_ok()
                return child

            monkeypatch.setattr(_Partial, "add_vertex", counted)
        else:
            search = _Search(v, k, prune)
            plain = _Search(v, k, f"maxpair={search.maxpair}")
            for node in _accepted_nodes(v, k, prune, v - 1):
                kept = set(_candidate_sets(node))
                refused += sum(
                    1 for s in _candidate_sets(node._replace(search=plain))
                    if s not in kept and _frozen_rules_allow(
                        _step_rows(node.rows, s), k, search)
                    and reference_add_vertex(node, s) is None)
        assert list(generate_regular(v, k, prune))
        assert refused > 0

    @pytest.mark.parametrize("v,k,prune", FILTER_CELLS)
    def test_candidate_filters_drop_only_rejected_sets(self, v, k, prune):
        # walk the whole pruned search; at every node the sets dropped
        # from the reference list must fail the degree rule, break maxpair
        # on the child's rows, be sets the reference step check (sat
        # included) rejects, or, dropped by the birth-degree bound, give a
        # child with no completion; the kept ones must pass the degree
        # rule and maxpair and come in reference order; a child skipped by
        # the degree rule or the last-cell test must have its new vertex
        # outside the last root cell, and one the counting check refuses
        # must have no completion
        search = _Search(v, k, prune)
        maxpair = search.maxpair
        dropped = skipped = bounded = refused = 0

        def outside_last_cell(rows):
            r = len(rows) - 1
            return r not in refine(rows, [list(range(r + 1))])[-1]

        def breaks_maxpair(node, s):
            if maxpair is None:
                return False
            child = _step_rows(node.rows, s)
            return max(_pair_counts(child).values()) > maxpair

        def walk(node):
            nonlocal dropped, skipped, bounded, refused
            every = reference_sets(node)
            kept = list(_candidate_sets(node))
            kept_set = set(kept)
            assert kept == [s for s in every if s in kept_set]
            r = len(node.rows)
            deg = [row.bit_count() for row in node.rows]
            top = max(deg)
            for s in every:
                rows = list(node.rows)
                size = s.bit_count()
                lower = size < top or (size == top and any(
                    d == top for x, d in enumerate(deg) if s >> x & 1))
                if s in kept_set:
                    assert not lower
                    assert not breaks_maxpair(node, s)
                    child = node.add_vertex(s)
                    if not child.frozen_values_ok():
                        continue
                    if not _last_cell_possible(child.rows):
                        skipped += 1
                        assert outside_last_cell(child.rows)
                    if not child.counts_ok():
                        refused += 1
                        assert not has_completion(child)
                    continue
                dropped += 1
                if not lower:
                    child = (None if breaks_maxpair(node, s)
                             else reference_add_vertex(node, s))
                    assert list(node.rows) == rows
                    if child is not None:
                        bounded += 1
                        assert not has_completion(child)
                    continue
                child = reference_add_vertex(node, s)
                if child is not None:
                    assert outside_last_cell(child.rows)
            if r + 1 < v:
                for child in _accepted_children(node):
                    walk(child)

        walk(search.root())
        assert dropped > 0 and skipped > 0 and bounded > 0
        # the oracle finds a completion where the generator finds a graph
        if any(True for _ in generate_regular(v, k, prune)):
            assert has_completion(search.root())
        # the capacity counts need maxpair, and the pair-sum bound a live
        # gap table; with neither the check can refuse nothing, and each
        # cell here with one of them has children it refuses
        assert (refused > 0) == (maxpair is not None
                                 or search.gap is not None)

    @pytest.mark.parametrize("v,k,prune", FILTER_CELLS + [
        (10, 6, GAP3_PRUNE), (10, 5, "sat=0,k-3,k-2"), (11, 6, GAP4_PRUNE)])
    def test_candidate_choice_keeps_its_implied_bounds(self, v, k, prune):
        # _candidate_sets reads the maximum degree off the last vertex, has
        # no guard for a deficiency above rem_after + 1, no k - rem_after
        # or k bound on the size, no vertices-left term in any slack, one
        # slack for every pair of the new vertex, and no recheck of a pair
        # of open vertices that a step leaves alone; the search must keep
        # all seven facts at every node it reaches
        gap = reference_gap(_Search(v, k, prune))
        nodes = sets = pairs = 0

        def walk(node):
            nonlocal nodes, sets, pairs
            nodes += 1
            rows = node.rows
            deg = [row.bit_count() for row in rows]
            rem_after = v - len(deg) - 1
            assert max(deg) == deg[-1]
            assert all(k - d <= rem_after + 1 for d in deg)
            forced = sum(1 for d in deg if k - d == rem_after + 1)
            assert k - rem_after <= max(deg[-1], forced)
            if gap is not None:
                # every pair of open vertices is alive at its slack
                opened = [x for x, d in enumerate(deg) if d < k]
                for x, y in itertools.combinations(opened, 2):
                    pairs += 1
                    c = (rows[x] & rows[y]).bit_count()
                    assert gap[c] <= min(k - deg[x], k - deg[y])
            for s in _candidate_sets(node):
                sets += 1
                size = s.bit_count()
                assert size <= k
                # the new vertex lacks no more than the vertices left, and
                # no more than any placed y lacks after the step
                assert k - size <= rem_after
                assert all(k - size <= k - d - (s >> y & 1)
                           for y, d in enumerate(deg))
            if len(deg) + 1 < v:
                for child in _accepted_children(node):
                    walk(child)

        walk(_Search(v, k, prune).root())
        assert nodes > 1 and sets > 0
        assert (pairs > 0) == (gap is not None)

    @pytest.mark.parametrize("v,k,prune", [(8, 3, "maxpair=0"),
                                           (6, 2, "maxpair=0"),
                                           (8, 4, "maxpair=-1")])
    def test_candidate_sets_keep_maxpair_at_most_zero(self, v, k, prune):
        # under maxpair <= 0 candidate choice must block neighbours, or
        # stop, before any member is picked, which only the scan of every
        # row against the forced base does (at maxpair=-1 the root must
        # yield nothing); at every node reached, no set candidate choice
        # yields may break maxpair on the child's rows
        search = _Search(v, k, prune)

        def walk(node):
            r = len(node.rows)
            for s in _candidate_sets(node):
                child = _step_rows(node.rows, s)
                assert max(_pair_counts(child).values()) <= search.maxpair
            if r + 1 < v:
                for child in _accepted_children(node):
                    walk(child)

        walk(search.root())

    @pytest.mark.parametrize("v,k,prune", [
        (8, 4, SAT_PRUNE), (10, 4, SAT_PRUNE), (9, 4, GAP3_PRUNE),
        # the interval rule is live at k = 6: counts dead at slack 1 or
        # more must end sets too
        (10, 6, GAP3_PRUNE),
        # no maxpair: the sat relations alone block pairs
        (9, 4, "sat=0,k-3,k-2"),
        # counts 0 and 1 are bad and 2 is good: a count two short of a sat
        # value, with two picks left, must not end the prefix
        (11, 6, GAP4_PRUNE),
        # sat read only up to maxpair: count 3 is dead at every slack, and
        # the reference, which reads sat the same way, must agree
        (10, 4, BOTH_PRUNE),
    ])
    def test_sat_relations_keep_the_sets_the_reference_accepts(self, v, k,
                                                               prune):
        # at every node the search reaches, candidate choice must yield,
        # in order, exactly the sets that the filters without sat yield
        # and that the reference step check accepts, on frozen values and
        # on the interval rule; the rule must drop sets, and every spec
        # but theorem 1 at (10,4) and gap4 at (11,6) keeps graphs
        search = _Search(v, k, prune)
        assert search.dead is not None
        plain = _Search(v, k, None if search.maxpair is None
                        else f"maxpair={search.maxpair}")
        dropped = 0
        for node in _accepted_nodes(v, k, prune, v - 1):
            before = list(_candidate_sets(node._replace(search=plain)))
            kept = list(_candidate_sets(node))
            assert kept == [s for s in before
                            if reference_add_vertex(node, s) is not None]
            dropped += len(before) - len(kept)
        assert dropped > 0
        assert any(True for _ in generate_regular(v, k, prune)) == (
            (v, k, prune) not in ((10, 4, SAT_PRUNE), (11, 6, GAP4_PRUNE)))

    def test_sat_relations_under_satdistinct_drop_only_refused_sets(self):
        # with satdistinct beside sat, a set the relations drop must still
        # be one the reference step check refuses, while satdistinct
        # refusals stay with the child's frozen-value check, which must
        # refuse exactly the kept sets the reference refuses: the two
        # homes of the pair-count rules meet here; three graphs remain
        v, k, prune = 9, 4, "sat=0,1,2;satdistinct=2"
        plain = _Search(v, k, None)
        dropped = refused = 0
        for node in _accepted_nodes(v, k, prune, v - 1):
            kept = list(_candidate_sets(node))
            kept_set = set(kept)
            before = list(_candidate_sets(node._replace(search=plain)))
            assert kept == [s for s in before if s in kept_set]
            for s in before:
                ok = reference_add_vertex(node, s) is not None
                if s not in kept_set:
                    dropped += 1
                    assert not ok
                else:
                    assert node.add_vertex(s).frozen_values_ok() == ok
                    refused += not ok
        assert dropped > 0 and refused > 0
        assert len(list(generate_regular(v, k, prune))) == 3

    def test_sat_is_enforced_only_at_candidate_choice(self):
        # under a sat-only spec every set candidate choice yields keeps
        # sat, so the frozen-value check returns at once and refuses no
        # child
        _assert_children_unrefused(12, 4, SAT_PRUNE)

    @pytest.mark.parametrize("v,k,prune", [
        (10, 6, GAP3_PRUNE), (11, 6, GAP3_PRUNE),
        (10, 5, "sat=0,k-3,k-2"),
    ])
    def test_interval_rule_is_enforced_only_at_candidate_choice(self, v, k,
                                                                prune):
        # the interval rule is live in these: a pair that can no longer
        # reach a sat value is dropped with its set, not refused after, so
        # no child of a set candidate choice yields is refused
        _assert_children_unrefused(v, k, prune)

    @pytest.mark.parametrize("v,k,prune,digest", [
        # theorem 1 at k=3: vacuous, though sat leaves counts 2 and 3 bad
        (12, 3, SAT_PRUNE, "6e6b5879ff8d0d5f932a9eb9691342fd"),
        (10, 4, ANCHOR_PRUNE, "2809dc1791a966f20918832521cc7a12"),
        (10, 4, None, "29d0a90af2550104a2f4e3b6cb8553b9"),
        (11, 4, "maxpair=k-2", "c42dd922ac3ea08c07bcf1ad3cbd5645"),
    ])
    def test_specs_without_sat_relations_keep_their_candidates(
            self, v, k, prune, digest):
        # a vacuous spec, one without sat and no spec at all have no dead
        # counts to enforce, and every node's candidate list is the one
        # frozen before candidate choice enforced sat
        search = _Search(v, k, prune)
        assert search.dead is None
        gap = reference_gap(search)
        assert (gap is not None and any(gap)) == (prune == SAT_PRUNE)
        h = hashlib.sha256()
        for node in _accepted_nodes(v, k, prune, v - 1):
            h.update(repr(list(_candidate_sets(node))).encode())
        assert h.hexdigest()[:32] == digest

    def test_anchor_prune_subset(self):
        # anchored runs keep only graphs where some saturated pair hits k-2
        anchored = _g6_set(generate_regular(
            8, 4, prune="maxpair=k-2;satdistinct=2;anchor=k-2"))
        everything = _g6_set(generate_regular(8, 4))
        assert set(anchored) <= set(everything)
        assert "GQzTrg" in anchored      # the 4x2 grid survives


def _assert_children_unrefused(v, k, prune):
    """Every set candidate choice yields at every node the search reaches
    builds a child on the step's rows that the frozen-value check, which
    returns at once without satdistinct, accepts."""
    assert _Search(v, k, prune).distinct is None
    sets = 0
    for node in _accepted_nodes(v, k, prune, v - 1):
        for s in _candidate_sets(node):
            sets += 1
            child = node.add_vertex(s)
            assert list(child.rows) == _step_rows(node.rows, s)
            assert child.frozen_values_ok()
    assert sets > 0


def _step_rows(rows, smask):
    """The rows after a new vertex joins the vertices in the mask smask."""
    bit = 1 << len(rows)
    return [row | bit if smask >> x & 1 else row
            for x, row in enumerate(rows)] + [smask]


def _pair_counts(rows):
    return {(x, y): (rows[x] & rows[y]).bit_count()
            for x in range(len(rows)) for y in range(x + 1, len(rows))}


def _frozen_from_rows(rows, k):
    """The distinct counts of the pairs with a saturated endpoint, which
    no later vertex can change."""
    saturated = {x for x, row in enumerate(rows) if row.bit_count() == k}
    return {c for (x, y), c in _pair_counts(rows).items()
            if x in saturated or y in saturated}


def _values_allowed(values, spec):
    """The verdict of the spec's frozen-value rules on a set of values."""
    if spec.sat is not None and not values <= set(spec.sat):
        return False
    if spec.distinct is not None:
        if len(values) > spec.distinct:
            return False
        if spec.anchor is not None and len(values) == spec.distinct \
                and spec.anchor not in values:
            return False
    return True


def _frozen_rules_allow(rows, k, spec):
    """The verdict of the spec's frozen-value rules on a whole partial
    graph, from its rows alone; maxpair is left to candidate choice."""
    return _values_allowed(_frozen_from_rows(rows, k), spec)


def _intervals_allow(rows, v, k, spec, moved):
    """The interval rule on the unfrozen pairs of a partial graph with an
    endpoint in moved, from its rows alone: a count c that can still grow
    by min(k - deg x, k - deg y, v - n) must be able to reach a sat
    value; with no vertex left to place the rule is not applied."""
    n = len(rows)
    if spec.sat is None or n == v:
        return True
    deg = [row.bit_count() for row in rows]
    for (x, y), c in _pair_counts(rows).items():
        if (x in moved or y in moved) and deg[x] < k and deg[y] < k:
            slack = min(k - deg[x], k - deg[y], v - n)
            if not any(c <= t <= c + slack for t in spec.sat):
                return False
    return True


def _reachable(spec, k):
    """The pair counts a partial k-regular graph can hold under maxpair."""
    top = k if spec.maxpair is None else min(spec.maxpair, k)
    return range(top + 1)


def _vacuous(spec, k):
    """Whether the frozen-value rules accept every set of reachable
    values, by trying each one."""
    return _all_allowed(_reachable(spec, k), spec)


def _all_allowed(values, spec):
    return all(_values_allowed(set(sub), spec)
               for size in range(len(values) + 1)
               for sub in itertools.combinations(values, size))


@pytest.mark.parametrize("v,k", [(10, 4), (12, 3), (10, 6)])
# without maxpair, satdistinct=3 walks reach steps where the count of two
# vertices saturated together decides the verdict
@pytest.mark.parametrize("prune", [SAT_PRUNE, ANCHOR_PRUNE, "maxpair=k-2",
                                   GAP3_PRUNE, GAP4_PRUNE, "satdistinct=3"],
                         ids=["sat", "anchor", "maxpair", "gap3", "gap4",
                              "distinct3"])
def test_partial_matches_recomputation(v, k, prune):
    # seeded random walks over sets that keep maxpair, whose child keeps
    # sat on its frozen values, and whose touched pairs keep the interval
    # rule, as candidate choice guarantees, with a stack of ancestors to
    # step back to: the verdict of the child's frozen-value check must
    # equal the frozen-value rules on every pair with a saturated
    # endpoint, recomputed from the rows; a child's rows must equal the
    # recomputation; and no step, accepted or rejected, may change the
    # node it was taken from, nor any of its ancestors
    search = _Search(v, k, prune)
    vacuous = _vacuous(search, k)
    # a dead count at slack 1 among the reachable ones: only then can the
    # interval rule reject a step that the frozen-value rules pass
    interval = search.sat is not None and any(
        not {c, c + 1} & set(search.sat) for c in _reachable(search, k))
    # satdistinct or anchor refuses some set of reachable sat values
    distinct = not _all_allowed(
        [c for c in _reachable(search, k)
         if search.sat is None or c in search.sat], search)
    assert search.vacuous == vacuous
    assert (search.dead is not None and search.dead[1] != 0) == (
        interval and not vacuous)
    rng = random.Random(f"{v}-{k}-{prune}")
    outcomes = Counter()
    for _ in range(40):
        path = [search.root()]
        for _ in range(60):
            node = path[-1]
            r = len(node.rows)
            if r > 1 and (r == v or rng.random() < 0.2):
                path.pop()
                continue
            open_ = [x for x in range(r) if node.rows[x].bit_count() < k]
            s = sorted(rng.sample(open_, rng.randint(0, min(k, len(open_)))))
            smask = sum(1 << x for x in s)
            child_rows = _step_rows(node.rows, smask)
            if search.maxpair is not None and max(
                    _pair_counts(child_rows).values(), default=0) > \
                    search.maxpair:
                continue
            # a step that freezes a count outside sat, or leaves a touched
            # pair unable to reach one, is a set candidate choice drops,
            # so add_vertex never gets it
            if search.sat is not None and not \
                    _frozen_from_rows(child_rows, k) <= set(search.sat):
                continue
            if not _intervals_allow(child_rows, v, k, search, set(s) | {r}):
                outcomes["interval"] += 1
                continue
            before = (node.rows, node.gens)
            child = node.add_vertex(smask)
            ok = child.frozen_values_ok()
            assert (node.rows, node.gens) == before
            outcomes[ok] += 1
            assert ok == _frozen_rules_allow(child_rows, k, search)
            assert list(child.rows) == child_rows
            if not ok:
                continue
            if rng.random() >= 0.3:
                path.append(child)
    assert outcomes[True] > 0
    assert (outcomes[False] > 0) == distinct
    assert (outcomes["interval"] > 0) == interval


@pytest.mark.parametrize("prune,k,vacuous", [
    (None, 4, True),
    ("maxpair=k-2", 4, True),
    (SAT_PRUNE, 3, True),
    (ANCHOR_PRUNE, 3, True),
    (SAT_PRUNE, 4, False),
    (ANCHOR_PRUNE, 4, False),
    (GAP3_PRUNE, 4, False),
    (GAP4_PRUNE, 6, False),
    ("sat=0,1,2,3", 3, True),
    ("sat=0,1,2", 3, False),
    ("satdistinct=4", 3, True),
    ("satdistinct=3", 3, False),
    ("maxpair=2;satdistinct=3;anchor=2", 4, True),
    ("maxpair=2;satdistinct=3;anchor=3", 4, False),
])
def test_vacuity_verdict(prune, k, vacuous):
    # a spec is vacuous exactly when its frozen-value rules accept every
    # set of reachable values, by brute force over those sets
    search = _Search(12, k, prune)
    assert search.vacuous == vacuous
    assert _vacuous(search, k) == vacuous


@pytest.mark.parametrize("prune,k,live", [
    # theorem 1 at k = 3: counts 0 and 1 are both sat values
    (SAT_PRUNE, 3, False),
    # counts 0, 1 and 2 are all sat values, and 3 and 4 lie above them
    ("sat=0,k-3,k-2", 4, False),
    # no sat clause
    (ANCHOR_PRUNE, 4, False),
    (None, 4, False),
    # theorem 1 at k = 4: count 1 must grow to 2
    (SAT_PRUNE, 4, True),
    # theorem 2 at k = 6: counts 0, 1 and 3 must grow
    (GAP4_PRUNE, 6, True),
])
def test_gap_table_gate(prune, k, live):
    # the pair-sum bound runs only when some count that maxpair allows,
    # below the largest sat value, must still grow to reach one; its gap
    # table then agrees with the oracle's on every such count
    search = _Search(12, k, prune)
    assert (search.gap is not None) == live
    if live:
        top = min(search.maxpair, k)
        assert list(search.gap) == reference_gap(search)[:top + 1]


def _accepted_nodes(v, k, prune, vmax):
    """The root and every accepted node of the search with at most vmax
    vertices, in DFS order."""
    def walk(node):
        yield node
        if len(node.rows) < vmax:
            for child in _accepted_children(node):
                yield from walk(child)

    return walk(_Search(v, k, prune).root())


# cells under no prune and the specs of theorems 1, 2 and 3
AUGMENTATION_CELLS = [(9, 4, None), (10, 4, None), (10, 4, SAT_PRUNE),
                      (12, 3, SAT_PRUNE), (10, 4, GAP3_PRUNE),
                      (9, 4, ANCHOR_PRUNE), (12, 3, ANCHOR_PRUNE)]


class TestCanonicalAugmentation:
    # McKay's two tests: one neighbour set per orbit of the parent's
    # automorphism group, and the new vertex in the child's last orbit;
    # the generator keeps no other record of the children it accepted

    @pytest.mark.parametrize("v,k,prune", AUGMENTATION_CELLS)
    def test_node_gens_generate_the_whole_group(self, v, k, prune):
        # a node's children skip sets by the group its gens generate, so
        # at every node up to 11 vertices that group must be all of Aut
        nodes = 0
        for node in _accepted_nodes(v, k, prune, min(v, 11)):
            g = node.graph()
            assert group_order(node.gens, g.v) == len(automorphisms(g))
            nodes += 1
        assert nodes > 0

    @pytest.mark.parametrize("v,k,prune", AUGMENTATION_CELLS)
    def test_orbits_are_closed_and_siblings_distinct(self, v, k, prune):
        # candidate choice reads only what automorphisms preserve, so an
        # image of a yielded set is itself yielded, and no two accepted
        # siblings are isomorphic
        moved = 0
        for node in _accepted_nodes(v, k, prune, v - 1):
            sets = list(_candidate_sets(node))
            yielded = set(sets)
            for s in sets:
                members = [x for x in range(len(node.rows)) if s >> x & 1]
                for g in node.gens:
                    image = sum(1 << g[x] for x in members)
                    assert image in yielded
                    moved += image != s
            certs = [canonical_certificate(child.graph()).certificate_bytes
                     for child in _accepted_children(node)]
            assert len(set(certs)) == len(certs)
        assert moved > 0


class TestDeterminism:
    def test_parallel_sequence_identical(self):
        serial = [encode_graph6(g) for g in generate_regular(9, 4)]
        parallel = [encode_graph6(g) for g in generate_regular(9, 4, jobs=2)]
        assert serial == parallel

    @pytest.mark.parametrize("v,k,prune", [
        (12, 3, ANCHOR_PRUNE), (10, 4, SAT_PRUNE), (10, 4, None),
        (9, 4, ANCHOR_PRUNE), (9, 4, "satdistinct=3")])
    def test_frontier_depth_never_changes_output(self, v, k, prune):
        # the subtrees of any cut, in frontier order, are the serial run;
        # 10**6 cuts at depth v-1 or where the tree dies out, as the
        # pruned (10,4) cell does: it has no graph.  (9,4) under the
        # anchor prune rejects steps and has output, so the frozen values
        # each subtree reads off its rows must include its frontier
        # node's; under satdistinct=3 one subtree of the depth v-1 cut
        # would keep a graph the serial run drops if they did not
        search = _Search(v, k, prune)
        serial = [g.rows for g in generate_regular(v, k, prune)]
        for min_nodes in (1, 8, 32, 10**6):
            level = _frontier(search, min_nodes)
            assert (len(level) >= min_nodes or not level
                    or all(len(node.rows) == v - 1 for node in level))
            joined = [rows for node in level for rows in _subtree_task(node)]
            assert joined == serial

    def test_frontier_nodes_survive_pickling(self):
        # pool workers get their frontier node as a pickle: the subtree of
        # the copy must be the subtree of the node, and the subtrees of
        # the cut that two workers get must join into the serial run
        search = _Search(9, 4, ANCHOR_PRUNE)
        serial = [g.rows for g in generate_regular(9, 4, ANCHOR_PRUNE)]
        level = _frontier(search, min_nodes=_SUBTREES_PER_JOB * 2)
        assert any(node.gens for node in level)
        joined = []
        for node in level:
            copy = pickle.loads(pickle.dumps(node))
            assert (copy.rows, copy.gens) == (node.rows, node.gens)
            subtree = _subtree_task(copy)
            assert subtree == _subtree_task(node)
            joined += subtree
        assert serial and joined == serial

    def test_parallel_pruned_sequence_identical(self):
        serial = [encode_graph6(g)
                  for g in generate_regular(12, 3, ANCHOR_PRUNE)]
        parallel = [encode_graph6(g)
                    for g in generate_regular(12, 3, ANCHOR_PRUNE, jobs=2)]
        assert serial and serial == parallel

    def test_parallel_firing_spec_identical(self):
        # the anchor prune rejects steps at (9,4), so a worker whose
        # subtree root lost its frozen values would keep graphs the
        # serial run drops
        serial = [encode_graph6(g)
                  for g in generate_regular(9, 4, ANCHOR_PRUNE)]
        parallel = [encode_graph6(g)
                    for g in generate_regular(9, 4, ANCHOR_PRUNE, jobs=2)]
        assert serial and serial == parallel

    def test_dead_tree_starts_no_pool(self, monkeypatch):
        # maxpair=0 allows no pair a common neighbour, which no cubic
        # graph has, and the search dies before its frontier holds a node
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool for an empty frontier")
        monkeypatch.setattr(deza.census.multiprocessing, "Pool", no_pool)
        assert not _frontier(_Search(8, 3, "maxpair=0"), 32)
        assert list(generate_regular(8, 3, "maxpair=0", jobs=2)) == []

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

    def test_irregular_graph_has_no_record(self):
        path = make_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="regular graphs only"):
            build_record(path, ())

    def test_int_bounds_are_one_cell(self):
        assert census(8, 3) == census([8], [3])

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
        # the flag aliases, read after case and spaces are folded
        for alias, flag in (("strictly deza", "strictly-deza"),
                            ("DDG   Proper", "ddg-proper")):
            picked = [r for r in records if parse_filter(alias)(r)]
            assert picked
            assert picked == [r for r in records if parse_filter(flag)(r)]

    def test_exact_parameter_filter(self):
        records = census([8], [4], filter_spec="deza(8,4,2,0)")
        assert [r.graph6 for r in records] == ["GQzTrg"]

    def test_vertex_term_only_in_first_position(self):
        records = census([8], [4], filter_spec="deza(v,4,k-2,0)")
        assert [r.graph6 for r in records] == ["GQzTrg"]
        with pytest.raises(GraphError, match="k-<int>"):
            census([8], [4], filter_spec="deza(*,v,*,*)")
        # ddg's first term is lam1, not the vertex count
        with pytest.raises(GraphError, match="bad filter term 'v'"):
            census([8], [4], filter_spec="ddg(v,*,*,*)")

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

    def test_long_window(self, monkeypatch):
        monkeypatch.delenv("DEZA_MAX_VERTICES", raising=False)
        _check_limits(16, 4, long=True)
        for v, k, long in ((16, 4, False), (17, 4, True), (16, 5, True)):
            with pytest.raises(GraphError, match=f"^v={v}, k={k} outside"):
                _check_limits(v, k, long=long)

    def test_every_cell_checked_before_enumerating(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumerated before checking every cell")
        monkeypatch.setattr(deza.census, "generate_regular", never)
        with pytest.raises(GraphError, match="^v=16, k=3 outside default"):
            census([8, 16], [3])


class TestAudits:
    def test_gap_cells_are_the_sieve_survivors(self):
        # a theorem-2 cell (v, k) with a = k - gap is enumerated exactly
        # when the sieve's handshake parity (R1) and b-partner count (R2)
        # pass for (v, k, k-2, a)
        cells = {(v, k, k - target[3])
                 for v, k, _, target in _gap_cells(40, None)}
        survivors = {
            (v, k, gap) for gap in (3, 4) for v in range(5, 41)
            for k in range(gap + 1, v - 1)
            if {"R1", "R2"}.isdisjoint(
                deza_sieve(v, k, k - 2, k - gap).failures())}
        assert cells == survivors
        assert len(cells) == 84

    def test_theorem_one_wording(self):
        # every return of the theorem-1 matcher, on real records with the
        # fields it reads replaced
        petersen = build_record(construct("petersen"), ())
        heawood = build_record(construct("heawood"), ())
        grid = build_record(construct("grid-4x2"), ())
        assert _match_a0(petersen) == (
            None, "a diameter-2 (v,3,1,0) graph other than the Petersen "
                  "graph")
        assert _match_a0(heawood) == (
            "cubic-diameter-exceeds-2",
            "a (14,3,1,0) graph that is not the point-line incidence "
            "graph, contradicting the uniqueness claim")
        assert _match_a0(replace(heawood, deza=(12, 3, 1, 0))) == (
            "cubic-diameter-exceeds-2", None)
        assert _match_a0(grid) == (
            None, "an (8,4,2,0) graph other than the 4x2 rook's graph")
        for v, other in ((14, "the plane non-incidence graph"),
                         (16, "the 4-cube")):
            assert _match_a0(replace(grid, deza=(v, 4, 2, 0))) == (
                None, f"a ({v},4,2,0) graph other than {other}")
        assert _match_a0(replace(grid, deza=(10, 4, 2, 0))) == (
            None, "parameters (10, 4, 2, 0) outside every listed case")

    def test_theorem_two_wording(self):
        rook = build_record(construct("rook-3x3"), ())
        other = build_record(construct("complement-petersen"), ())
        assert _match_gap(rook) == ("srg-(9,4,1,2)", None)
        assert _match_gap(other) == ("srg-(10,6,3,4)", None)
        for v in (8, 9):
            strict = replace(rook, deza=(v, 4, 2, 1), strictly_deza=True,
                             srg=None)
            assert _match_gap(strict) == (f"strict-deza-({v},4,2,1)", None)
        assert _match_gap(replace(rook, srg=None)) == (
            None, "parameters (9, 4, 2, 1) outside every a=k-3 case")
        assert _match_gap(replace(rook, deza=(10, 4, 2, 1),
                                  strictly_deza=True, srg=None)) == (
            None, "parameters (10, 4, 2, 1) outside every a=k-3 case")
        assert _match_gap(replace(other, deza=(10, 6, 4, 2))) == (
            None, "parameters (10, 6, 4, 2) outside every a=k-4 case")

    def test_theorem_three_wording(self):
        grid = build_record(construct("grid-4x2"), ())
        assert _match_unlisted_ddg(grid) == (
            None, "a proper divisible design graph with larger constant "
                  "k-2 not on the list")

    def test_deza_scope_needs_connected_target(self):
        # two copies of the 4x2 rook's graph are a (16,4,2,0) Deza graph,
        # but not a connected one, so theorem 1 leaves them out
        grid = construct("grid-4x2")
        one = build_record(grid, ())
        two = build_record(disjoint_union([grid, grid]), ())
        assert two.deza == (16, 4, 2, 0) and two.diameter is None
        assert _deza_scope(two, (16, 4, 2, 0)) is None
        assert _deza_scope(one, (8, 4, 2, 0)) == (8, 4, 2, 0)
        assert _deza_scope(one, (8, 4, 2, 1)) is None

    def test_ddg_scope_takes_disjoint_copies(self):
        # j copies of the Heawood or the Fano non-incidence graph realise
        # the lam2 = 0 tuples that pass the theorem-3 scan; theorem 3's
        # scope has no connectivity test, so it takes every one, though
        # for j >= 2 they lie past every audit window
        found = []
        for name, k in (("heawood", 3), ("fano-non-incidence", 4)):
            for j in (1, 2, 3):
                g = disjoint_union([construct(name)] * j)
                params = (14 * j, k, k - 2, 0, 2 * j, 7)
                assert ddg_detect(g).proper.params == params
                assert _ddg_scope(build_record(g, ()), k - 2) == params
                found.append(params)
        assert sorted(found) == [
            (14, 3, 1, 0, 2, 7), (14, 4, 2, 0, 2, 7),
            (28, 3, 1, 0, 4, 7), (28, 4, 2, 0, 4, 7),
            (42, 3, 1, 0, 6, 7), (42, 4, 2, 0, 6, 7)]

    @pytest.mark.parametrize("m", range(2, 7))
    def test_complement_of_disjoint_cubes(self, m):
        # the README's k' = 3, a = k-4 case of theorem 2: the complement
        # of m disjoint 3-cubes is strictly Deza with these parameters;
        # the audit lists m = 2 and 3, and m >= 4 lies past every window
        g = complement(disjoint_union([hypercube(3)] * m))
        rep = classify(g)
        assert rep.deza == (8 * m, 8 * m - 4, 8 * m - 6, 8 * m - 8)
        assert rep.strictly_deza and rep.diameter == 2
        assert rep.srg is None
        assert ddg_detect(g).proper is None

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
        (1, 16, "v=16, k=3"), (2, 12, "v=11, k=8"), (3, 16, "v=16, k=3"),
        # a window far past the limits fails at the same first cell
        (2, 10**6, "v=11, k=8")])
    def test_limits_checked_before_enumerating(self, monkeypatch, theorem,
                                               vmax, cell):
        def never(*args, **kwargs):
            raise AssertionError("enumerated before checking every cell")
        monkeypatch.setattr(deza.census, "generate_regular", never)
        # the cell builders draw their cells from ranges; counting those
        # draws shows that a bad cell stops the window where it lies,
        # instead of after every cell of it is built
        draws = []

        def counted_range(*args):
            for x in range(*args):
                draws.append(x)
                assert len(draws) <= 1000, "built cells past the bad one"
                yield x
        monkeypatch.setattr(deza.census, "range", counted_range,
                            raising=False)
        with pytest.raises(GraphError, match=f"^{cell} outside default"):
            audit_theorem(theorem, vmax=vmax)

    @pytest.mark.parametrize("theorem", [1, 3])
    def test_huge_kmax_builds_no_empty_cells(self, monkeypatch, theorem):
        # no k-regular graph has k >= v, and theorem 1 has graphs only at
        # k = 3, 4, so a kmax far past vmax must enumerate the cells of
        # kmax = vmax - 1 without drawing a k for each empty cell
        cells = []

        def record(v, k, prune=None, jobs=1):
            cells.append((v, k, prune))
            return iter(())
        monkeypatch.setattr(deza.census, "generate_regular", record)
        draws = []

        def counted_range(*args):
            for x in range(*args):
                draws.append(x)
                assert len(draws) <= 1000, "drew k past the last cell"
                yield x
        monkeypatch.setattr(deza.census, "range", counted_range,
                            raising=False)
        report = audit_theorem(theorem, vmax=8, kmax=10**7)
        huge = cells[:]
        cells.clear()
        assert audit_theorem(theorem, vmax=8, kmax=7).expected == \
            report.expected
        assert huge and huge == cells

    @pytest.mark.parametrize("theorem,bounds", [
        (1, {"vmax": 0}), (1, {"kmax": 0}), (2, {"kmax": 0}),
        (3, {"vmax": 0})])
    def test_zero_bound_is_an_empty_window(self, monkeypatch, theorem,
                                           bounds):
        # 0 is a bound like any other, not a request for the default
        def never(*args, **kwargs):
            raise AssertionError("enumerated a cell of an empty window")
        monkeypatch.setattr(deza.census, "generate_regular", never)
        report = audit_theorem(theorem, **bounds)
        assert report.found == ()
        # a family without a fixed v stays in the window, but is optional
        assert report.ok
        assert all(report.bounds[key] == 0 for key in bounds)

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
    # the default window reaches the (14,3) and (14,4) certificate cases
    (("--theorem", "3", "--json"), 2,
     "81269cbf1d97f6bb2a08fd8c20b1927cc8677131af9e387b7d26a5ff4c1ce497"),
]


@pytest.mark.parametrize("argv,code,digest", AUDIT_GOLDEN,
                         ids=[" ".join(a) for a, _, _ in AUDIT_GOLDEN])
def test_audit_output_golden(capsys, argv, code, digest):
    assert cli.main(["audit", *argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
