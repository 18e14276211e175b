"""Unit tests for the derived A(k) ladder (repro.adaptive.ladder).

The oracle is the live :class:`~repro.index.akindex.AkIndexFamily`
itself: a level coarsened from the leaf (a
:class:`~repro.index.frozen.FrozenIndex`) must present exactly the same
partition (extents), labels and index edges as the family's own level,
and child-only queries evaluated on the derived surface must agree with
scratch evaluation on the data graph — before and after maintenance.
"""

from __future__ import annotations

import pytest

from repro.adaptive.ladder import (
    build_ladder_state,
    invalidation_sets,
    validate_ladder_levels,
)
from repro.exceptions import ServiceError, StructuralIndexError
from repro.graph.datagraph import EdgeKind
from repro.index.akindex import AkIndexFamily
from repro.index.frozen import FrozenIndex
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.query.evaluator import evaluate_on_graph
from repro.query.index_evaluator import evaluate_on_ak, evaluate_on_index
from repro.service.snapshot import IndexSnapshot
from repro.workload.queries import QueryWorkload
from repro.workload.updates import MixedUpdateWorkload

from tests.adaptive.conftest import ADAPT_SEED

K = 3
LEVELS = (0, 1, 2)


def capture_state(graph, family, version=0, levels=LEVELS):
    snapshot = IndexSnapshot.capture(version, graph, family)
    return snapshot, build_ladder_state(family, snapshot.index, version, levels)


class TestValidateLadderLevels:
    def test_sorts_and_dedupes(self):
        assert validate_ladder_levels((2, 0, 2, 1), 3) == (0, 1, 2)

    def test_empty_is_legal(self):
        assert validate_ladder_levels((), 3) == ()

    def test_rejects_leaf_and_beyond(self):
        with pytest.raises(ServiceError):
            validate_ladder_levels((3,), 3)
        with pytest.raises(ServiceError):
            validate_ladder_levels((5,), 3)

    def test_rejects_negative(self):
        with pytest.raises(ServiceError):
            validate_ladder_levels((-1,), 3)


class TestLadderMatchesFamily:
    def _assert_level_matches(self, state, family, level):
        view = state.level_view(level)
        if level == K:
            return  # the leaf is the FrozenIndex itself, tested elsewhere
        assert isinstance(view, FrozenIndex) and view is not state.index
        # identical partitions: same multiset of extents...
        derived = {view.extent(i) for i in view.inodes()}
        oracle = {frozenset(e) for e in family.levels[level].extents.values()}
        assert derived == oracle
        assert view.num_inodes == len(oracle) == state.sizes[level]
        # ...and labels agree with the extents' members
        for inode in view.inodes():
            extent = view.extent(inode)
            labels = {family.graph.label(d) for d in extent}
            assert labels == {view.label_of(inode)}

    def test_every_level_matches_the_live_family(self, xmark_graph):
        family = AkIndexFamily.build(xmark_graph, K)
        _, state = capture_state(xmark_graph, family)
        for level in LEVELS:
            self._assert_level_matches(state, family, level)

    def test_levels_still_match_after_maintenance(self, xmark_graph):
        workload = MixedUpdateWorkload.prepare(xmark_graph, seed=5 + ADAPT_SEED)
        family = AkIndexFamily.build(xmark_graph, K)
        maintainer = AkSplitMergeMaintainer(family)
        for op, source, target in workload.steps(20, validate=False):
            if op == "insert":
                maintainer.insert_edge(source, target, EdgeKind.IDREF)
            else:
                maintainer.delete_edge(source, target)
        _, state = capture_state(xmark_graph, family, version=1)
        for level in LEVELS:
            self._assert_level_matches(state, family, level)

    def test_queries_agree_with_scratch_evaluation(self, xmark_graph):
        family = AkIndexFamily.build(xmark_graph, K)
        _, state = capture_state(xmark_graph, family)
        pool = QueryWorkload.generate(
            xmark_graph, count=20, seed=7 + ADAPT_SEED,
            max_depth=2, descendant_fraction=0.0,
        )
        checked = 0
        for expression in pool.answerable_by_ak(2):
            truth = evaluate_on_graph(xmark_graph, expression).matches
            for level in (2, K):
                view = state.level_view(level)
                got = evaluate_on_ak(view, level, expression).matches
                assert got == truth, (expression, level)
            checked += 1
        assert checked > 0

    def test_a_level_unions_only_the_extents_of_the_tokens_a_query_accepts(self, xmark_graph):
        family = AkIndexFamily.build(xmark_graph, K)
        _, state = capture_state(xmark_graph, family)
        view = state.level_view(1)
        classes = family.levels[1].extents
        unioned = set()
        for expression in ("/site/nosuch", "/site/people/person", "/site/regions/*/item"):
            report = evaluate_on_index(view, expression)
            assert report.matches == evaluate_on_graph(xmark_graph, expression).matches
            unioned |= {t for t, extent in classes.items() if extent <= report.matches}
            assert view._extent.keys() == unioned, expression
        assert 0 < len(unioned) < view.num_inodes
        for token in unioned:  # formed once, the family's class, read back as stored
            assert view.extent(token) is view._extent[token] == classes[token]

    def test_unknown_inode_raises(self, xmark_graph):
        family = AkIndexFamily.build(xmark_graph, K)
        _, state = capture_state(xmark_graph, family)
        view = state.level_view(0)
        with pytest.raises(StructuralIndexError):
            view.label_of(-42)


class TestLadderState:
    def test_leaf_view_is_the_frozen_index(self, xmark_graph):
        family = AkIndexFamily.build(xmark_graph, K)
        snapshot, state = capture_state(xmark_graph, family)
        assert state.level_view(K) is snapshot.index

    def test_views_are_memoised(self, xmark_graph):
        family = AkIndexFamily.build(xmark_graph, K)
        _, state = capture_state(xmark_graph, family)
        assert state.level_view(1) is state.level_view(1)

    def test_sizes_are_monotone_up_the_ladder(self, xmark_graph):
        family = AkIndexFamily.build(xmark_graph, K)
        _, state = capture_state(xmark_graph, family)
        ladder = sorted(state.sizes)
        for coarse, fine in zip(ladder, ladder[1:]):
            assert state.sizes[coarse] <= state.sizes[fine]


class TestInvalidationSets:
    def test_leaf_level_is_the_touched_set(self, xmark_graph):
        family = AkIndexFamily.build(xmark_graph, K)
        _, state = capture_state(xmark_graph, family)
        touched = set(list(state.index.inodes())[:3])
        out = invalidation_sets(state, state, touched)
        assert out[K] == touched

    def test_coarse_levels_take_the_ancestor_image(self, xmark_graph):
        family = AkIndexFamily.build(xmark_graph, K)
        _, state = capture_state(xmark_graph, family)
        touched = set(list(state.index.inodes())[:5])
        out = invalidation_sets(state, state, touched)
        for j in LEVELS:
            expected = {state.anc[j][t] for t in touched if t in state.anc[j]}
            assert out[j] == expected

    def test_newly_published_level_flushes(self, xmark_graph):
        family = AkIndexFamily.build(xmark_graph, K)
        snapshot = IndexSnapshot.capture(0, xmark_graph, family)
        prev = build_ladder_state(family, snapshot.index, 0, (1,))
        new = build_ladder_state(family, snapshot.index, 1, (0, 1))
        out = invalidation_sets(prev, new, set())
        assert out[0] is None  # level 0 was not published before
        assert out[1] == set()

    def test_root_set_change_flushes_the_level(self, xmark_graph):
        family = AkIndexFamily.build(xmark_graph, K)
        snapshot = IndexSnapshot.capture(0, xmark_graph, family)
        prev = build_ladder_state(family, snapshot.index, 0, LEVELS)
        new = build_ladder_state(family, snapshot.index, 1, LEVELS)
        new.root_tokens[1] = frozenset({-1})  # simulate a ROOT-set change
        out = invalidation_sets(prev, new, set())
        assert out[1] is None
        assert out[0] == set() and out[2] == set()
