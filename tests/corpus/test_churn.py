"""Churn workload tests: seeded schedules, mutation safety, convergence."""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET

import pytest

from repro.corpus import CorpusService, mutate_document, parse_document
from repro.service import ServiceConfig

from tests.corpus.churn_workload import CorpusChurnWorkload
from tests.corpus.test_differential import CORPUS_SEED, make_pool


class TestMutateDocument:
    def test_mutation_stays_parseable(self):
        rng = random.Random(3 + CORPUS_SEED)
        text = make_pool(5 + CORPUS_SEED)[0][1]
        for _ in range(40):
            text = mutate_document(text, rng)
            parse_document("d0", text)  # raises on any breakage

    def test_mutation_never_deletes_identified_subtrees(self):
        rng = random.Random(9 + CORPUS_SEED)
        text = make_pool(6 + CORPUS_SEED)[1][1]
        ids = {
            el.attrib["id"]
            for el in ET.fromstring(text).iter()
            if "id" in el.attrib
        }
        for _ in range(40):
            text = mutate_document(text, rng)
        surviving = {
            el.attrib["id"]
            for el in ET.fromstring(text).iter()
            if "id" in el.attrib
        }
        assert surviving == ids

    def test_mutation_is_deterministic_per_seed(self):
        text = make_pool(7)[0][1]
        a = mutate_document(text, random.Random(42))
        b = mutate_document(text, random.Random(42))
        assert a == b

    def test_mutation_changes_content(self):
        rng = random.Random(1)
        text = make_pool(8)[0][1]
        assert mutate_document(text, rng) != text


class TestChurnWorkload:
    @pytest.mark.parametrize("family", ["one", "ak"])
    def test_churn_converges_synchronously(self, family):
        pool = make_pool(11 + CORPUS_SEED)
        corpus = CorpusService.bulk_load(
            pool, config=ServiceConfig(family=family, k=2)
        )
        churn = CorpusChurnWorkload(
            pool=pool, steps=20, seed=13 + CORPUS_SEED
        )
        report = churn.run(corpus, compare="full", check_every=5)
        assert report.converged, report.summary()
        assert report.steps == 20
        assert report.adds + report.removes + report.replaces == 20
        assert report.queries_served == 20 * churn.queries_per_step
        assert len(report.depth_samples) == 20
        corpus.close()

    def test_churn_converges_with_background_writer(self):
        pool = make_pool(17 + CORPUS_SEED)
        corpus = CorpusService.bulk_load(
            pool, config=ServiceConfig(family="ak", k=2)
        )
        corpus.start()
        churn = CorpusChurnWorkload(
            pool=pool, steps=25, seed=19 + CORPUS_SEED, pace_seconds=0.002
        )
        report = churn.run(corpus, compare="full")
        corpus.stop()
        assert report.converged, report.summary()
        assert corpus.queue_depth() == 0
        corpus.check()
        corpus.close()

    def test_min_resident_respected(self):
        pool = make_pool(23)
        corpus = CorpusService.bulk_load(
            pool, config=ServiceConfig(family="ak", k=2)
        )
        churn = CorpusChurnWorkload(
            pool=pool, steps=30, seed=29, min_resident=3,
            weights=(0.0, 5.0, 1.0),  # removal-heavy
        )
        report = churn.run(corpus, compare="full")
        assert len(corpus.document_ids()) >= 3
        assert report.converged
        corpus.close()

    def test_report_summary_mentions_verdict(self):
        pool = make_pool(31)
        corpus = CorpusService.bulk_load(
            pool, config=ServiceConfig(family="ak", k=2)
        )
        report = CorpusChurnWorkload(pool=pool, steps=5, seed=37).run(corpus)
        assert "converged" in report.summary()
        assert report.mean_depth >= 0.0
        corpus.close()

    def test_unknown_compare_mode_rejected(self):
        pool = make_pool(41)
        corpus = CorpusService.bulk_load(
            pool, config=ServiceConfig(family="ak", k=2)
        )
        with pytest.raises(ValueError, match="compare"):
            CorpusChurnWorkload(pool=pool, steps=1).run(corpus, compare="bogus")
        corpus.close()
