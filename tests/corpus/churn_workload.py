"""Corpus churn: seeded document arrival/expiry under live queries.

A test driver: it drives a :class:`~repro.corpus.service.CorpusService`
through a randomized but fully seeded schedule of document operations —
arrivals, expiries and in-place replacements (produced by
:func:`repro.corpus.churn.mutate_document`) — while a closed loop of
path queries keeps reading the published snapshot.  Staleness is tracked as queue depth:
the number of compiled updates the writer has not applied yet.

The workload ends with the convergence check that anchors the whole
subsystem: after quiescence, the evolved corpus must fingerprint
identically to a from-scratch bulk load over the surviving document
texts.  For acyclic corpora the partition-inclusive fingerprint is
compared; for cyclic data under the 1-index family the maintained
result is minimal only up to split/merge quality, so the graph-only
fingerprint is the sound check (pass ``compare="graph"``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.corpus.churn import mutate_document
from repro.corpus.service import CorpusService
from repro.workload.queries import QueryWorkload


@dataclass
class ChurnReport:
    """What one churn run did and how stale the served index got."""

    steps: int = 0
    adds: int = 0
    removes: int = 0
    replaces: int = 0
    noop_replaces: int = 0
    updates_submitted: int = 0
    queries_served: int = 0
    #: queue depth sampled once per step (staleness proxy)
    depth_samples: list[int] = field(default_factory=list)
    converged: Optional[bool] = None
    final_fingerprint: str = ""
    scratch_fingerprint: str = ""

    @property
    def max_depth(self) -> int:
        """Peak sampled staleness."""
        return max(self.depth_samples, default=0)

    @property
    def mean_depth(self) -> float:
        """Mean sampled staleness."""
        if not self.depth_samples:
            return 0.0
        return sum(self.depth_samples) / len(self.depth_samples)

    def summary(self) -> str:
        """One-line digest for logs and benchmarks."""
        verdict = {True: "converged", False: "DIVERGED", None: "unchecked"}
        return (
            f"churn: {self.steps} steps ({self.adds} add / {self.removes} rm / "
            f"{self.replaces} repl), depth max={self.max_depth} "
            f"mean={self.mean_depth:.2f}, {self.queries_served} queries, "
            f"{verdict[self.converged]}"
        )


@dataclass
class CorpusChurnWorkload:
    """A seeded arrival/expiry/mutation schedule over a document pool.

    The pool is the universe of documents; at any instant a subset is
    resident.  Per step the workload picks one move — arrival of an
    absent document, expiry of a resident one, or replacement of a
    resident one with a mutated text — then serves a few queries and
    samples queue depth.  Expired documents re-arrive with their last
    text, so cross-document references exercise the dangling→resolved
    transition both ways.
    """

    pool: list[tuple[str, str]]
    steps: int = 60
    seed: int = 0
    #: relative weights of (add, remove, replace) among legal moves
    weights: tuple[float, float, float] = (1.0, 1.0, 2.0)
    queries_per_step: int = 2
    query_seed: int = 11
    #: keep at least this many documents resident
    min_resident: int = 1
    #: sleep after each step's queries, before sampling queue depth —
    #: gives a started background writer drain time, so the samples
    #: measure steady-state staleness rather than submit-burst size
    pace_seconds: float = 0.0

    def run(
        self,
        corpus: CorpusService,
        compare: str = "full",
        check_every: int = 0,
    ) -> ChurnReport:
        """Drive *corpus* (already loaded with the pool) through churn.

        ``compare`` selects the convergence fingerprint (``"full"`` =
        graph + partition, ``"graph"`` = graph only); ``check_every`` > 0
        additionally runs the catalog/index invariant oracle every that
        many steps (slow — meant for tests).
        """
        if compare not in ("full", "graph"):
            raise ValueError(f"unknown compare mode {compare!r}")
        rng = random.Random(self.seed)
        texts = dict(self.pool)
        report = ChurnReport()
        queries = QueryWorkload.generate(
            corpus.service.graph, count=24, seed=self.query_seed
        )

        for step in range(self.steps):
            resident = set(corpus.document_ids())
            absent = sorted(set(texts) - resident)
            moves = []
            if absent:
                moves.append(("add", self.weights[0]))
            if len(resident) > self.min_resident:
                moves.append(("remove", self.weights[1]))
            if resident:
                moves.append(("replace", self.weights[2]))
            move = _weighted_choice(rng, moves)

            if move == "add":
                doc_id = rng.choice(absent)
                corpus.add_document(doc_id, texts[doc_id])
                report.adds += 1
                report.updates_submitted += 1
            elif move == "remove":
                doc_id = rng.choice(sorted(resident))
                before = corpus.queue_depth()
                corpus.remove_document(doc_id)
                report.removes += 1
                report.updates_submitted += corpus.queue_depth() - before
            else:
                doc_id = rng.choice(sorted(resident))
                texts[doc_id] = mutate_document(texts[doc_id], rng)
                emitted = corpus.replace_document(doc_id, texts[doc_id])
                report.replaces += 1
                if emitted == 0:
                    report.noop_replaces += 1
                report.updates_submitted += emitted

            for _ in range(self.queries_per_step):
                corpus.query(queries.sample())
                report.queries_served += 1
            if self.pace_seconds:
                time.sleep(self.pace_seconds)
            report.depth_samples.append(corpus.queue_depth())
            report.steps += 1
            if check_every and (step + 1) % check_every == 0:
                corpus.await_quiescent()
                corpus.check()

        corpus.await_quiescent()
        self._check_convergence(corpus, texts, compare, report)
        return report

    def _check_convergence(
        self,
        corpus: CorpusService,
        texts: dict[str, str],
        compare: str,
        report: ChurnReport,
    ) -> None:
        surviving = [(doc_id, texts[doc_id]) for doc_id in corpus.document_ids()]
        scratch = CorpusService.bulk_load(
            surviving,
            config=corpus.service.config,
            attribute_nodes=corpus.attribute_nodes,
        )
        try:
            if compare == "full":
                report.final_fingerprint = corpus.fingerprint()
                report.scratch_fingerprint = scratch.fingerprint()
            else:
                report.final_fingerprint = corpus.graph_fingerprint()
                report.scratch_fingerprint = scratch.graph_fingerprint()
        finally:
            scratch.close()
        report.converged = (
            report.final_fingerprint == report.scratch_fingerprint
        )


def _weighted_choice(rng: random.Random, moves: list[tuple[str, float]]) -> str:
    total = sum(weight for _, weight in moves)
    pick = rng.random() * total
    for move, weight in moves:
        pick -= weight
        if pick <= 0:
            return move
    return moves[-1][0]
