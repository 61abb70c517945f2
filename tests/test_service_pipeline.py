"""The request pipeline behind a fake backend (:mod:`repro.service.pipeline`).

``QueryService`` and ``ShardedService`` are the two real backends of
:class:`RequestPipeline`; this suite drives the pipeline through a third, a
stub whose ``_compute`` returns canned answers and counts its calls, whose
epoch is a settable attribute, whose L2 is a dict and whose queue hands the
dispatcher exactly the batch a test built — so the pipeline's own promises
(dedup, L2 promote, file-under-the-looked-up-epoch, per-request failure
isolation) are pinned once, without a matching engine in the way.
"""

from __future__ import annotations

import queue
from concurrent.futures import Future

import pytest

from repro.obs.introspect import ServiceIntrospection
from repro.obs.trace import get_tracer
from repro.patterns import PatternBuilder
from repro.service.pipeline import RequestPipeline, _Request
from repro.service.server import ServiceStats


def _pattern(name, at_least, focus="xo"):
    return (
        PatternBuilder(name)
        .focus(focus, "person")
        .node("z", "person")
        .edge(focus, "z", "follow", at_least=at_least)
        .build()
    )


class _Poisoned(Exception):
    pass


class StubBackend(RequestPipeline):
    SPAN_BATCH = "stub.batch"
    SPAN_WAIT = "stub.wait"
    MISS_ROUTE = "compute"
    FLIGHT_OWNER = "stub"

    def __init__(self, answers):
        super().__init__(
            "stub",
            ServiceStats(),
            cache_capacity=8,
            introspection=ServiceIntrospection(slow_query_threshold=0.0),
            flight_capacity=16,
        )
        self._options_key = ("stub",)
        self.version = 0  # the epoch: tests move it by assignment
        self.answers = answers  # pattern name -> canned answer
        self.poison = set()  # pattern names whose presence fails a round
        self.during_compute = lambda: None
        self.rounds = []  # fingerprints of each _compute call
        self.l2 = {}
        self.l2_lookups = 0
        self.queue = queue.Queue()

    def _epoch(self):
        return self, self.version, self.version

    def _compute(self, unique):
        self.rounds.append([fingerprint for fingerprint, _ in unique])
        self.during_compute()
        if self.poison.intersection(pattern.name for _, pattern in unique):
            raise _Poisoned()
        answers = {fp: frozenset(self.answers[pattern.name]) for fp, pattern in unique}
        return answers, {}, {}

    def _l2_lookup(self, fingerprint, epoch_key):
        self.l2_lookups += 1
        return self.l2.get((fingerprint, epoch_key))

    def _l2_store(self, fingerprint, epoch_key, answer):
        self.l2[(fingerprint, epoch_key)] = answer

    def submit_coalesced(self, patterns):
        """Queue *patterns* so the dispatcher drains them as ONE batch."""
        context = get_tracer().current_context()
        batch = [(_Request(pattern, Future(), context, 0.0), 0.0) for pattern in patterns]
        self.queue.put(batch)
        self._ensure_dispatcher()
        return [request.future for request, _ in batch]

    def _drain(self):
        return self.queue.get()

    def _stop_intake(self):
        self.queue.put(None)

    def _shutdown(self):
        pass

    def routes(self):
        return [event.data["cache_route"] for event in self.flight.events("slow_query")]


@pytest.fixture
def stub():
    with StubBackend({"a": {1, 2}, "a-respelled": {1, 2}, "b": {3}, "bad": set()}) as backend:
        yield backend


def test_compute_runs_once_per_unique_fingerprint_per_batch(stub):
    a, respelled, b = _pattern("a", 2), _pattern("a-respelled", 2, focus="who"), _pattern("b", 3)
    served = stub.evaluate_many([a, respelled, b, a])
    assert [len(round_) for round_ in stub.rounds] == [2]  # one round, two uniques
    assert [r.answer for r in served] == [{1, 2}, {1, 2}, {3}, {1, 2}]
    assert not any(r.cached for r in served)
    assert (stub.stats.computed, stub.stats.deduplicated) == (2, 2)
    again = stub.evaluate_many([b, respelled])
    assert all(r.cached for r in again) and len(stub.rounds) == 1
    assert stub.routes() == ["compute"] * 4 + ["l1"] * 2


def test_l2_hit_is_promoted_to_l1_and_reported_as_route_l2(stub):
    a = _pattern("a", 2)
    fingerprint = stub._canonical(a).fingerprint
    stub.l2[(fingerprint, stub.version)] = frozenset({7})
    first = stub.evaluate(a)
    assert first.cached and first.answer == {7} and stub.rounds == []
    second = stub.evaluate(a)  # promoted: L1 answers, the store is not asked
    assert second.cached and second.answer == {7}
    assert stub.l2_lookups == 1
    assert stub.routes() == ["l2", "l1"]


def test_answer_computed_while_the_epoch_moves_is_filed_under_the_looked_up_epoch(stub):
    a = _pattern("a", 2)
    fingerprint = stub._canonical(a).fingerprint

    def move_epoch():
        stub.version += 1

    stub.during_compute = move_epoch
    assert not stub.evaluate(a).cached  # looked up under 0, epoch now 1
    assert (fingerprint, 0) in stub.l2 and (fingerprint, 1) not in stub.l2
    # ...and the ledger files its observation under that same epoch
    assert stub.introspection.observed(fingerprint)["epoch"] == 0
    stub.during_compute = lambda: None
    assert not stub.evaluate(a).cached  # nothing was filed under epoch 1
    stub.version = 0
    assert stub.evaluate(a).cached  # ...it sits under the epoch it was computed for
    assert len(stub.rounds) == 2


def test_raising_compute_in_a_coalesced_batch_fails_only_the_request_that_raises_on_retry(stub):
    a, bad, b = _pattern("a", 2), _pattern("bad", 4), _pattern("b", 3)
    stub.poison = {"bad"}
    good, doomed, also_good = stub.submit_coalesced([a, bad, b])
    assert good.result(timeout=30).answer == {1, 2}
    assert also_good.result(timeout=30).answer == {3}
    with pytest.raises(_Poisoned):
        doomed.result(timeout=30)
    # the coalesced round failed as a whole, then each request ran alone
    assert [len(round_) for round_ in stub.rounds] == [3, 1, 1, 1]
    # the dispatcher survived: a later batch is served (from L1, no new round)
    (after,) = stub.submit_coalesced([a])
    assert after.result(timeout=30).cached and len(stub.rounds) == 4
