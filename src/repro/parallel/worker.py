"""Per-fragment matching work (the paper's ``mQMatch``).

A worker receives one fragment of a d-hop preserving partition and the QGP,
and evaluates the pattern *locally*: because the fragment contains the full
d-hop neighbourhood of every node it owns, and the pattern radius is at most
d, a focus candidate owned by the fragment matches in the fragment if and only
if it matches in the whole graph (paper Lemma 9(1)).  Restricting the focus
candidates to the owned nodes also guarantees that no answer is reported by
two workers, so the coordinator can simply union the partial answers.

``mqmatch_fragment`` additionally supports splitting the owned focus
candidates into ``threads`` chunks that are evaluated independently — the
intra-fragment parallelism of the paper's mQMatch.  With the default
``thread_pool=None`` the chunks run sequentially but are still accounted
separately, which is what the simulated cluster uses to model intra-fragment
speedups deterministically.
"""

from __future__ import annotations

import inspect
from concurrent.futures import Executor
from functools import lru_cache
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.graph.digraph import PropertyGraph
from repro.matching.qmatch import QMatch
from repro.matching.result import FragmentResult, MatchResult
from repro.obs.trace import span
from repro.parallel.partition import Fragment, HopPreservingPartition
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.utils.counters import WorkCounter
from repro.utils.timing import Timer

__all__ = [
    "match_fragment",
    "mqmatch_fragment",
    "FragmentTask",
    "FragmentPayload",
    "engine_to_spec",
    "engine_from_spec",
    "options_key_from_spec",
]

NodeId = Hashable

# A picklable engine description: ("qmatch", use_incremental, options, name)
# for the standard engine, ("opaque", engine) as the generic fallback.
EngineSpec = Tuple


def engine_to_spec(engine: object) -> EngineSpec:
    """A slim picklable spec for *engine*, reconstructable worker-side.

    The standard :class:`~repro.matching.qmatch.QMatch` is fully described by
    its construction options, so only those cross the process boundary (the
    ``("qmatch", ...)`` spec); any other engine object falls back to being
    pickled whole (``("opaque", engine)``).
    """
    if type(engine) is QMatch:
        return ("qmatch", engine.use_incremental, engine.options, engine.name)
    return ("opaque", engine)


def engine_from_spec(spec: EngineSpec) -> object:
    """Rebuild the engine described by :func:`engine_to_spec`."""
    if spec[0] == "qmatch":
        _, use_incremental, options, name = spec
        return QMatch(use_incremental=use_incremental, options=options, name=name)
    return spec[1]


def options_key_from_spec(spec: EngineSpec) -> Tuple:
    """The result-cache engine-options key for an engine spec.

    The single source of truth for what "same engine options" means: QMatch
    engines key on their evaluation options (the display name is cosmetic),
    opaque engines on their type.  The service's caches key answers with
    this, so an answer can never be reused across an options change.
    """
    if spec[0] == "qmatch":
        return ("qmatch", spec[1], spec[2])
    engine = spec[1]
    return ("opaque", type(engine).__module__, type(engine).__qualname__)


def options_key_text(options_key: Tuple) -> str:
    """A stable text encoding of an engine-options key for shared stores.

    In-process caches key on the tuple itself; the cross-process shared
    result cache (:mod:`repro.serve.shared_cache`) needs a *textual* key two
    processes agree on.  ``repr`` of the key is deterministic — it is built
    from literals, frozen dataclasses (``DMatchOptions``) and qualified type
    names, none of which embed object identities — so it is that encoding.
    """
    return repr(options_key)


class FragmentTask:
    """A picklable unit of work: evaluate *pattern* on one fragment graph.

    Process-pool executors need the task to be self-contained, so the fragment
    graph is materialised before the task is shipped.  Pickling replaces the
    engine instance with its :func:`engine_to_spec` description — workers
    reconstruct the engine from options instead of unpickling engine state.

    ``owned_nodes=None`` is the identity fragment's "owns everything": the
    pattern is evaluated on ``fragment_graph`` with no focus restriction and
    the answer is returned unfiltered.
    """

    def __init__(
        self,
        fragment_id: int,
        fragment_graph: PropertyGraph,
        owned_nodes: Optional[Set[NodeId]],
        pattern: QuantifiedGraphPattern,
        engine: QMatch,
    ) -> None:
        self.fragment_id = fragment_id
        self.fragment_graph = fragment_graph
        self.owned_nodes = owned_nodes
        self.pattern = pattern
        self.engine = engine

    def run(self) -> FragmentResult:
        return match_fragment(
            self.pattern,
            self.fragment_graph,
            self.owned_nodes,
            self.engine,
            self.fragment_id,
        )

    def __getstate__(self) -> Dict[str, object]:
        return {
            "fragment_id": self.fragment_id,
            "fragment_graph": self.fragment_graph,
            "owned_nodes": self.owned_nodes,
            "pattern": self.pattern,
            "engine_spec": engine_to_spec(self.engine),
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.engine = engine_from_spec(state.pop("engine_spec"))
        self.__dict__.update(state)


class FragmentPayload:
    """The flat-buffer wire form of one fragment: snapshot bytes + ownership.

    This is what actually crosses a process boundary.  Instead of pickling the
    fragment's nested-dict :class:`PropertyGraph` (and recompiling a
    :class:`~repro.index.GraphIndex` inside every worker), the fragment is
    compiled once on the coordinator and shipped as the binary snapshot of
    :mod:`repro.index.serialize`; :meth:`materialise` rebuilds both the graph
    *and* its fresh cached index from those buffers in one decode.

    ``cache_key`` — ``(fragment_id, snapshot version, payload checksum)`` —
    identifies the fragment *content*, so worker-side caches keyed on it ship
    and decode each fragment exactly once per worker and a re-partitioned (or
    mutated) fragment can never be answered from a stale cache entry.
    """

    __slots__ = ("fragment_id", "owned_nodes", "snapshot_bytes", "attrs", "cache_key")

    def __init__(
        self,
        fragment_id: int,
        owned_nodes: Optional[Set[NodeId]],
        snapshot_bytes: bytes,
        attrs: Dict[NodeId, Dict[str, object]],
        cache_key: Tuple[int, int, int],
    ) -> None:
        self.fragment_id = fragment_id
        self.owned_nodes = owned_nodes
        self.snapshot_bytes = snapshot_bytes
        self.attrs = attrs
        self.cache_key = cache_key

    @classmethod
    def from_fragment(
        cls,
        fragment_id: int,
        fragment_graph: PropertyGraph,
        owned_nodes: Optional[Set[NodeId]],
    ) -> "FragmentPayload":
        """Compile (or reuse) the fragment's snapshot and freeze it to bytes.

        Node attributes ride along separately — the snapshot only mirrors
        graph structure — so the worker-side graph is attribute-identical to
        the coordinator's fragment.  The snapshot carries a full compiled-rows
        manifest (``include_compiled_rows=True``): decoding it materialises
        every per-label enumeration row store eagerly, so workers never pay a
        lazy row-store derivation inside their first query.
        """
        from repro.index.serialize import snapshot_checksum, to_bytes
        from repro.index.snapshot import GraphIndex

        index = GraphIndex.for_graph(fragment_graph)
        snapshot_bytes = to_bytes(index, include_compiled_rows=True)
        attrs = {}
        for node in fragment_graph.nodes():
            node_attrs = fragment_graph.node_attrs(node)
            if node_attrs:
                attrs[node] = dict(node_attrs)
        cache_key = (fragment_id, index.version, snapshot_checksum(snapshot_bytes))
        return cls(
            fragment_id=fragment_id,
            owned_nodes=None if owned_nodes is None else set(owned_nodes),
            snapshot_bytes=snapshot_bytes,
            attrs=attrs,
            cache_key=cache_key,
        )

    def materialise(self) -> PropertyGraph:
        """Decode the snapshot into a graph with its compiled index attached.

        ``GraphIndex.for_graph`` on the returned graph is a cache hit — the
        decoded index carries the same version stamp the rebuilt graph starts
        from — so matching on it never triggers ``GraphIndex.build``.
        """
        from repro.index.serialize import from_bytes

        index = from_bytes(self.snapshot_bytes)
        graph = index.graph
        for node, node_attrs in self.attrs.items():
            for key, value in node_attrs.items():
                graph.set_node_attr(node, key, value)
        return graph

    def run(self, pattern: QuantifiedGraphPattern, engine: Optional[QMatch] = None) -> FragmentResult:
        """Materialise and evaluate — the single-shot (uncached) path."""
        return match_fragment(
            pattern, self.materialise(), self.owned_nodes, engine, self.fragment_id
        )


def _restrict_answer_to_owned(
    result: MatchResult, owned_nodes: Optional[Set[NodeId]]
) -> Set[NodeId]:
    if owned_nodes is None:
        return result.answer
    return {node for node in result.answer if node in owned_nodes}


@lru_cache(maxsize=None)
def _takes_focus_restriction(engine_type: type) -> bool:
    """Whether ``engine_type.evaluate`` accepts ``focus_restriction``.

    Decided once per engine type from the signature, so an engine without
    per-candidate decomposition (e.g. a bare Enum baseline) is *called* the
    way it can be called — never probed with a keyword it rejects, which
    would make any ``TypeError`` raised inside an engine look like a
    capability answer.
    """
    parameters = inspect.signature(engine_type.evaluate).parameters
    return "focus_restriction" in parameters or any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def match_fragment(
    pattern: QuantifiedGraphPattern,
    fragment_graph: PropertyGraph,
    owned_nodes: Optional[Set[NodeId]],
    engine: Optional[QMatch] = None,
    fragment_id: int = 0,
) -> FragmentResult:
    """Evaluate *pattern* on one fragment, verifying only owned focus candidates.

    Restricting the verified focus candidates to the fragment's owned nodes is
    what makes the union of per-fragment answers exact *and* keeps the total
    work across fragments equal to the sequential work: every candidate is
    verified by exactly one worker (its owner), inside the fragment that holds
    its whole d-hop neighbourhood.  ``owned_nodes=None`` (the identity
    fragment) owns the whole graph: no restriction, answer unfiltered.

    An engine whose ``evaluate`` takes no ``focus_restriction`` evaluates the
    whole fragment and is filtered to the owned nodes afterwards; any
    exception an engine raises propagates.
    """
    engine = engine or QMatch()
    owned = fragment_graph.num_nodes if owned_nodes is None else len(owned_nodes)
    with span("worker.fragment", fragment=fragment_id, owned=owned), Timer() as timer:
        if _takes_focus_restriction(type(engine)):
            result = engine.evaluate(pattern, fragment_graph, focus_restriction=owned_nodes)
        else:
            result = engine.evaluate(pattern, fragment_graph)
        answer = _restrict_answer_to_owned(result, owned_nodes)
    fragment_result = FragmentResult(
        fragment_id=fragment_id,
        answer=answer,
        counter=result.counter,
        elapsed=timer.elapsed,
    )
    return fragment_result


def _chunk(sequence: Sequence[NodeId], chunks: int) -> List[List[NodeId]]:
    """Split *sequence* into at most *chunks* contiguous, near-equal chunks."""
    chunks = max(1, chunks)
    items = list(sequence)
    if not items:
        return [[]]
    size = (len(items) + chunks - 1) // chunks
    return [items[i : i + size] for i in range(0, len(items), size)]


def mqmatch_fragment(
    pattern: QuantifiedGraphPattern,
    fragment_graph: PropertyGraph,
    owned_nodes: Optional[Set[NodeId]],
    engine: Optional[QMatch] = None,
    fragment_id: int = 0,
    threads: int = 1,
    thread_pool: Optional[Executor] = None,
) -> FragmentResult:
    """mQMatch: intra-fragment parallel evaluation over owned focus candidates.

    The owned focus candidates are split into *threads* chunks; each chunk is
    evaluated by a full QMatch run restricted (via the candidate index) to its
    chunk of candidates, and the partial answers are unioned.  When a
    ``thread_pool`` is supplied the chunks run concurrently; otherwise they run
    sequentially (useful for deterministic work accounting).
    """
    engine = engine or QMatch()
    if threads <= 1:
        return match_fragment(pattern, fragment_graph, owned_nodes, engine, fragment_id)

    focus_label = pattern.node_label(pattern.focus)
    if owned_nodes is None:
        owned_candidates = fragment_graph.nodes_with_label(focus_label)
    else:
        owned_candidates = [
            node for node in owned_nodes
            if fragment_graph.has_node(node) and fragment_graph.node_label(node) == focus_label
        ]
    chunks = [chunk for chunk in _chunk(sorted(owned_candidates, key=str), threads) if chunk]
    if not chunks:
        return FragmentResult(fragment_id=fragment_id, answer=set(), counter=WorkCounter())

    def run_chunk(chunk: List[NodeId]) -> MatchResult:
        # Each chunk restricts the verified focus candidates to its share of
        # the owned nodes, so the chunks partition the fragment's verification
        # work without overlapping.
        return engine.evaluate(pattern, fragment_graph, focus_restriction=set(chunk))

    counter = WorkCounter()
    answer: Set[NodeId] = set()
    with Timer() as timer:
        if thread_pool is not None:
            results = list(thread_pool.map(run_chunk, chunks))
        else:
            results = [run_chunk(chunk) for chunk in chunks]
        for result in results:
            answer |= _restrict_answer_to_owned(result, owned_nodes)
            counter.merge(result.counter)
    return FragmentResult(
        fragment_id=fragment_id, answer=answer, counter=counter, elapsed=timer.elapsed
    )
