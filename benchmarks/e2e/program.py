"""The seam between the benchmark's plain-data inputs and the program under test.

Importing this module puts ``src/`` (two levels up) on ``sys.path`` - the
benchmark runs the program from source, nothing is installed - and fails fast
when the source is not there.  Everything else here turns generated inputs
into the program's types, or asks the reference matcher what an answer should
have been.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parents[1] / "src"
if not (SRC_DIR / "repro" / "__init__.py").is_file():
    raise SystemExit(f"benchmarks/e2e: no program source at {SRC_DIR}/repro - run from a full checkout")
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))



def scratch_dir() -> "tempfile.TemporaryDirectory[str]":
    """A scratch directory of the caller's own inside the benchmark's directory
    (the benchmark writes nowhere else); gone when the ``with`` block ends."""
    return tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR)


from repro import EnumMatcher, GraphDelta, PropertyGraph, apply_delta  # noqa: E402
from repro.patterns.qgp import QuantifiedGraphPattern  # noqa: E402
from repro.patterns.quantifier import CountingQuantifier  # noqa: E402


def materialise_graph(nodes, edges, name: str = "social") -> PropertyGraph:
    graph = PropertyGraph(name)
    for node, label in nodes:
        graph.add_node(node, label)
    for source, target, label in edges:
        graph.add_edge(source, target, label)
    return graph


def materialise_pattern(spec) -> QuantifiedGraphPattern:
    pattern = QuantifiedGraphPattern(name=spec["name"])
    for node, label in spec["nodes"]:
        pattern.add_node(node, label)
    for source, target, label, (op, value, is_ratio) in spec["edges"]:
        quantifier = CountingQuantifier(op, value if is_ratio else int(value), is_ratio)
        pattern.add_edge(source, target, label, quantifier)
    pattern.set_focus(spec["focus"])
    return pattern


def materialise_delta(batch) -> GraphDelta:
    return GraphDelta.build(
        edge_inserts=[tuple(edge) for edge in batch["inserts"]],
        edge_deletes=[tuple(edge) for edge in batch["deletes"]],
    )


# -------------------------------------------------------------------- oracle

OracleItem = Tuple[int, int]           # (epoch = batches applied so far, pattern index)


def _oracle_chunk(nodes, edges, batches, specs, items: Sequence[OracleItem]) -> List[List[str]]:
    """Reference answers for *items* (sorted by epoch) on a cold graph copy."""
    graph = materialise_graph(nodes, edges, name="oracle")
    matcher = EnumMatcher()
    patterns: Dict[int, QuantifiedGraphPattern] = {}
    applied = 0
    answers: List[List[str]] = []
    for epoch, index in items:
        while applied < epoch:
            apply_delta(graph, materialise_delta(batches[applied]))
            applied += 1
        if index not in patterns:
            patterns[index] = materialise_pattern(specs[index])
        answers.append(sorted(matcher.evaluate_answer(patterns[index], graph)))
    return answers


def oracle_answers(nodes, edges, batches, specs, items: Sequence[OracleItem]) -> Dict[OracleItem, frozenset]:
    """What ``EnumMatcher`` answers for each ``(epoch, pattern)`` of *items*.

    Epoch e is the graph after the first e delta batches.  The work is dealt
    round-robin over one fresh interpreter per core: the oracle runs after the
    timed window, so using every core only shortens the run, and each process
    replays the batches on its own cold copy.  The interpreters are plain
    ``subprocess`` children running this file, each waited for before this
    returns - a ``multiprocessing`` spawn pool would leave its resource
    tracker behind, a process nobody waits for and that outlives the run.
    """
    ordered = sorted(set(items))
    if len(ordered) < 32:              # not worth starting processes for
        answers = _oracle_chunk(nodes, edges, batches, specs, ordered)
        return {item: frozenset(answer) for item, answer in zip(ordered, answers)}
    workers = min(os.cpu_count() or 1, len(ordered))
    chunks = [ordered[start::workers] for start in range(workers)]    # each still sorted by epoch
    used = {index for _, index in ordered}
    sparse_specs = {index: specs[index] for index in used}    # ship only the patterns asked about
    shared = (nodes, edges, batches[: ordered[-1][0]], sparse_specs)

    def ask(chunk: Sequence[OracleItem]) -> List[List[str]]:
        done = subprocess.run(                     # waits for the child; kills and waits if interrupted
            [sys.executable, str(Path(__file__).resolve())],
            input=pickle.dumps(shared + (chunk,)), stdout=subprocess.PIPE, check=True,
        )
        return pickle.loads(done.stdout)

    result: Dict[OracleItem, frozenset] = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for chunk, answers in zip(chunks, pool.map(ask, chunks)):
            for item, answer in zip(chunk, answers):
                result[item] = frozenset(answer)
    return result


if __name__ == "__main__":             # one oracle child: pickled arguments in, pickled answers out
    pickle.dump(_oracle_chunk(*pickle.load(sys.stdin.buffer)), sys.stdout.buffer)
