"""Matching engines: generic search, the Enum baseline, QMatch and IncQMatch."""

from repro.matching.candidates import CandidateIndex, build_candidate_index
from repro.matching.dmatch import DMatchOptions, DMatchOutcome, dmatch
from repro.matching.enumerate import EnumMatcher, evaluate_positive_by_enumeration
from repro.matching.generic import (
    MatchContext,
    count_isomorphisms,
    exists_isomorphism,
    find_isomorphisms,
    label_candidates,
)
from repro.matching.incremental import inc_qmatch
from repro.matching.pruning import candidate_potential, potential_ordering
from repro.matching.qmatch import QMatch, qmatch_engine, qmatch_n_engine
from repro.matching.result import (
    FragmentResult,
    IncrementalStats,
    MatchResult,
    ParallelMatchResult,
)

__all__ = [
    "find_isomorphisms",
    "exists_isomorphism",
    "count_isomorphisms",
    "label_candidates",
    "MatchContext",
    "EnumMatcher",
    "evaluate_positive_by_enumeration",
    "CandidateIndex",
    "build_candidate_index",
    "candidate_potential",
    "potential_ordering",
    "DMatchOptions",
    "DMatchOutcome",
    "dmatch",
    "inc_qmatch",
    "QMatch",
    "qmatch_engine",
    "qmatch_n_engine",
    "MatchResult",
    "IncrementalStats",
    "FragmentResult",
    "ParallelMatchResult",
]
