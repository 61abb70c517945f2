"""`repro.obs.metrics` — the always-on core counters.

:class:`CoreCounters` holds the handful of process counters the library's
invariants rest on (``GraphIndex.build`` calls, index refresh/fallback
counts).  They are plain slotted integers — as cheap as the module globals
they replace — behind one object with a :meth:`CoreCounters.reset`, so tests
isolate them per test instead of leaking process-lifetime totals across the
suite.  Every other count lives on the object that does the counting: cache
``stats``, the ``WorkCounter`` on each ``MatchResult``, the executor's pool
counters and the per-fingerprint ledger.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["CoreCounters", "CORE"]


class CoreCounters:
    """Always-on process counters backing the library's invariants.

    These replace the module globals that used to leak across tests
    (``repro.index.snapshot._BUILD_CALLS``,
    ``repro.delta.refresh._REFRESH_CALLS`` / ``_REFRESH_REBUILDS``): same
    cost — a slotted integer attribute — but resettable in one place.  The
    compatibility readers (``build_call_count`` and friends) now read
    through here, so every existing delta-style assertion in the test suite
    works unchanged while the per-test isolation fixture calls
    :meth:`reset` between tests.
    """

    __slots__ = ("index_builds", "index_refreshes", "index_refresh_rebuilds")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.index_builds = 0
        self.index_refreshes = 0
        self.index_refresh_rebuilds = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "index_builds": self.index_builds,
            "index_refreshes": self.index_refreshes,
            "index_refresh_rebuilds": self.index_refresh_rebuilds,
        }

    def __repr__(self) -> str:
        return f"CoreCounters({self.as_dict()})"


CORE = CoreCounters()
