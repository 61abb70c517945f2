"""The canonical shape EXPLAIN reports on.

:func:`compile_plan` turns a pattern (via its canonical form) into a
:class:`CompiledPlan`: node labels by canonical position, the focus
position and the canonical edges.
No query runs through a plan; ``explain()`` compiles one per call.
"""

from repro.plan.compile import CompiledPlan, compile_plan, plan_compile_count

__all__ = ["CompiledPlan", "compile_plan", "plan_compile_count"]
