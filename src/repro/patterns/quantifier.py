"""Counting quantifiers on pattern edges.

A quantified graph pattern attaches to every edge ``e`` a predicate ``f(e)``
(Section 2.2 of the paper) of one of the forms

* ``σ(e) ⊙ p``     — a *numeric* aggregate, ``p`` a positive integer,
* ``σ(e) ⊙ p%``    — a *ratio* aggregate, ``p ∈ (0, 100]``,
* ``σ(e) = 0``     — *negation* (the edge is a negated edge),

where ``⊙ ∈ {≥, =, >}`` (the paper focuses on ``≥`` and ``=``; ``>`` is the
straightforward extension ``σ(e) ≥ p+1`` mentioned in Section 4.1).  The three
logical quantifiers are special cases:

* existential quantification  — ``σ(e) ≥ 1`` (the default on unannotated edges),
* universal quantification    — ``σ(e) = 100%``,
* negation                    — ``σ(e) = 0``.

:class:`CountingQuantifier` is an immutable value object: the matching engines
evaluate it against a (count, total) pair, where *count* is
``|Me(h0(xo), h0(u), Q)|`` and *total* is ``|Me(h0(u))|`` in the paper's
notation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Union

from repro.utils.errors import QuantifierError

__all__ = ["CountingQuantifier", "Comparison"]

Comparison = str  # one of ">=", "=", ">"

_VALID_OPS = (">=", "=", ">")


@dataclass(frozen=True)
class CountingQuantifier:
    """An immutable counting quantifier ``σ(e) ⊙ value`` (optionally a ratio).

    Attributes
    ----------
    op:
        The comparison ``⊙``: one of ``">="``, ``"="`` or ``">"``.
    value:
        The threshold ``p``.  For ratio quantifiers it is a percentage in
        ``(0, 100]``; for numeric quantifiers a non-negative integer (``0`` is
        only legal together with ``op="="``, which encodes negation).
    is_ratio:
        Whether the threshold is a percentage of ``|Me(v)|``.
    """

    op: Comparison = ">="
    value: Union[int, float] = 1
    is_ratio: bool = False

    def __post_init__(self) -> None:
        if self.op not in _VALID_OPS:
            raise QuantifierError(f"unsupported comparison operator {self.op!r}")
        if self.is_ratio:
            if not 0.0 < float(self.value) <= 100.0:
                raise QuantifierError(
                    f"ratio threshold must be in (0, 100], got {self.value!r}"
                )
        else:
            if not float(self.value).is_integer():
                raise QuantifierError(
                    f"numeric threshold must be an integer, got {self.value!r}"
                )
            if self.value < 0:
                raise QuantifierError("numeric threshold must be non-negative")
            if self.value == 0 and self.op != "=":
                raise QuantifierError(
                    "a zero threshold is only meaningful as '= 0' (negation)"
                )

    # ------------------------------------------------------------ constructors

    @classmethod
    def existential(cls) -> "CountingQuantifier":
        """``σ(e) ≥ 1`` — the implicit quantifier of conventional pattern edges."""
        return cls(">=", 1, False)

    @classmethod
    def universal(cls) -> "CountingQuantifier":
        """``σ(e) = 100%`` — all children via this edge label must match."""
        return cls("=", 100.0, True)

    @classmethod
    def negation(cls) -> "CountingQuantifier":
        """``σ(e) = 0`` — no child via this edge label may match (negated edge)."""
        return cls("=", 0, False)

    @classmethod
    def at_least(cls, count: int) -> "CountingQuantifier":
        """``σ(e) ≥ count`` for a positive integer *count*."""
        return cls(">=", int(count), False)

    @classmethod
    def exactly(cls, count: int) -> "CountingQuantifier":
        """``σ(e) = count`` for a non-negative integer *count*."""
        return cls("=", int(count), False)

    @classmethod
    def more_than(cls, count: int) -> "CountingQuantifier":
        """``σ(e) > count`` for a non-negative integer *count*."""
        return cls(">", int(count), False)

    @classmethod
    def ratio_at_least(cls, percent: float) -> "CountingQuantifier":
        """``σ(e) ≥ percent %`` for a percentage in ``(0, 100]``."""
        return cls(">=", float(percent), True)

    @classmethod
    def ratio_exactly(cls, percent: float) -> "CountingQuantifier":
        """``σ(e) = percent %`` for a percentage in ``(0, 100]``."""
        return cls("=", float(percent), True)

    # ------------------------------------------------------------- predicates

    @property
    def is_negation(self) -> bool:
        """True for ``σ(e) = 0`` (a negated edge)."""
        return not self.is_ratio and self.op == "=" and self.value == 0

    @property
    def is_existential(self) -> bool:
        """True for the default quantifier ``σ(e) ≥ 1``."""
        return not self.is_ratio and self.op == ">=" and self.value == 1

    @property
    def is_universal(self) -> bool:
        """True for ``σ(e) = 100%``."""
        return self.is_ratio and self.op == "=" and float(self.value) == 100.0

    @property
    def is_positive(self) -> bool:
        """True unless the quantifier is the negation ``σ(e) = 0``."""
        return not self.is_negation

    # -------------------------------------------------------------- evaluation

    def numeric_threshold(self, total: int) -> int:
        """The equivalent numeric threshold given ``|Me(v)| = total``.

        For numeric quantifiers this is simply ``p``.  For ratio quantifiers
        the paper (Section 4.1, "Ratio aggregates") converts ``σ(e) ⊙ p%`` at a
        candidate ``v`` to the numeric ``σ(e) ⊙ ⌊|Me(v)| · p%⌋`` — with the one
        refinement that for ``≥`` we must round *up*, since a count strictly
        between ``⌊total·p%⌋`` and ``total·p%`` does not actually reach the
        ratio.  (For ``=`` the universal case ``p = 100%`` gives exactly
        ``total``.)
        """
        if not self.is_ratio:
            return int(self.value)
        fraction = float(self.value) / 100.0
        exact = fraction * total
        if self.op == ">=":
            return int(math.ceil(exact - 1e-9))
        if self.op == ">":
            return int(math.floor(exact + 1e-9))
        # op == "=": only meaningful when the product is integral (e.g. 100%).
        return int(round(exact))

    def check(self, count: int, total: int) -> bool:
        """Evaluate the quantifier for *count* matching children out of *total*.

        Ratio quantifiers with ``total == 0`` are unsatisfiable (there are no
        children to take a ratio over), except that a count of zero trivially
        satisfies nothing but ``= 0`` — which is a numeric quantifier anyway.
        """
        if count < 0 or total < 0:
            raise QuantifierError("count and total must be non-negative")
        return self.checker()(count, total)

    def checker(self) -> Callable[[int, int], bool]:
        """:meth:`check` without its argument validation, as one prebound call.

        The verification loops evaluate one quantifier per edge per witness,
        on counts and totals that are set sizes (never negative); the closure
        binds ``op``/``value``/``is_ratio`` once instead of dispatching on
        them per call.  Built on first use and kept on the instance, which is
        immutable, so every caller shares one closure.
        """
        check = self.__dict__.get("_checker")
        if check is None:
            check = self._lower()
            object.__setattr__(self, "_checker", check)
        return check

    def _lower(self) -> Callable[[int, int], bool]:
        if self.is_ratio:
            value = float(self.value)
            if self.op == ">=":
                floor = value - 1e-9
                return lambda count, total: total > 0 and 100.0 * count / total >= floor
            if self.op == ">":
                ceiling = value + 1e-9
                return lambda count, total: total > 0 and 100.0 * count / total > ceiling
            return lambda count, total: total > 0 and abs(100.0 * count / total - value) <= 1e-9
        threshold = int(self.value)
        if self.op == ">=":
            return lambda count, total: count >= threshold
        if self.op == ">":
            return lambda count, total: count > threshold
        return lambda count, total: count == threshold

    def __getstate__(self) -> Dict[str, object]:
        # The cached checker is a closure: pickle and copy the fields only.
        return {"op": self.op, "value": self.value, "is_ratio": self.is_ratio}

    def may_still_hold(self, upper_bound: int, total: int) -> bool:
        """Whether the quantifier can still be satisfied given an upper bound.

        Used by the pruning rules of DMatch: ``upper_bound`` is ``U(v, e)``,
        an over-estimate of ``|Me(vx, v, Q)|``.  When even the upper bound
        fails a ``≥``/``>`` threshold, the candidate can be discarded without
        further verification.  Equality and negation quantifiers can always
        still hold (the final count may drop to the required value), so they
        are never pruned by this test.
        """
        if self.is_negation:
            return True
        # For ``=`` the count can only decrease as verification proceeds, so
        # an upper bound below the target is conclusive failure, as for ``≥``.
        return upper_bound >= self.least_bound(total)

    def least_bound(self, total: int) -> int:
        """The smallest upper bound for which :meth:`may_still_hold` holds.

        Depends on *total* only for ratio quantifiers, so a filter sweeping
        many candidates computes it once per distinct total.
        """
        threshold = self.numeric_threshold(total)
        return threshold + 1 if self.op == ">" else threshold

    # --------------------------------------------------------------- utility

    def positified(self) -> "CountingQuantifier":
        """The quantifier of the positified edge ``e`` in ``Q⁺ᵉ`` (σ(e) ≥ 1)."""
        if not self.is_negation:
            raise QuantifierError("only negated edges can be positified")
        return CountingQuantifier.existential()

    def describe(self) -> str:
        """A short human-readable rendering used by ``repr`` and reports."""
        if self.is_negation:
            return "= 0"
        suffix = "%" if self.is_ratio else ""
        value = self.value
        if not self.is_ratio:
            value = int(value)
        elif float(value).is_integer():
            value = int(value)
        return f"{self.op} {value}{suffix}"

    def __str__(self) -> str:
        return self.describe()
