"""Tag arithmetic for start-time fair queuing.

SFQ tags are sums of ``length / weight`` terms.  Two arithmetic modes are
provided:

* **exact integer** (default): an :class:`~repro.core.sfq.SfqQueue`
  stores every tag of one queue — start and finish tags, virtual time,
  the maximum finish tag, the heap keys — as a plain ``int`` numerator
  over a per-queue denominator ``D``.  Weights are positive integers, so
  ``D`` starts at 1 and only ever grows to ``lcm(D, w)`` when a charge
  meets a weight ``w`` that does not divide it; the finish rule is then
  ``F = S + length * (D // w)``.  Growing ``D`` to ``D'`` multiplies
  every stored numerator of the queue by ``D' / D``, which preserves all
  comparisons.  ``D`` never shrinks.  The queue's public accessors return
  ``Fraction(n, D)``, so the fairness theorem of the paper still holds
  *exactly* in tests, with no epsilon, and no ``Fraction`` object is
  built on the hot path.
* **float**: tags are machine floats.  Faster per operation, and what a
  kernel would use; the drift it introduces is quantified by the EXP-AB4
  ablation.

:class:`TagMath` names the mode.  Its :meth:`~TagMath.ratio` and
:meth:`~TagMath.advance` compute in the public representation
(``Fraction`` or float) — the reference arithmetic the sanitizer checks
a queue's public tags against; :meth:`~TagMath.zero` is the stored zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Tag = Union[Fraction, float]


class TagMath:
    """Strategy object naming a queue's tag arithmetic.

    Parameters
    ----------
    exact:
        When True, queues keep exact integer tags (public values are
        :class:`~fractions.Fraction`); otherwise floats.
    """

    __slots__ = ("exact",)

    def __init__(self, exact: bool = True) -> None:
        self.exact = exact

    def zero(self) -> Tag:
        """The stored initial value of every tag and of virtual time."""
        return 0 if self.exact else 0.0

    def ratio(self, length: int, weight: int) -> Tag:
        """``length / weight`` in this mode's public representation."""
        if weight <= 0:
            raise ValueError("weight must be positive, got %r" % (weight,))
        if self.exact:
            return Fraction(length, weight)
        return length / weight

    def advance(self, tag: Tag, length: int, weight: int) -> Tag:
        """Return ``tag + length / weight`` — the finish-tag update rule."""
        return tag + self.ratio(length, weight)

    def __repr__(self) -> str:
        return "TagMath(exact=%r)" % self.exact


#: Shared default instance (exact arithmetic).
EXACT = TagMath(exact=True)

#: Shared float-mode instance.
FLOAT = TagMath(exact=False)
