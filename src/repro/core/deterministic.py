"""Deterministic baseline strategies: NEV, TOI, DET and b-DET.

These are the strategies reviewed in Section 2.2 and the two deterministic
vertices (Section 4.4) of the constrained ski-rental LP:

* **NEV** — never turn the engine off; the behaviour of drivers reluctant
  to shut down (unbounded competitive ratio for long stops).
* **TOI** — turn off immediately; the naive stop-start-system default
  (fixed cost ``B`` per stop).
* **DET** — idle until exactly ``B`` then shut off; the classic 2-competitive
  deterministic algorithm of Karlin et al. (Eq. 6).
* **b-DET** — idle until ``b < B``; the new vertex introduced by the
  paper.  Its optimal ``b* = sqrt(mu_B_minus * B / q_B_plus)`` balances the
  restart overhead on short stops against the idle waste on long ones
  (Eqs. 34-35), and is admissible iff Eq. (36) holds.
"""

from __future__ import annotations

import math

from ..errors import InvalidParameterError
from .stats import StopStatistics
from .strategy import DeterministicThresholdStrategy

__all__ = [
    "NeverOff",
    "TurnOffImmediately",
    "Deterministic",
    "BDet",
    "optimal_b",
    "b_det_condition_holds",
    "b_det_worst_case_cost",
]


class NeverOff(DeterministicThresholdStrategy):
    """NEV: keep idling for the whole stop, whatever its length.

    Modelled as an infinite threshold; cost is always ``y`` and the
    per-stop competitive ratio grows without bound as ``y → ∞``.
    """

    name = "NEV"

    def __init__(self, break_even: float) -> None:
        super().__init__(break_even, threshold=math.inf)


class TurnOffImmediately(DeterministicThresholdStrategy):
    """TOI: shut the engine off the moment the vehicle stops.

    The paper models TOI as an atom at an arbitrarily small ``ε``; with a
    threshold of exactly 0 the cost is ``B`` for every stop, matching the
    paper's ``E[cost_TOI] = B``.
    """

    name = "TOI"

    def __init__(self, break_even: float) -> None:
        super().__init__(break_even, threshold=0.0)


class Deterministic(DeterministicThresholdStrategy):
    """DET: the classic break-even strategy ``x = B`` (Karlin et al. 1988).

    2-competitive per stop (Eq. 6) and optimal among deterministic
    strategies for the worst-case per-stop ratio.
    """

    name = "DET"

    def __init__(self, break_even: float) -> None:
        super().__init__(break_even, threshold=break_even)


def optimal_b(stats: StopStatistics) -> float:
    """The cost-minimizing b-DET threshold ``b* = sqrt(mu⁻ B / q⁺)``.

    Derived by minimizing Eq. (34) over ``b``.  Undefined when
    ``q_B_plus == 0`` (no long stops — the expression diverges and DET is
    optimal anyway); we raise in that case rather than return infinity.
    """
    if stats.q_b_plus <= 0.0:
        raise InvalidParameterError(
            "optimal_b is undefined for q_B_plus == 0 (no long stops); "
            "DET is the optimal strategy there"
        )
    ratio = stats.mu_b_minus * stats.break_even / stats.q_b_plus
    if math.isfinite(ratio):
        return math.sqrt(ratio)
    # A subnormal q⁺ overflows the division even though b* itself is
    # representable; sqrt each factor separately in that corner only, so
    # normal inputs keep their exact historical value.
    return math.sqrt(stats.mu_b_minus * stats.break_even) / math.sqrt(stats.q_b_plus)


def b_det_condition_holds(stats: StopStatistics) -> bool:
    """Admissibility condition (36): ``mu⁻/B < (1 - q⁺)² / q⁺``.

    Equivalent to ``b* > mu⁻ / (1 - q⁺)``: the optimal threshold must sit
    above the conditional short-stop mean, otherwise the adversary can make
    *every* stop outlast ``b`` and b-DET degenerates to a cost of ``b + B``
    (strictly worse than TOI's ``B``).
    """
    if stats.q_b_plus <= 0.0:
        return False
    if stats.q_b_plus >= 1.0:
        # (1 - q)^2 / q = 0 and mu_B_minus must be 0 by feasibility; the
        # strict inequality fails, so b-DET is inadmissible.
        return False
    complement = 1.0 - stats.q_b_plus
    return stats.normalized_mu < complement * complement / stats.q_b_plus


def b_det_worst_case_cost(stats: StopStatistics) -> float:
    """Worst-case expected cost of b-DET at the optimal ``b*`` (Eq. 35):
    ``(sqrt(mu⁻) + sqrt(q⁺ B))²``.

    Only meaningful when :func:`b_det_condition_holds`; callers in the
    vertex-selection logic treat the inadmissible case as ``+inf``
    (b-DET is then dominated by TOI and never selected).
    """
    if not b_det_condition_holds(stats):
        return math.inf
    # Squared by a multiply, not ``** 2``: libm's pow is not correctly
    # rounded for every input, and the batched select_vertices kernel
    # must reproduce this float exactly.
    root = math.sqrt(stats.mu_b_minus) + math.sqrt(stats.q_b_plus * stats.break_even)
    return root * root


class BDet(DeterministicThresholdStrategy):
    """b-DET: idle until ``b`` (``0 < b < B``) then shut off.

    Use :meth:`from_statistics` to instantiate it at the paper's optimal
    threshold ``b*`` for a given ``(mu_B_minus, q_B_plus)`` pair.
    """

    name = "b-DET"

    def __init__(self, break_even: float, b: float) -> None:
        if not 0.0 < float(b) < float(break_even):
            raise InvalidParameterError(
                f"b-DET threshold must satisfy 0 < b < B; got b={b!r}, B={break_even!r}"
            )
        super().__init__(break_even, threshold=float(b))

    @classmethod
    def from_statistics(cls, stats: StopStatistics) -> "BDet":
        """b-DET at the optimal threshold ``b*`` (Eqs. 34-36).

        Raises
        ------
        InvalidParameterError
            If condition (36) fails (b-DET is inadmissible) or ``b*`` falls
            outside ``(0, B)``.
        """
        if not b_det_condition_holds(stats):
            raise InvalidParameterError(
                "b-DET is inadmissible for these statistics: condition (36) "
                f"mu_B_minus/B < (1-q_B_plus)^2/q_B_plus fails for {stats!r}"
            )
        return cls(stats.break_even, optimal_b(stats))
