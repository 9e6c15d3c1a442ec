"""Stop-start controllers: online and clairvoyant offline.

A controller answers one question per stop: *how long do we idle before
shutting the engine off?*  The online controller draws that threshold
from a :class:`~repro.core.strategy.Strategy` (fresh draw per stop, as
the paper's randomized algorithms require); the offline controller peeks
at the true stop length and plays the Eq. (2) optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.costs import validate_break_even, validate_stop_length
from ..core.strategy import Strategy

__all__ = [
    "StopDecision",
    "resolve_stop",
    "StopStartController",
    "ObservingController",
    "OfflineController",
]


@dataclass(frozen=True)
class StopDecision:
    """Outcome of one stop under some controller.

    Attributes
    ----------
    stop_length:
        True stop length ``y`` (s).
    threshold:
        Idling threshold ``x`` the controller committed to (may be inf).
    idle_seconds:
        Engine-on idle time actually spent: ``min(y, x)``.
    restarted:
        Whether the engine was shut off and restarted (``y >= x``).
    """

    stop_length: float
    threshold: float
    idle_seconds: float
    restarted: bool

    @property
    def cost_seconds(self) -> float:
        """Normalized cost given a break-even ``B`` is implied by the
        ledger; here only the idle part — the ledger adds ``B`` per
        restart.  Exposed for per-decision inspection."""
        return self.idle_seconds

    def total_cost(self, break_even: float) -> float:
        """The full Eq. (1) cost of this decision: idle time plus the
        restart penalty ``B`` when the engine was shut off."""
        return self.idle_seconds + (break_even if self.restarted else 0.0)


def resolve_stop(stop_length: float, threshold: float) -> StopDecision:
    """What happens at a stop of ``stop_length`` under an idling
    ``threshold`` that is already drawn: idle ``min(y, x)``, and restart
    when ``y >= x``."""
    y = validate_stop_length(stop_length)
    x = float(threshold)
    if y < x:
        return StopDecision(stop_length=y, threshold=x, idle_seconds=y, restarted=False)
    return StopDecision(stop_length=y, threshold=x, idle_seconds=x, restarted=True)


class StopStartController:
    """Applies an online strategy to a stream of stops.

    Parameters
    ----------
    strategy:
        Any :class:`~repro.core.strategy.Strategy`; a fresh threshold is
        drawn for every stop.
    rng:
        Random generator for the strategy's draws (required only for
        randomized strategies; a fixed default keeps runs reproducible).
    """

    def __init__(self, strategy: Strategy, rng: np.random.Generator | None = None) -> None:
        self.strategy = strategy
        self.rng = rng if rng is not None else np.random.default_rng(0)
        validate_break_even(strategy.break_even)

    def decide(self, stop_length: float) -> StopDecision:
        """Handle one stop: draw the threshold, compute what happens."""
        return self.apply(stop_length, self.strategy.draw_threshold(self.rng))

    def apply(self, stop_length: float, threshold: float) -> StopDecision:
        """Resolve one stop against an already-drawn threshold — the
        entry point for batched draws (:meth:`Strategy.draw_thresholds`)."""
        return resolve_stop(stop_length, threshold)


class ObservingController(StopStartController):
    """A controller that closes the online learning loop.

    After every decision the completed stop's true length is fed back to
    the strategy's ``observe`` hook (if it has one) — the protocol
    :class:`~repro.core.adaptive.AdaptiveProposed` and the advisor
    service's sessions require: decide first, learn afterwards, exactly
    once per stop.
    """

    def decide(self, stop_length: float) -> StopDecision:
        decision = super().decide(stop_length)
        observe = getattr(self.strategy, "observe", None)
        if observe is not None:
            observe(decision.stop_length)
        return decision


class OfflineController:
    """The clairvoyant optimum (Eq. 2): idle through short stops, shut
    off immediately for stops of length >= B."""

    def __init__(self, break_even: float) -> None:
        self.break_even = validate_break_even(break_even)

    def decide(self, stop_length: float) -> StopDecision:
        y = validate_stop_length(stop_length)
        if y < self.break_even:
            return StopDecision(
                stop_length=y, threshold=math.inf, idle_seconds=y, restarted=False
            )
        return StopDecision(stop_length=y, threshold=0.0, idle_seconds=0.0, restarted=True)
