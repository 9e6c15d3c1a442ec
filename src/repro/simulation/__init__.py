"""Event-level stop-start controller simulation and cost accounting."""

from .._lazy import lazy_exports

#: Submodule -> the names it exports, each imported on first access
#: (see :mod:`repro._lazy`).
_EXPORTS = {
    ".accounting": ("CostLedger",),
    ".controller": (
        "ObservingController",
        "OfflineController",
        "StopDecision",
        "StopStartController",
        "resolve_stop",
    ),
    ".engine_sim": (
        "SimulationResult",
        "realized_cr",
        "simulate_stops",
        "simulate_trace",
    ),
    ".multistate": (
        "EnvelopeController",
        "MultistateSimulationResult",
        "MultistateStopRecord",
        "RandomizedMultislopeController",
        "simulate_multistate",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CostLedger",
    "StopDecision",
    "StopStartController",
    "resolve_stop",
    "ObservingController",
    "OfflineController",
    "SimulationResult",
    "simulate_stops",
    "simulate_trace",
    "realized_cr",
    "MultistateStopRecord",
    "MultistateSimulationResult",
    "EnvelopeController",
    "RandomizedMultislopeController",
    "simulate_multistate",
]
