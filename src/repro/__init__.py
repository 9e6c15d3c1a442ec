"""repro — reproduction of "A Cost Efficient Online Algorithm for
Automotive Idling Reduction" (Dong, Zeng, Chen; DAC 2014).

The package implements the paper end to end:

* :mod:`repro.core` — the ski-rental cost model, the baseline strategies
  (NEV, TOI, DET, N-Rand, MOM-Rand) and the proposed constrained
  ski-rental algorithm;
* :mod:`repro.distributions` — the stop-length distribution toolkit;
* :mod:`repro.traces` / :mod:`repro.drivecycle` — driving traces, stop
  extraction and a synthetic drive-cycle generator;
* :mod:`repro.fleet` — NREL-like per-area fleet synthesis;
* :mod:`repro.vehicle` — the Appendix C cost model (break-even interval);
* :mod:`repro.simulation` — event-level stop-start controller simulation;
* :mod:`repro.evaluation` — the competitive-analysis harness;
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart
----------
>>> import numpy as np
>>> from repro import ProposedOnline, B_SSV
>>> stops = np.array([12.0, 45.0, 8.0, 130.0, 22.0, 300.0])
>>> strategy = ProposedOnline.from_samples(stops, break_even=B_SSV)
>>> strategy.selected_name in {"TOI", "DET", "b-DET", "N-Rand"}
True
>>> strategy.worst_case_cr <= np.e / (np.e - 1) + 1e-12
True
"""

from ._lazy import lazy_exports

#: Submodule -> the names it exports, each imported on first access
#: (see :mod:`repro._lazy`).
_EXPORTS = {
    ".constants": ("B_CONVENTIONAL", "B_SSV", "E_RATIO"),
    ".core": (
        "BDet",
        "ConstrainedSkiRentalSolver",
        "Deterministic",
        "MOMRand",
        "NeverOff",
        "NRand",
        "ProposedOnline",
        "StopStatistics",
        "Strategy",
        "TurnOffImmediately",
        "competitive_ratio",
        "empirical_cr",
        "expected_cr",
        "offline_cost",
        "online_cost",
    ),
    ".errors": ("ReproError",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "B_SSV",
    "B_CONVENTIONAL",
    "E_RATIO",
    "ReproError",
    "offline_cost",
    "online_cost",
    "competitive_ratio",
    "StopStatistics",
    "Strategy",
    "NeverOff",
    "TurnOffImmediately",
    "Deterministic",
    "BDet",
    "NRand",
    "MOMRand",
    "ConstrainedSkiRentalSolver",
    "ProposedOnline",
    "expected_cr",
    "empirical_cr",
]
