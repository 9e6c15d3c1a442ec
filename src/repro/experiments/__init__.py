"""One module per paper artifact, plus the experiment registry.

Every experiment exposes ``run(**params) -> ExperimentResult``; the
registry maps experiment ids (``fig1`` ... ``fig6``, ``table1``,
``appc``) to those callables for the CLI and the benchmarks.  All
experiments accept a ``jobs`` parameter (worker processes for the
parallel engine; results are bit-identical for every value) and report
per-stage wall times in their result.

:func:`cached_run` is the caching entry point the CLI uses: results are
stored in the content-addressed on-disk cache
(:mod:`repro.engine.cache`), keyed by experiment id, parameters and
code version, so repeated invocations skip recomputation entirely.
"""

from __future__ import annotations

import importlib
import time
from collections.abc import MutableMapping

from ..engine.cache import ResultCache, cache_key
from ..engine.instrument import StageTiming
from ..engine.ledger import active_ledger
from .report import ExperimentResult, Table, format_table

__all__ = [
    "ExperimentResult",
    "Table",
    "format_table",
    "EXPERIMENTS",
    "run_experiment",
    "cached_run",
]


class _Registry(MutableMapping):
    """Experiment id -> run callable, importing an experiment's module
    only when its callable is first looked up.

    Listing the ids (``sorted(EXPERIMENTS)``, ``id in EXPERIMENTS``)
    imports nothing, so the CLI can offer them as choices without
    loading any experiment or scipy.
    """

    def __init__(self, table: dict[str, tuple[str, str]]) -> None:
        # id -> (submodule, attribute) until first lookup, then the callable
        self._entries: dict = dict(table)

    def __getitem__(self, experiment_id: str):
        entry = self._entries[experiment_id]
        if isinstance(entry, tuple):
            module, name = entry
            entry = getattr(importlib.import_module(module, __name__), name)
            self._entries[experiment_id] = entry
        return entry

    def __setitem__(self, experiment_id: str, run) -> None:
        self._entries[experiment_id] = run

    def __delitem__(self, experiment_id: str) -> None:
        del self._entries[experiment_id]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


#: Registry: experiment id -> run callable (see :class:`_Registry`).
EXPERIMENTS = _Registry({
    "fig1": (".fig1", "run"),
    "fig2": (".fig2", "run"),
    "fig3": (".fig3", "run"),
    "fig4": (".fig4", "run"),
    "fig5": (".sweeps", "run_fig5"),
    "fig6": (".sweeps", "run_fig6"),
    "table1": (".table1", "run"),
    "appc": (".appendix_c", "run"),
    # not paper artifacts: the reproduction's own studies
    "improved": (".improved", "run"),
    "holdout": (".holdout_fig4", "run"),
    "seeds": (".seeds", "run"),
})


def run_experiment(experiment_id: str, **params) -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS`).

    Appends a ``total`` stage timing so even experiments without
    internal stages report their wall time.
    """
    if experiment_id not in EXPERIMENTS:
        from ..errors import InvalidParameterError

        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    start = time.perf_counter()
    result = EXPERIMENTS[experiment_id](**params)
    result.timings.append(
        StageTiming(stage="total", seconds=time.perf_counter() - start)
    )
    return result


def cached_run(
    experiment_id: str,
    params: dict | None = None,
    *,
    jobs: int | None = None,
    use_cache: bool = True,
    cache: ResultCache | None = None,
) -> ExperimentResult:
    """Run an experiment through the on-disk result cache.

    ``jobs`` is deliberately excluded from the cache key: the engine
    guarantees results are bit-identical for every worker count, so a
    serial run may serve a later ``--jobs 8`` invocation and vice versa.
    Underscore-prefixed params (e.g. ``_dataset_digest``, a content hash
    of an on-disk dataset) are the reverse: they salt the cache key but
    are stripped before the experiment runs — the experiment reads the
    dataset itself, the key just has to change when the bytes do.
    On a hit the stored payload is returned verbatim (its ``timings``
    are the original run's); on a miss the experiment runs and its
    payload is stored atomically.
    """
    if jobs is not None and jobs < 1:
        from ..errors import InvalidParameterError

        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    params = dict(params or {})
    params.pop("jobs", None)
    run_params = {k: v for k, v in params.items() if not k.startswith("_")}
    if not use_cache:
        return run_experiment(experiment_id, **run_params, jobs=jobs)
    if cache is None:
        cache = ResultCache()
    key = cache_key(experiment_id, params)
    payload = cache.get(key)
    ledger = active_ledger()
    if payload is not None:
        if ledger is not None:
            ledger.emit("cache-hit", experiment=experiment_id, key=key)
        return ExperimentResult.from_payload(payload)
    if ledger is not None:
        ledger.emit("cache-miss", experiment=experiment_id, key=key)
    result = run_experiment(experiment_id, **run_params, jobs=jobs)
    cache.put(key, result.to_payload())
    return result
