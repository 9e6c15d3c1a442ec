"""The serving path's import boundary, and the lazy package exports
that keep it.

``serve`` and every shard worker (a spawned process re-imports
``repro.cli``) import only the serving stack: no scipy, no stop-length
distribution toolkit, no experiment module.  The packages on that path
re-export their submodules' names lazily (PEP 562, :mod:`repro._lazy`);
these tests pin that the lazy tables resolve every advertised name to
the object its defining submodule holds, and that the CLI's experiment
choices are exactly the registry's ids.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.experiments import EXPERIMENTS, ExperimentResult

SRC = Path(__file__).resolve().parent.parent / "src"

#: What the frontend process and each shard worker import.
SERVING_MODULES = (
    "repro.cli",
    "repro.service.advisor",
    "repro.service.shard",
    "repro.service.frontend",
    "repro.service.replica",
    "repro.service.augmented",
)

FORBIDDEN_PREFIXES = ("scipy", "repro.distributions", "repro.experiments.fig")

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.simulation",
    "repro.engine",
    "repro.service",
)


def _loaded_after(code: str) -> list[str]:
    """Names in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    return json.loads(result.stdout.splitlines()[-1])


def _forbidden(modules: list[str]) -> list[str]:
    return [name for name in modules if name.startswith(FORBIDDEN_PREFIXES)]


def test_serving_stack_imports_no_scipy_and_no_experiments():
    imports = "\n".join(f"import {name}" for name in SERVING_MODULES)
    # build_parser is what every serve invocation runs first: listing
    # the experiment ids for ``run`` must not import an experiment.
    loaded = _loaded_after(imports + "\nrepro.cli.build_parser()")
    assert _forbidden(loaded) == []
    # Sessions draw from np.random.default_rng; the module is loaded at
    # import, not lazily inside the first session's creation.
    assert "numpy.random" in loaded


def test_format_table_loads_only_the_report_module():
    """``serve`` prints its tables with format_table on shutdown."""
    loaded = _loaded_after("from repro.experiments import format_table")
    assert _forbidden(loaded) == []
    experiments = [name for name in loaded if name.startswith("repro.experiments.")]
    assert experiments == ["repro.experiments.report"]


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_defining_submodule(package_name):
    package = importlib.import_module(package_name)
    table = package._EXPORTS
    origin = {name: module for module, names in table.items() for name in names}
    eager = {name for name in package.__all__ if name in vars(package)} - set(origin)
    assert set(origin) | eager == set(package.__all__)
    listed = dir(package)
    for name in package.__all__:
        assert name in listed
        if name in eager:
            continue
        defining = importlib.import_module(origin[name], package_name)
        assert getattr(package, name) is getattr(defining, name), name
    namespace: dict = {}
    exec(f"from {package_name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(package, "no_such_export")
    assert not hasattr(package, "no_such_export")


# -- the CLI and the experiment registry -----------------------------------


def test_run_help_lists_exactly_the_registry_ids(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    positionals = capsys.readouterr().out.split("positional arguments:")[1]
    start = positionals.index("{") + 1
    choices = positionals[start:positionals.index("}", start)].split(",")
    assert choices == sorted(EXPERIMENTS)


def test_registry_ids_resolve_to_the_experiment_callables():
    from repro.experiments import (
        appendix_c,
        fig1,
        fig2,
        fig3,
        fig4,
        holdout_fig4,
        improved,
        seeds,
        sweeps,
        table1,
    )

    assert dict(EXPERIMENTS) == {
        "fig1": fig1.run,
        "fig2": fig2.run,
        "fig3": fig3.run,
        "fig4": fig4.run,
        "fig5": sweeps.run_fig5,
        "fig6": sweeps.run_fig6,
        "table1": table1.run,
        "appc": appendix_c.run,
        "improved": improved.run,
        "holdout": holdout_fig4.run,
        "seeds": seeds.run,
    }


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_run_dispatches_to_the_registered_callable(experiment_id, monkeypatch, capsys):
    calls = []

    def stub(**params):
        calls.append(params)
        return ExperimentResult(
            experiment_id=experiment_id, title="stub", tables=[], notes=[], timings=[]
        )

    monkeypatch.setitem(EXPERIMENTS, experiment_id, stub)
    assert cli.main(["run", experiment_id, "--no-cache", "--jobs", "1"]) == 0
    assert len(calls) == 1
    assert "stub" in capsys.readouterr().out
