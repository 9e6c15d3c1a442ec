"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules
declares them in one table, ``{".submodule": ("Name", ...)}``, and
installs the module-level ``__getattr__`` and ``__dir__`` this helper
builds.  A name's submodule is imported the first time the name is
read, and the value is then cached in the package namespace, so
``import repro.service.advisor`` loads the serving stack only, not
every sibling the package advertises (``repro.core`` alone would pull
in scipy).  ``from package import Name``, ``from package import *``
(driven by ``__all__``) and ``dir(package)`` behave as with eager
imports.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["lazy_exports"]


def lazy_exports(package: str, submodules: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for ``package`` over ``submodules``,
    a table of relative submodule name -> names it defines."""
    origin = {
        name: submodule for submodule, names in submodules.items() for name in names
    }

    def __getattr__(name: str):
        submodule = origin.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(submodule, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
