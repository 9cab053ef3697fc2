"""Package names resolved on first use (PEP 562).

A package whose ``__init__`` imported every submodule would make each
``from repro.sim import Network`` execute all of them, used or not.
:func:`lazy_exports` gives a package a module-level ``__getattr__`` and
``__dir__`` over a table of its public names instead: a name's
submodule is imported when the name is first read, so a run executes
only the modules it uses.  ``from package import name``, ``import *``
(through ``__all__``) and ``dir()`` behave as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, str]) -> Tuple[
        Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for *package*, whose public names
    *exports* maps to the submodules that define them (relative names,
    such as ``".network"``).

    A name read for the first time imports its submodule and is stored
    in the package's namespace, so later reads never come back here.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(
            importlib.import_module(module, package), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
