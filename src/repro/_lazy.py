"""PEP 562 export tables for the package ``__init__`` modules.

A package names each module it re-exports from and the names it takes
from there; a name's module is imported on its first access, so importing
the package, or one of its modules, loads nothing else.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Mapping, Sequence


def lazy_exports(
    package: str, namespace: Dict[str, object],
    table: Mapping[str, Sequence[str]],
) -> Callable[[str], object]:
    """The module ``__getattr__`` of ``package`` for ``table``.

    ``table`` maps a module to the names ``package`` exports from it. A
    resolved name is stored in ``namespace`` (the package's globals), so
    each one is looked up once.
    """
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__
