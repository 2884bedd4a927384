"""Package names resolved on first use (PEP 562).

A package ``__init__`` lists where each of its exported names lives and
imports none of it; the same table is its ``__all__``::

    __getattr__, __dir__, __all__ = lazy_names(__name__, {
        ".terms": ("Atom", "Constant"),
        ".parser": ("parse_program",),
    })

The first lookup of a name imports its module and binds the name in
the package, so later lookups are plain attribute reads.  A name the
table does not list resolves to the package's submodule of that name
when there is one, as it would after an eager import
(``repro.datalog.database``, ``repro.serving``); the top-level package
adds its subpackages to ``__all__`` that way.  ``dir()`` lists
``__all__`` before any name is resolved.

A name that is also its own module's name (``repro.learning.pao``, the
function in the module of that name) is bound at once: importing the
submodule later, from anywhere, would bind the package attribute to
the module instead.

So ``import repro`` runs no module a caller does not use: a served
query loads the parser, the store, the engines it runs and the serving
layer, never the optimizers, workload generators, experience store,
drift detectors or checkpoint code.
"""

import sys
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_names(
    package: str, modules: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``,
    whose exported names live in ``modules`` (relative module name ->
    the names it defines), in the table's order."""
    namespace = sys.modules[package].__dict__
    table = {name: module for module, names in modules.items()
             for name in names}
    for name, module in table.items():
        if module == "." + name:
            namespace[name] = getattr(import_module(module, package), name)

    def __getattr__(name: str):
        module = table.get(name)
        if module is not None:
            value = getattr(import_module(module, package), name)
        elif name.startswith("__"):
            # A probe for a special name never imports: a submodule of
            # that name, ``repro.__main__``, would run the CLI.
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as missing:
                if missing.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__, list(table)
