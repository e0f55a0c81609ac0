"""PEP 562 lazy exports for the package ``__init__`` modules.

A package that re-exports names from its submodules would otherwise
import every one of them (and all they import) the moment any part of
it is touched: ``repro-vm run`` would pay for the §4 analysis stack.
:func:`lazy_exports` defers each import to the first attribute access,
so a process loads only the submodules it uses.
"""

from __future__ import annotations

import sys
import types


class _Package(types.ModuleType):
    """A package whose exports win over same-named submodules.

    Importing ``repro.core.propagate`` binds the *module* on
    ``repro.core`` under ``propagate``.  With eager re-exports the
    function of that name was bound afterwards and won; here the
    binding is refused instead, so ``repro.core.propagate`` stays the
    function whichever import comes first.
    """

    def __setattr__(self, name: str, value) -> None:
        if (
            isinstance(value, types.ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in self.__dict__.get("_exports", ())
        ):
            return
        super().__setattr__(name, value)


def lazy_exports(package: str, sources: dict[str, tuple[str, ...]]) -> None:
    """Serve ``package``'s public names from their modules on demand.

    ``sources`` maps each module (absolute, or relative to ``package``
    with a leading dot) to the public names it defines.  The first
    access to a name imports its module and caches the value on the
    package, so later lookups are plain attribute reads.  Any other
    name that is a submodule is imported too, so ``repro.gmon`` keeps
    working after a bare ``import repro``.
    """
    module = sys.modules[package]
    exports = {
        name: package + src if src.startswith(".") else src
        for src, names in sources.items()
        for name in names
    }

    def load(qualname: str):
        # __import__, unlike importlib.import_module, takes the
        # interpreter's own import path, so ``-X importtime`` charges
        # the module to itself rather than to whoever touched the name.
        __import__(qualname)
        return sys.modules[qualname]

    def __getattr__(name: str):
        source = exports.get(name)
        if source is not None:
            value = getattr(load(source), name)
            module.__dict__[name] = value
            return value
        if not name.startswith("__"):
            try:
                return load(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(module.__dict__) | set(exports))

    module._exports = exports
    module.__getattr__ = __getattr__
    module.__dir__ = __dir__
    module.__class__ = _Package
