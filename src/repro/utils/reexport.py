"""Lazy re-exports for the facaded packages.

``repro.coyote``, ``repro.resilience`` and ``repro.service`` each serve
the blessed names of :mod:`repro.api` (``_API_NAMES``) plus a few
internal-but-stable ones from their own modules (``_LOCAL_NAMES``),
resolved on first access so importing the package stays cycle-free.
"""

import importlib


def lazy_exports(namespace: dict, api_names, local_names: dict):
    """The module ``__getattr__`` and ``__dir__`` of the package whose
    ``globals()`` is ``namespace``.

    A name resolves from ``repro.api`` or from the module
    ``local_names`` maps it to, and is then cached in ``namespace`` so
    later lookups skip the hook; ``dir()`` lists the namespace and
    ``__all__``.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name in api_names:
            value = getattr(importlib.import_module("repro.api"), name)
        elif name in local_names:
            value = getattr(importlib.import_module(local_names[name]), name)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__
