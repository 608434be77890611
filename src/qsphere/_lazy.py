"""Deferred imports for modules that only representation work needs."""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module `name`, executed on its first attribute access.

    Rewriting never touches numpy, and loading it costs more than the
    rest of `import qsphere`, so rep and verify import it through here:
    `qsphere normalize` then never runs it.  A module that is already
    imported is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
