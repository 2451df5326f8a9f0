"""numpy for the array modules, loaded on first use: until an attribute of
``np`` is read it is an empty stub, so ``count`` never runs numpy's
``__init__``. The first read turns the stub into numpy in place."""

import importlib.util
import sys


def _lazy_import(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")
