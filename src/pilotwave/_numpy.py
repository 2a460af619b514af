"""numpy, imported on its first use rather than at import.

Every module takes `np` from here.  The symbolic commands (`check`,
`derive`) never touch a grid, so they never pay for numpy's import; the
first attribute read of `np` by a grid function runs it.
"""

import importlib.util
import sys


def _lazy(name: str):
    """Module `name` as it is, or, if not yet imported, a module object that imports it on first use."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
