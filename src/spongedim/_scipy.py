"""The scipy functions spongedim calls, each imported on its first call.

Loading `scipy.optimize` takes most of a second (it pulls in `scipy.linalg`),
and `simulate`, `boxcount` and `cascade --weights` never call scipy, so the
package loads no scipy module when it is imported.  Each name below forwards
to scipy's own function, so every result keeps its bytes.  The modules that
use them import these names, and `variational.minimize` stays a module
attribute that every solve calls through.
"""

from __future__ import annotations

import importlib


def _on_first_call(module: str, name: str):
    """A function that imports `module.name` when first called and then
    forwards every call to it."""
    target = None

    def forward(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(module), name)
        return target(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


entr = _on_first_call("scipy.special", "entr")
xlogy = _on_first_call("scipy.special", "xlogy")
linprog = _on_first_call("scipy.optimize", "linprog")
minimize = _on_first_call("scipy.optimize", "minimize")
