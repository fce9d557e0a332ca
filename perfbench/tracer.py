"""Per-function call counts and self times, measured from outside sdncg.

``install`` wraps every public function defined in the layer modules and
rebinds each module-level name that refers to it in every loaded ``sdncg``
module. ``analysis`` imports ``has_improving_move`` by name, for example, so
patching ``sdncg.game`` alone would miss those calls. References held inside
containers (such as the family table in ``constructions``) are not
rebound; their calls count toward the caller.

Self time is the time inside a call minus the time inside wrapped calls it
made. Generator functions are left unwrapped, since a wrapper would only
time the creation of the generator; their work counts toward the consumer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("graphs", "game", "spanning", "analysis", "constructions", "graphio", "cli")


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # time spent in wrapped callees, one slot per open wrapped call
        self._child = [0.0]

    def wrap(self, name: str, fn):
        calls = self.calls
        self_s = self.self_s
        child = self._child
        clock = time.perf_counter
        calls[name] = 0
        self_s[name] = 0.0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = child.pop()
                child[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - inner

        return traced

    def install(self) -> None:
        """Wrap the public functions of every loaded layer module."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"sdncg.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "sdncg" and not modname.startswith("sdncg."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def report(self) -> dict:
        """``{name: {"calls": int, "self_s": float}}`` plus per-layer totals."""
        out = {
            name: {"calls": self.calls[name], "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }
        for layer in LAYERS:
            out[layer] = {
                "self_s": sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            }
        return out
