"""Span tracing of oscnet's public functions, patched in from outside.

Every public module-level function of the six layer modules, and the
constructor of each class in ``CONSTRUCTORS``, is replaced by a wrapper that
opens a span around the call. The wrapper is installed at every binding that
an ``oscnet`` module holds: the home module, every ``from .x import f`` copy,
the package namespace and function tables such as ``cli.RUNNERS``. A span's
self time is its duration minus the time covered by the spans it caused.

Spans are folded into per-function totals as they close rather than kept in
memory: one qnm job opens several thousand of them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import ModuleType
from typing import Callable

LAYERS = ("netmodel", "dynamics", "symplectic", "gaussian", "probes", "cli")

# classes whose construction (with its validation) is traced as one span
CONSTRUCTORS = ("gaussian.GaussianState",)


class TraceError(RuntimeError):
    """The wrappers could not be installed completely."""


def _evolve_flops(args, kwargs) -> int:
    """Three dense M x M products per time point, from the argument sizes."""
    model = args[0] if args else kwargs["model"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    m = model.n_modes
    n_times = len(t) if hasattr(t, "__len__") else 1
    return n_times * 3 * 2 * m**3


def _propagate_flops(args, kwargs) -> int:
    """S @ cov @ S.T and S @ mean for 2M x 2M S, from the argument sizes."""
    S = args[1] if len(args) > 1 else kwargs["S"]
    n = S.shape[-1]
    batch = 1
    for d in S.shape[:-2]:
        batch *= d
    return batch * (2 * 2 * n**3 + 2 * n**2)


# flop counts computed from array sizes, not measured
FLOPS: dict[str, Callable] = {
    "dynamics.evolve": _evolve_flops,
    "gaussian.propagate": _propagate_flops,
}


class Stat:
    __slots__ = ("calls", "self_s", "failed", "flops")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.flops = 0


class Tracer:
    """Installs and removes span wrappers and accumulates their totals.

    ``stats`` maps ``"<layer>.<name>"`` to a :class:`Stat`. Totals accumulate
    across every install/uninstall cycle.
    """

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.flops_uncounted: set[str] = set()
        self._stack: list[list[float]] = []
        self._wrappers: dict[int, tuple[object, Callable]] = {}
        self._patches: list[tuple[object, str, object, bool]] = []
        self._build()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(qualname, Stat())
        stack = self._stack
        clock = time.perf_counter
        flops = FLOPS.get(qualname)
        uncounted = self.flops_uncounted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flops is not None:
                try:
                    stat.flops += flops(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    uncounted.add(qualname)
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += dur - children[0]
                if stack:
                    stack[-1][0] += dur

        return traced

    def _build(self) -> None:
        for layer in LAYERS:
            mod = sys.modules.get(f"oscnet.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (
                    callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and not name.startswith("_")
                ):
                    self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))

    # -- install / uninstall --------------------------------------------------

    def _lookup(self, value: object) -> Callable | None:
        entry = self._wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    def _patch(self, container: object, key, value: object, by_item: bool) -> None:
        wrapper = self._lookup(value)
        if wrapper is None:
            return
        if by_item:
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)
        self._patches.append((container, key, value, by_item))

    def install(self) -> None:
        """Wrap every binding; raise TraceError if an original survives."""
        if self._patches:
            raise TraceError("wrappers already installed")
        for mod in _oscnet_modules():
            for name, value in list(vars(mod).items()):
                self._patch(mod, name, value, by_item=False)
                # function tables such as cli.RUNNERS
                if isinstance(value, (dict, list)):
                    items = value.items() if isinstance(value, dict) else enumerate(value)
                    for key, item in list(items):
                        self._patch(value, key, item, by_item=True)
        for qualname in CONSTRUCTORS:
            layer, cls_name = qualname.split(".")
            cls = getattr(sys.modules.get(f"oscnet.{layer}"), cls_name, None)
            if cls is None:
                continue
            init = vars(cls).get("__init__")
            if init is None:
                self.uninstall()
                raise TraceError(f"{qualname} defines no __init__ to trace")
            cls.__init__ = self._wrap(qualname, init)
            self._patches.append((cls, "__init__", init, False))
        left = self.unwrapped_bindings()
        if left:
            self.uninstall()
            raise TraceError("unwrapped oscnet functions remain: " + ", ".join(left))

    def uninstall(self) -> None:
        for container, key, original, by_item in reversed(self._patches):
            if by_item:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module globals, and items of module-level containers, in oscnet
        modules that still hold an original function."""
        left = []
        for mod in _oscnet_modules():
            for name, value in vars(mod).items():
                if self._lookup(value) is not None:
                    left.append(f"{mod.__name__}.{name}")
                if isinstance(value, (dict, list, tuple, set, frozenset)):
                    items = value.values() if isinstance(value, dict) else value
                    if any(self._lookup(item) is not None for item in items):
                        left.append(f"an item of {mod.__name__}.{name}")
        return left

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> dict[str, Stat]:
        out = {layer: Stat() for layer in LAYERS}
        for qualname, stat in self.stats.items():
            agg = out[qualname.split(".")[0]]
            agg.calls += stat.calls
            agg.self_s += stat.self_s
            agg.failed += stat.failed
        return out


def _oscnet_modules() -> list[ModuleType]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "oscnet" or name.startswith("oscnet."))
    ]
