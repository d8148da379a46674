"""Outside-in span recorder for the torsionlab benchmark.

Spans are recorded only around calls that cross into torsionlab's public
functions and methods, by replacing each one with a wrapper under the name
its caller looks up (``dynamics.christoffel`` and ``connection.christoffel``
are distinct names for the same function).  Nothing inside the package is
edited.  Each span keeps its name, start, end, parent span and the id of the
benchmark operation it ran in; spans stay in memory in flat arrays and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

# The modules are the layers.  ``config`` and ``errors`` do no measurable work.
LAYERS = ("expressions", "charts", "connection", "curvature", "dynamics", "defects",
          "pathintegral", "cli")

# Dunder methods that do a layer's work: parsing, evaluation, chart building and
# postpoint tensors.  Other dunders (and the per-node ``Jet`` arithmetic, which
# ``Expression.__call__`` already covers) are left unwrapped.
WRAPPED_DUNDERS = {
    "Expression": ("__init__", "__call__"),
    "Chart": ("__init__",),
    "PostpointData": ("__init__",),
}
UNWRAPPED_CLASSES = {"Jet"}


class Recorder:
    """Spans and counters of one traced pass, kept in flat arrays."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_kinds: list[str] = []
        self.counters: dict[str, float] = {}
        self.op_counters: dict[tuple[str, str], float] = {}  # (operation kind, key)
        self._stack: list[int] = []
        self._op = -1

    def name_index(self, name: str, layer: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return idx

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount
        if self._op >= 0:
            slot = (self.op_kinds[self._op], key)
            self.op_counters[slot] = self.op_counters.get(slot, 0) + amount

    @contextmanager
    def operation(self, kind: str):
        """Span of one benchmark operation; spans inside it carry its id."""
        outer = self._op
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        idx = self.begin(self.name_index("op." + kind, "bench"))
        try:
            yield
        finally:
            self.finish(idx)
            self._op = outer

    def wrap(self, fn, name: str, layer: str, observe=None):
        nid = self.name_index(name, layer)
        # begin() and finish() inlined: this wrapper runs ~10^5 times per pass
        rec, clock, stack = self, self.clock, self._stack
        starts, ends = self.start, self.end
        name_ids, parents, ops = self.name_id.append, self.parent.append, self.op.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids(nid)
            parents(stack[-1] if stack else -1)
            ops(rec._op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result

        return wrapper

    def table(self) -> dict:
        """Arrays of all spans with their self times (duration minus children)."""
        start = np.frombuffer(self.start, dtype=float) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=float) if len(self.end) else np.zeros(0)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.asarray(self.op, dtype=np.int64),
            "duration": duration,
            "self": duration - child_time,
        }

    def save(self, path) -> None:
        tab = self.table()
        meta = {"names": self.names, "layers": self.layers, "op_kinds": self.op_kinds,
                "counters": self.counters}
        np.savez(path, meta=np.array(json.dumps(meta)),
                 **{k: tab[k] for k in ("name_id", "start", "end", "parent", "op")})


def _observe_triad_jets(rec, args, kwargs, result):
    order = kwargs.get("order", args[2] if len(args) > 2 else 0)  # (self, q, order)
    rec.count(f"charts.triad_jets.calls.o{order}")


def _observe_rk4(rec, args, kwargs, result):
    # trajectories and variation solves return one sample per grid point
    rec.count("dynamics.rk4_steps", len(result) - 1)


def _observe_line_integral(rec, args, kwargs, result):
    loop = args[1] if len(args) > 1 else kwargs["loop"]
    rec.count("defects.nodes", (len(loop.vertices) - 1) * loop.samples_per_edge)


def _observe_eigenvalues(rec, args, kwargs, result):
    prop = args[0]
    rec.count("pathintegral.blocks_solved", 1 if prop.matrix is not None else prop.blocks.shape[2])


def _observe_build(rec, args, kwargs, result):
    if result.profile is not None:  # sphere: entries inside the cutoff / entries computed
        rec.count("pathintegral.kernel_live", int(np.count_nonzero(result.profile)))
        rec.count("pathintegral.kernel_computed", result.profile.size)


def _observe_render(rec, args, kwargs, result):
    rec.count("cli.artifact_bytes", len(result.encode("utf-8")))


# counters that need a call's arguments or result, keyed by the wrapped
# function's own qualified name (so every alias of it is observed)
OBSERVERS = {
    "Chart.triad_jets": _observe_triad_jets,
    "integrate_geodesic": _observe_rk4,
    "integrate_autoparallel": _observe_rk4,
    "straight_line_image": _observe_rk4,
    "solve_variation_ode": _observe_rk4,
    "line_integral": _observe_line_integral,
    "SlicedPropagator.eigenvalues": _observe_eigenvalues,
    "build_propagator": _observe_build,
    "render": _observe_render,
}


def instrument(rec: Recorder, modules) -> list:
    """Wrap every public function and method of ``modules``; returns the undo list.

    ``modules`` maps a layer name to its module object.  A function imported
    into several modules is wrapped once per module, under each module's name
    for it, and always attributed to the layer that defines it.
    """
    undo = []
    by_name = {mod.__name__: layer for layer, mod in modules.items()}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            home = by_name.get(getattr(obj, "__module__", None))
            if home is None:
                continue
            if inspect.isfunction(obj):
                wrapped = rec.wrap(obj, f"{layer}.{attr}", home, OBSERVERS.get(obj.__qualname__))
                undo.append((mod, attr, obj))
                setattr(mod, attr, wrapped)
            elif inspect.isclass(obj) and home == layer and attr not in UNWRAPPED_CLASSES:
                undo.extend(_instrument_class(rec, obj, layer))
    return undo


def _instrument_class(rec, cls, layer):
    undo = []
    dunders = WRAPPED_DUNDERS.get(cls.__name__, ())
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in dunders:
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            fn, rewrap = raw.__func__, type(raw)
        elif inspect.isfunction(raw):
            fn, rewrap = raw, None
        else:
            continue
        name = f"{cls.__name__}.{attr}"
        wrapped = rec.wrap(fn, name, layer, OBSERVERS.get(name))
        undo.append((cls, attr, raw))
        setattr(cls, attr, rewrap(wrapped) if rewrap else wrapped)
    return undo


def uninstrument(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
