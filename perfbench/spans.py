"""In-memory spans around the public functions of the moran modules.

The tracer wraps functions from outside the package: nothing under src/
changes. Because the modules bind each other's functions with
``from .x import y``, a function is replaced at every ``moran.*`` name that
binds it, so calls between modules are seen too.

Each call records its self time: its duration minus the time spent in
wrapped calls beneath it. Most calls become spans (name, start, end,
parent). Hot leaves, and any function past SPAN_LIMIT spans in a pass, are
folded into the enclosing span instead, as a call count plus summed total
and self time, so a traced build does not hold half a million records.
"""

import functools
import inspect
import sys
from time import perf_counter

# The package's modules, used as the layer names. numthy and errors do no
# separately timeable work and are left unwrapped.
LAYERS = ("config", "system", "tiling", "fourier", "spectra", "certificates", "cli")

# Called up to ~10^6 times per operation: folded into the enclosing span.
HOT = frozenset({
    "fourier.zero_set_member",
    "fourier.nu_hat_tail",
    "fourier.mu_hat_shifted_grid",
})
# Inner kernels of nu_hat_tail and extension_factor_floor, tens of thousands
# of calls each: left unwrapped, so their time is their caller's self time.
UNWRAPPED = frozenset({"fourier.m_factor", "system.hypothesis_holds_from"})
SPAN_LIMIT = 2000


def _cell(leaves, name):
    cell = leaves.get(name)
    if cell is None:
        cell = leaves[name] = [0, 0.0, 0.0]  # calls, total seconds, self seconds
    return cell


class Tracer:
    def __init__(self, hooks=None):
        self.hooks = hooks or {}  # function name -> f(args, kwargs, result) -> {counter: n}
        self.spans = []
        self.hook_errors = []
        # One frame per open span or folded call:
        # [seconds in wrapped calls beneath, leaves dict, counts dict].
        self._frames = []
        self._open = []
        self._per_name = {}
        self._installed = []

    def open(self, name, **attrs):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": perf_counter(),
            "end": None,
            "self": 0.0,
            "counts": {},
            "leaves": {},
            **attrs,
        }
        self.spans.append(span)
        self._open.append(span)
        self._frames.append([0.0, span["leaves"], span["counts"]])
        return span

    def close(self, span):
        span["end"] = perf_counter()
        child = self._frames.pop()[0]
        self._open.pop()
        duration = span["end"] - span["start"]
        span["self"] = duration - child
        if self._frames:
            self._frames[-1][0] += duration

    def _count(self, counts, name, args, kwargs, result):
        try:
            added = self.hooks[name](args, kwargs, result)
        except Exception as exc:  # a hook must never fail the traced call
            self.hook_errors.append(f"{name}: {exc!r}")
            return
        for key, value in added.items():
            counts[key] = counts.get(key, 0) + value

    def wrap(self, fn, name):
        tracer = self
        frames = self._frames
        per_name = self._per_name
        hooked = name in self.hooks
        hot = name in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hot or per_name.get(name, 0) >= SPAN_LIMIT:
                parent = frames[-1]
                frame = [0.0, parent[1], parent[2]]
                frames.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    frames.pop()
                    parent[0] += duration
                    cell = _cell(parent[1], name)
                    cell[0] += 1
                    cell[1] += duration
                    cell[2] += duration - frame[0]
                if hooked:
                    tracer._count(parent[2], name, args, kwargs, result)
                return result
            per_name[name] = per_name.get(name, 0) + 1
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hooked:
                tracer._count(span["counts"], name, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public layer function at every moran.* name binding it."""
        wrapped = {}
        for modname, module in list(sys.modules.items()):
            if modname != "moran" and not modname.startswith("moran."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                owner, _, layer = value.__module__.rpartition(".")
                name = f"{layer}.{value.__name__}"
                if owner != "moran" or layer not in LAYERS or name in UNWRAPPED:
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self.wrap(value, name)
                setattr(module, attr, wrapped[id(value)])
                self._installed.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def take(self):
        """The spans finished since the last take: one pass."""
        if self._open:
            raise RuntimeError("take() with spans still open")
        spans, self.spans = self.spans, []
        self._per_name.clear()
        return spans


def subtree(spans, root_id):
    """The spans at or below root_id, in recording order."""
    inside = {root_id}
    out = []
    for span in spans:
        if span["id"] == root_id or span["parent"] in inside:
            inside.add(span["id"])
            out.append(span)
    return out
