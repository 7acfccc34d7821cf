"""Span tracing of the blockspectra layers from outside the program.

`Tracer.install()` replaces every public function (every callable in a layer
module's `__all__` that is not a class) with a timing wrapper, at every place
a `blockspectra` module holds a reference to it, so calls between layers are
seen whichever module makes them. Nothing in the package is edited.

A span is one call of a wrapped function; for a generator function, one
resumption. A span's self time is its duration minus the time its child spans
cover. Private helpers are not wrapped, so their time counts as self time of
the public function that called them: `_iso_signature`, called from the
enumerators' dedup loop, shows under `families`, while `_refined_colors`
called from `are_isomorphic` shows under `graphs`.

Spans are aggregated in memory per function and written out once, by
`summary()`, when the traced command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("graphs", "spectral", "families", "transforms", "verify", "cli")
PACKAGE = "blockspectra"

# Spans the per-layer metrics read. A name missing after a refactor is
# reported as absent and its metrics read 0; it never stops a run.
NEEDED = (
    "cli.main",
    "families.enumerate_clique_trees",
    "families.enumerate_connected_graphs",
    "families.enumerate_trees",
    "graphs.are_isomorphic",
    "graphs.bfs_distances",
    "graphs.block_decomposition",
    "graphs.parse_edge_list",
    "spectral.jacobi_eigh",
    "spectral.power_iteration",
    "spectral.spectral_radius",
    "transforms.move_clique",
    "verify.run_check",
)

ENUMERATORS = tuple(q for q in NEEDED if q.startswith("families.enumerate_"))


def traceable(obj):
    return callable(obj) and not isinstance(obj, type)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [qual, layer, start, child_s]
        self.spans = {}  # qual -> [calls, inclusive_s, self_s]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.active = dict.fromkeys(LAYERS, 0)
        self.counters = {
            "yielded": 0,
            "iso_calls_in_families": 0,
            "power_passes": 0,
            "power_flops": 0,
            "report_instances": 0,
            "violations": 0,
            "ties": 0,
        }
        self.max_residual = 0.0
        self.wrapped = set()
        self.absent = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, qual, layer, new_call=True):
        if qual == "graphs.are_isomorphic" and self.active["families"]:
            self.counters["iso_calls_in_families"] += 1
        self.active[layer] += 1
        stat = self.spans.setdefault(qual, [0, 0.0, 0.0])
        if new_call:
            stat[0] += 1
        frame = [qual, layer, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        dur = time.perf_counter() - frame[2]
        self.stack.pop()
        qual, layer = frame[0], frame[1]
        own = dur - frame[3]
        stat = self.spans[qual]
        stat[1] += dur
        stat[2] += own
        self.layer_self[layer] += own
        self.active[layer] -= 1
        if self.stack:
            self.stack[-1][3] += dur

    # -- results the metrics need ------------------------------------------

    def _observe(self, qual, args, kwargs, result):
        # getattr defaults: a result type changed by a refactor reads as 0
        if qual == "spectral.power_iteration":
            n = len(args[0] if args else kwargs["m"])
            if result is None:
                passes = kwargs.get("max_iter") or 100 * n
            else:
                passes = getattr(result, "iterations", -1) + 1
            self.counters["power_passes"] += passes
            self.counters["power_flops"] += 2 * n * n * passes
        elif qual == "spectral.spectral_radius":
            residual = float(getattr(result, "residual", 0.0))
            self.max_residual = max(self.max_residual, residual)
        elif qual == "verify.run_check":
            self.counters["report_instances"] += getattr(result, "checked", 0) + getattr(
                result, "excluded", 0
            )
            self.counters["violations"] += len(getattr(result, "violations", ()))
            self.counters["ties"] += getattr(result, "ties", 0)

    # -- wrappers ------------------------------------------------------------

    def wrap(self, qual, layer, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    frame = tracer._enter(qual, layer, first)
                    first = False
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    tracer.counters["yielded"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(qual, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer._observe(qual, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public layer function; return a callable that undoes it."""
        modules = []
        for layer in LAYERS:
            try:
                modules.append((layer, importlib.import_module(f"{PACKAGE}.{layer}")))
            except ImportError:
                self.absent.append(layer)
        holders = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        undo = []
        for layer, mod in modules:
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if fn is None or not traceable(fn):
                    continue
                qual = f"{layer}.{name}"
                wrapped = self.wrap(qual, layer, fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapped)
                            undo.append((holder, attr, fn))
                self.wrapped.add(qual)
        self.absent.extend(q for q in NEEDED if q not in self.wrapped)

        def restore():
            for holder, attr, fn in reversed(undo):
                setattr(holder, attr, fn)

        return restore

    def summary(self):
        return {
            "spans": self.spans,
            "layer_self": self.layer_self,
            "counters": self.counters,
            "max_residual": self.max_residual,
            "absent": sorted(set(self.absent)),
        }


def merge(summaries):
    """Sum the summaries of one pass's processes."""
    spans, layer_self, counters = {}, dict.fromkeys(LAYERS, 0.0), {}
    max_residual, absent = 0.0, set()
    for s in summaries:
        for qual, (calls, incl, own) in s["spans"].items():
            agg = spans.setdefault(qual, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += incl
            agg[2] += own
        for layer, own in s["layer_self"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + own
        for key, value in s["counters"].items():
            counters[key] = counters.get(key, 0) + value
        max_residual = max(max_residual, s["max_residual"])
        absent.update(s["absent"])
    return {
        "spans": spans,
        "layer_self": layer_self,
        "counters": counters,
        "max_residual": max_residual,
        "absent": sorted(absent),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(merged, instances):
    """Per-layer metrics of one traced pass (`instances` as in the end-to-end metric)."""
    spans, own, c = merged["spans"], merged["layer_self"], merged["counters"]

    def calls(qual):
        return spans.get(qual, [0, 0.0, 0.0])[0]

    def incl(qual):
        return spans.get(qual, [0, 0.0, 0.0])[1]

    radii = calls("spectral.spectral_radius")
    return {
        "families.self_s": own["families"],
        "families.classes_per_s": _ratio(c["yielded"], sum(incl(q) for q in ENUMERATORS)),
        "families.iso_calls_per_class": _ratio(c["iso_calls_in_families"], c["yielded"]),
        "graphs.self_s": own["graphs"],
        "graphs.iso_calls": calls("graphs.are_isomorphic"),
        "graphs.iso_s": incl("graphs.are_isomorphic"),
        "graphs.bfs_s": incl("graphs.bfs_distances"),
        "graphs.parse_s": incl("graphs.parse_edge_list"),
        "graphs.block_decomposition_calls": calls("graphs.block_decomposition"),
        "spectral.self_s": own["spectral"],
        "spectral.radii": radii,
        "spectral.radii_per_s": _ratio(radii, incl("spectral.spectral_radius")),
        "spectral.power_iterations": c["power_passes"],
        "spectral.max_residual": merged["max_residual"],
        "spectral.radii_per_instance": _ratio(radii, instances),
        "spectral.mflops": _ratio(c["power_flops"], incl("spectral.power_iteration")) / 1e6,
        "spectral.jacobi_fallbacks": calls("spectral.jacobi_eigh"),
        "spectral.jacobi_s": incl("spectral.jacobi_eigh"),
        "transforms.self_s": own["transforms"],
        "transforms.moves": calls("transforms.move_clique"),
        "verify.self_s": own["verify"],
        "verify.instances": c["report_instances"],
        "verify.violations": c["violations"],
        "verify.ties": c["ties"],
        "cli.self_s": own["cli"],
    }
