"""Per-layer tracing of nilcomm from outside the package.

Every public module-level function of each layer module is wrapped, at every
module attribute that binds it (a function imported by name into another
module is bound there too).  An ``lru_cache`` function is wrapped outside its
cache, so its calls include cache hits, and its cache size is read from
``cache_info()``.  Generator functions and methods are not wrapped; their
time counts to the caller.  Each call records a span (name, parent, start,
end) in flat arrays; a few wrappers also count what their call did.  The
layer of a span is the module that defines the function, and a layer's self
time is the time of its spans minus the time of their child spans and of the
calibration samples taken inside them.
"""

from __future__ import annotations

import array
import gzip
import inspect
import statistics
import sys
import time
import types
from collections import Counter

COUNTERS = ("linalg.rows", "linalg.cols", "linalg.pivots", "oracle.realize.rejected",
            "oracle.realize.rejected_s", "closure.covers.found")


class Tracer:
    def __init__(self, layers):
        self.layers = layers
        self.last = None

    # -- installing -------------------------------------------------------------

    def install(self, nc, clock):
        self.names: list[str] = []
        self.nid = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.paused: list[tuple[int, float]] = []  # (innermost span, sample time)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.caches = {}
        self.clock = clock
        self.t0 = time.perf_counter()
        clock.span_hook = lambda t_in, t_out: self.paused.append((self.stack[-1], t_out - t_in))

        wrappers = {}
        for layer in self.layers:
            mod = getattr(nc, layer)
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                target = getattr(obj, "__wrapped__", obj) if hasattr(obj, "cache_info") else obj
                if (not isinstance(target, types.FunctionType)
                        or target.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(target)):
                    continue
                if hasattr(obj, "cache_info"):
                    self.caches[f"{layer}.{name}"] = obj
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname == "nilcomm" or modname.startswith("nilcomm."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrappers:
                        setattr(mod, attr, wrappers[id(val)])

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        nids, parents, starts, ends, stack = self.nid, self.parent, self.start, self.end, self.stack
        perf = time.perf_counter
        counters = self.counters

        def wrapper(*args, **kwargs):
            idx = len(nids)
            nids.append(nid)
            parents.append(stack[-1])
            starts.append(perf())
            ends.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()

        if name == "linalg.echelon_pivots":
            def counted(rows):
                rows = rows if isinstance(rows, list) else list(rows)
                pivots = wrapper(rows)
                counters["linalg.rows"] += len(rows)
                counters["linalg.cols"] += len(set().union(*rows))
                counters["linalg.pivots"] += len(pivots)
                return pivots
            return counted
        if name == "oracle.realize":
            def realize(*args, **kwargs):
                t = perf()
                try:
                    return wrapper(*args, **kwargs)
                except Exception as exc:
                    if type(exc).__name__ == "UnrealizableDiagram":
                        counters["oracle.realize.rejected"] += 1
                        counters["oracle.realize.rejected_s"] += perf() - t
                    raise
            return realize
        if name == "closure.minimal_degenerations":
            def covers(*args, **kwargs):
                found = wrapper(*args, **kwargs)
                counters["closure.covers.found"] += len(found)
                return found
            return covers
        return wrapper

    # -- one traced round ----------------------------------------------------------

    def finish(self):
        """Derive the round's per-layer figures and drop every reference to
        the round's modules."""
        self.clock.span_hook = None
        names, nid, parent = self.names, self.nid, self.parent
        n = len(nid)
        dur = array.array("d", (e - s for s, e in zip(self.start, self.end)))
        own = array.array("d", dur)
        edges = Counter()  # (child name id, parent name id) -> calls
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[i]
                edges[nid[i], nid[p]] += 1
        for span, paused in self.paused:
            if span >= 0:
                own[span] -= paused
        layer_of = [name.split(".")[0] for name in names]
        self_s = dict.fromkeys(self.layers, 0.0)
        for i, k in enumerate(nid):
            self_s[layer_of[k]] += own[i]
        calls = Counter(nid)
        by_name = {name: calls[i] for i, name in enumerate(names)}

        def child_count(child, parent_test):
            return sum(c for (k, p), c in edges.items()
                       if names[k] == child and parent_test(names[p]))

        def layer_calls(layer):
            return sum(c for name, c in by_name.items() if name.startswith(layer + "."))

        c = self.counters
        found = c["closure.covers.found"]
        counts = {
            "linalg.systems": by_name.get("linalg.echelon_pivots", 0),
            "linalg.rows": c["linalg.rows"],
            "linalg.cols": c["linalg.cols"],
            "linalg.pivots": c["linalg.pivots"],
            "linalg.rref.calls": by_name.get("linalg.rref_pivots", 0),
            "oracle.realize.calls": by_name.get("oracle.realize", 0),
            "oracle.realize.rejected": c["oracle.realize.rejected"],
            "oracle.kernel_dims": child_count("linalg.kernel_dim", lambda p: p.startswith("oracle.")),
            "oracle.bases": child_count("linalg.nullspace", lambda p: p.startswith("oracle.")),
            "oracle.defect.calls": by_name.get("oracle.defect_oracle", 0),
            "oracle.defect.trials": child_count("linalg.kernel_dim",
                                                lambda p: p == "oracle.defect_oracle"),
            "oracle.realize.cache_size": self.caches["oracle.realize"].cache_info().currsize,
            "closure.leq.calls": by_name.get("closure.leq", 0),
            "closure.covers.calls": by_name.get("closure.minimal_degenerations", 0),
            "closure.covers.found": found,
            "closure.leq_per_cover": by_name.get("closure.leq", 0) / found if found else 0.0,
            "invariants.calls": layer_calls("invariants"),
            "invariants.dim_p_cent.oracle_calls": child_count(
                "oracle.dim_p_cent_oracle", lambda p: p == "invariants.dim_p_cent"),
            "invariants.dim_p_cent.cache_size":
                self.caches["invariants.dim_p_cent"].cache_info().currsize,
            "diagrams.enumerate.calls": by_name.get("diagrams.enumerate_diagrams", 0),
            "components.candidates": child_count(
                "closure.find_reduction", lambda p: p == "components.candidate_status"),
            "selflarge.calls": layer_calls("selflarge"),
            "trace.spans": n,
        }
        self.last = (names, nid, parent, self.start, self.end, self.t0)
        self.caches = {}
        return {"counts": counts, "self_s": self_s,
                "rejected_s": c["oracle.realize.rejected_s"]}

    # -- results -------------------------------------------------------------------

    def metrics(self, rounds, traced) -> dict:
        """Per-layer metrics: counts from the first traced round; times are
        medians over traced rounds, scaled to reference seconds by each
        round's calibrated/raw ratio."""
        out = {}
        for name, value in traced[0]["layer"]["counts"].items():
            unit = "ratio" if name == "closure.leq_per_cover" else "count"
            out[name] = {"value": value, "unit": unit}

        def scaled(r, value):
            return value * r["cal"] / r["raw"] if r["raw"] else 0.0

        for layer in self.layers:
            out[f"{layer}.self_s"] = {"value": statistics.median(
                scaled(r, r["layer"]["self_s"][layer]) for r in traced), "unit": "s"}
        out["oracle.realize.rejected_s"] = {"value": statistics.median(
            scaled(r, r["layer"]["rejected_s"]) for r in traced), "unit": "s"}
        out["trace.overhead_s"] = {"value": statistics.median(r["cal"] for r in traced)
                                   - statistics.median(r["cal"] for r in rounds), "unit": "s"}
        return out

    def write_spans(self, path):
        """Spans of the last traced round, one per line: name, parent line
        (-1 for none), start and end in seconds from the round's start."""
        names, nid, parent, start, end, t0 = self.last
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tparent\tstart_s\tend_s\n")
            for i in range(len(nid)):
                fh.write(f"{names[nid[i]]}\t{parent[i]}\t{start[i] - t0:.7f}\t{end[i] - t0:.7f}\n")
