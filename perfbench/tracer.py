"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of the ``deza`` modules at every
name their callers resolve (``deza.census.canon_data``,
``deza.canon.refine``, ``deza.cli.char_poly``, ...), so no file under
``src/`` changes.  Each wrapped call is a span: name, start, end, parent
span and the benchmark item it ran for.  Spans stay in memory and are
written once, at the end of the run.

Hot leaves (``refine``, ``canon_data``) would produce hundreds of
thousands of spans, so their calls are folded into one aggregate node per
(parent, name): call count, total time and time in child spans, which
keeps self time computable.  Generators (``generate_regular``) get one
span whose busy time is the sum of the intervals spent inside the
generator, not the time the consumer holds it.

Spans inside pool worker processes are out of scope: the wrappers are
removed in a forked child, and the pool is measured from outside by wall
time and the children's CPU time.
"""

import functools
import inspect
import json
import os
import resource
import sys
import time
import types
from collections import Counter, defaultdict

# layer name -> public functions wrapped in that layer
LAYERS = {
    "census": ("generate_regular", "build_record", "census", "audit_theorem"),
    "canon": ("refine", "canon_data", "canonical_certificate"),
    "spectra": ("char_poly", "factor_adjacency_poly", "ddg_spectrum_check",
                "adjacency_square_identity"),
    "classify": ("classify",),
    "ddg": ("ddg_detect", "class_audits"),
    "graph6": ("encode_graph6", "decode_graph6"),
    "sieve": ("deza_sieve", "ddg_sieve", "scan_n2_tuples",
              "scan_small_n_tuples"),
    "catalog": ("verify_catalog", "construct"),
    "cli": ("main",),
}
HOT = {"canon.refine", "canon.canon_data"}
MODULES = ("deza", "deza.census", "deza.canon", "deza.spectra",
           "deza.classify", "deza.ddg", "deza.graph6", "deza.sieve",
           "deza.catalog", "deza.cli")


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Collects spans for one traced pass; install() patches, uninstall()
    restores every patched attribute."""

    def __init__(self):
        self.clock = time.perf_counter
        self.item = None
        self._next_id = 1
        # a frame is [span id, time spent in child spans]
        self.stack = [[0, 0.0]]
        self.spans = []
        self.nodes = {}
        self.counts = Counter()
        self._patches = []

    def _new_id(self):
        sid = self._next_id
        self._next_id += 1
        return sid

    def _node(self, parent, name):
        node = self.nodes.get((parent, name))
        if node is None:
            node = {"id": self._new_id(), "name": name, "parent": parent,
                    "item": self.item, "calls": 0, "total_s": 0.0,
                    "child_s": 0.0}
            self.nodes[(parent, name)] = node
        return node

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1]
        if name in HOT:
            node = self._node(parent[0], name)
            frame = [node["id"], 0.0]
        else:
            node = None
            frame = [self._new_id(), 0.0]
        self.stack.append(frame)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self.stack.pop()
            parent[1] += t1 - t0
            if node is not None:
                node["calls"] += 1
                node["total_s"] += t1 - t0
                node["child_s"] += frame[1]
            else:
                self.spans.append({"id": frame[0], "name": name,
                                   "start": t0, "end": t1,
                                   "parent": parent[0], "item": self.item,
                                   "busy_s": t1 - t0, "child_s": frame[1]})

    def generate(self, name, fn, args, kwargs):
        """Drive generator fn, charging only the time spent inside it."""
        parent = self.stack[-1]
        span = {"id": self._new_id(), "name": name, "start": self.clock(),
                "end": None, "parent": parent[0], "item": self.item,
                "busy_s": 0.0, "child_s": 0.0, "yielded": 0,
                "args": [a for a in args if isinstance(a, int)],
                "prune": str(kwargs.get("prune"))}
        self.spans.append(span)
        it = fn(*args, **kwargs)
        try:
            while True:
                frame = [span["id"], 0.0]
                self.stack.append(frame)
                t0 = self.clock()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    dt = self.clock() - t0
                    self.stack.pop()
                    parent[1] += dt
                    span["busy_s"] += dt
                    span["child_s"] += frame[1]
                span["yielded"] += 1
                yield value
        finally:
            it.close()
            span["end"] = self.clock()

    def _wrap(self, caller, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.generate(name, fn, args, kwargs)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[(caller, name)] += 1
            result = tracer.call(name, fn, args, kwargs)
            if caller == "census" and name == "canon.canon_data":
                # the census accepts a child only when its new, last vertex
                # lies in the canonical last orbit
                tracer.counts["last_orbit.accepted"] += (
                    args[0].v - 1 in result.last_orbit)
            elif name in ("sieve.deza_sieve", "sieve.ddg_sieve"):
                tracer.counts["sieve.infeasible"] += not result.feasible
            return result
        return wrapper

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        mods = {m: sys.modules[m] for m in MODULES}
        for layer, names in LAYERS.items():
            home = mods["deza." + layer]
            for fname in names:
                fn = getattr(home, fname)
                for mname, mod in mods.items():
                    if getattr(mod, fname, None) is fn:
                        caller = mname.rpartition(".")[2]
                        self._patch(mod, fname,
                                    self._wrap(caller, f"{layer}.{fname}",
                                               fn))
        census_mod = mods["deza.census"]
        self._patch(census_mod, "multiprocessing", types.SimpleNamespace(
            Pool=functools.partial(_TimedPool, self,
                                   census_mod.multiprocessing.Pool)))
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for node in self.nodes.values():
                fh.write(json.dumps(node) + "\n")

    def layer_metrics(self):
        """Per-name calls, busy and self seconds over spans and nodes."""
        calls = Counter()
        busy = defaultdict(float)
        self_s = defaultdict(float)
        for s in self.spans:
            if s["name"] == "census.pool":
                continue
            calls[s["name"]] += 1
            busy[s["name"]] += s["busy_s"]
            self_s[s["name"]] += s["busy_s"] - s["child_s"]
        for n in self.nodes.values():
            calls[n["name"]] += n["calls"]
            busy[n["name"]] += n["total_s"]
            self_s[n["name"]] += n["total_s"] - n["child_s"]
        return calls, busy, self_s


class _TimedPool:
    """multiprocessing.Pool stand-in that records the pool's wall time and
    the CPU time of its (reaped) worker processes."""

    def __init__(self, tracer, pool_factory, processes):
        self._tracer = tracer
        self._pool = pool_factory(processes)
        self._jobs = processes
        self._t0 = tracer.clock()
        self._cpu0 = _children_cpu()

    def __enter__(self):
        return self._pool.__enter__()

    def __exit__(self, *exc):
        # Pool.__exit__ terminates and joins the workers, so their CPU
        # time is in RUSAGE_CHILDREN once it returns
        result = self._pool.__exit__(*exc)
        tr = self._tracer
        tr.spans.append({"id": tr._new_id(), "name": "census.pool",
                         "start": self._t0, "end": tr.clock(),
                         "parent": tr.stack[-1][0], "item": tr.item,
                         "jobs": self._jobs,
                         "child_cpu_s": _children_cpu() - self._cpu0})
        return result
