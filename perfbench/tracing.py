"""Spans around calls into each layer of chaos_edge, for the traced run only.

Each listed function is wrapped, and every module attribute, class
attribute or module-level dict value bound to the original is replaced by
the wrapper, so calls made through ``from .x import y`` are caught too.  A
span is (id, name, start, end, parent id, thread); spans stay in memory and
are written out when the run ends.  Spans opened in the sweep's pool threads
have no parent: the pool does not carry the caller's span across threads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, function or Class.method) pairs; metric names are module.function
LAYERS = {
    "boundary": ("locate_boundary", "classify_probe", "classify_stunted",
                 "plateau_orbit_analysis", "zero_entropy_certificate",
                 "verify_zero_certificate", "classify_quadratic", "classify_float_generic"),
    "markov": ("build_markov", "cycle_analysis"),
    "entropy": ("verify_witness", "positive_entropy_witness", "entropy_markov",
                "spectral_radius", "entropy_lap", "lap_series"),
    "piecewise": ("advance_pieces", "PieceCursor.level"),
    "periods": ("periodic_points", "period_set"),
    "renorm": ("cascade_trace", "find_restrictive", "renormalize", "feigenbaum_delta"),
    "symbolic": ("kneading", "psi"),
    "cli": ("main", "cmd_entropy", "cmd_periods", "cmd_kneading", "cmd_shape", "cmd_psi",
            "cmd_renorm", "cmd_feigenbaum", "cmd_boundary", "cmd_sweep"),
    "maps": ("build_stunted",),
}


def _probe_counts(result):
    return {"boundary.probes": 1, "boundary.undecided": int(result.kind == "undecided")}


# counters read from return values
COUNTERS = {
    "markov.build_markov": lambda r: {"markov.states": r.size},
    "piecewise.PieceCursor.level": lambda r: {"piecewise.pieces": len(r)},
    "entropy.lap_series": lambda r: {"entropy.lap_levels": len(r[0])},
    "boundary.classify_probe": _probe_counts,
}
COUNTER_NAMES = ("markov.states", "piecewise.pieces", "entropy.lap_levels",
                 "boundary.probes", "boundary.undecided")


def span_names():
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._found = None
        self._undo = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if count is not None:
                with self._lock:
                    for key, value in count(result).items():
                        self.counts[key] += value
            return result

        return traced

    def _targets(self):
        """(name, owner, attribute, original) for each listed function that exists."""
        if self._found is not None:
            return self._found
        self._found = []
        for mod_name, fns in LAYERS.items():
            try:
                mod = importlib.import_module(f"chaos_edge.{mod_name}")
            except ImportError:
                self.absent.extend(f"{mod_name}.{fn}" for fn in fns)
                continue
            for fn_name in fns:
                owner, attr = mod, fn_name
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    owner = getattr(mod, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if callable(original):
                    self._found.append((f"{mod_name}.{fn_name}", owner, attr, original))
                else:
                    self.absent.append(f"{mod_name}.{fn_name}")
        return self._found

    def install(self):
        """Bind a wrapper wherever a listed function is bound."""
        swap = {}
        for name, owner, attr, original in self._targets():
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            self._undo.append((None, owner, attr, original))
            swap[id(original)] = (original, wrapper)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for table in [namespace] + [v for v in namespace.values() if isinstance(v, dict)]:
                for key, value in list(table.items()):
                    hit = swap.get(id(value))
                    if hit is not None and hit[0] is value:
                        table[key] = hit[1]
                        self._undo.append((table, None, key, value))

    def uninstall(self):
        """Put every original back where install() bound a wrapper."""
        for table, owner, key, original in reversed(self._undo):
            if owner is not None:
                setattr(owner, key, original)
            else:
                table[key] = original
        self._undo.clear()

    def layer_times(self, factor_at):
        """Per span name: (inclusive seconds, self seconds, calls), each span's
        seconds multiplied by factor_at(its start).

        Inclusive time skips spans nested in a span of the same name, so
        recursion is not counted twice; self time subtracts the child spans.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for sid, name, start, end, parent, _ in self.spans:
            row = out[name]
            factor = factor_at(start)
            row[2] += 1
            row[1] += ((end - start) - child_time[sid]) * factor
            ancestor = parent
            while ancestor is not None and by_id[ancestor][1] != name:
                ancestor = by_id[ancestor][4]
            if ancestor is None:
                row[0] += (end - start) * factor
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent, "counts": dict(self.counts)}) + "\n")
            for sid, name, start, end, parent, thread in sorted(self.spans):
                fh.write(json.dumps([sid, name, round(start, 7), round(end, 7),
                                     parent, thread]) + "\n")
