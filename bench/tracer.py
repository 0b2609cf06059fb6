"""Runtime span tracer for the shiftcalc modules.

`Tracer.install` replaces every public function and public method of the
library modules with a wrapper, in place, so no source file changes.  A
name that one module imports from another (``word_rank`` in ``codes``, the
capacity guard bound as ``_check_capacity``) is a separate binding and is
wrapped too, with the same wrapper as the original, so each call is counted
once under the module that defines the function.

Each wrapped call counts towards its function's calls, self time and
inclusive time.  While `recording` is set it also records a span (name,
start, end, parent, op) in flat arrays that stay in memory until
`write_spans`.  A span's self time is its duration minus the time covered by
its child spans; the per-word helpers in `COUNT_ONLY` record a call count
and no span, and their time lands in the self time of the calling span.
"""
from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import Counter

# Per-word helpers: called millions of times, so a span each would dwarf
# the work being traced.
COUNT_ONLY = {
    "words.word_rank",
    "words.word_unrank",
    "codes.SlidingBlockCode.local",
    "codes.SlidingBlockCode.output",
}

ROOT = "bench.op"


def _cells_refine(args, kwargs, result, tally):
    tally["words.refine_cells"] += len(result.coeffs)


def _cells_adjoint(args, kwargs, result, tally):
    u, x = args
    tally["unitaries.adjoint_action_cells"] += u.n ** max(u.level, x.level)


def _peak_capacity(args, kwargs, result, tally):
    tally["capacity.peak_cells"] = max(tally["capacity.peak_cells"], result)


def _found(key):
    def hook(args, kwargs, result, tally):
        tally[key] += result is not None

    return hook


# Counters read off a call's arguments or result, keyed by qualified name.
HOOKS = {
    "words.refine": _cells_refine,
    "unitaries.adjoint_action": _cells_adjoint,
    "capacity.check": _peak_capacity,
    "codes.en_inverse_search": _found("codes.en_inverse_found"),
    "codes.one_sided_automorphism_check": _found("codes.automorphism_accepted"),
}


class Tracer:
    """Span and count recorder; wrappers are installed into live modules."""

    def __init__(self):
        self.names = [ROOT]
        self.ids = {ROOT: 0}
        self.calls = [0]
        self.self_s = [0.0]
        self.incl_s = [0.0]
        self.depth = [0]
        self.tally = Counter()
        self.op = -1
        self.recording = True
        # span columns; a span's id is its index
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span id, name id, start, child time]
        self._restore = []

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.depth):
                column.append(0)
            for column in (self.self_s, self.incl_s):
                column.append(0.0)
        return self.ids[name]

    def _enter(self, fid):
        sid = -1
        if self.recording:
            sid = len(self.span_name)
            self.span_name.append(fid)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        self.calls[fid] += 1
        self.depth[fid] += 1
        self._stack.append([sid, fid, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        sid, fid, start, child = self._stack.pop()
        if sid >= 0:
            self.span_start[sid] = start
            self.span_end[sid] = end
        duration = end - start
        self.self_s[fid] += duration - child
        self.depth[fid] -= 1
        if not self.depth[fid]:  # only the outermost of nested calls
            self.incl_s[fid] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def run_op(self, index, fn, *args):
        """Run one benchmark op under a root span tagged with its index."""
        self.op = index
        self._enter(0)
        try:
            return fn(*args)
        finally:
            self._exit()

    def _wrap(self, fn, name):
        fid = self._id(name)
        if name in COUNT_ONLY:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[fid] += 1
                return fn(*args, **kwargs)

            return counted
        hook = HOOKS.get(name)
        enter, leave, tally = self._enter, self._exit, self.tally

        def spanned(*args, **kwargs):
            enter(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if hook is not None:
                hook(args, kwargs, result, tally)
            return result

        return spanned

    def install(self, modules):
        """Wrap the public functions and methods of `modules` in place.

        `modules` maps layer name to module object; a function belongs to
        the layer whose module defines it.
        """
        layer_of = {module.__name__: layer for layer, module in modules.items()}
        wrappers = {}

        def wrapper_for(fn, qualname):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, qualname)
            return wrappers[fn]

        def patch(owner, attr, value):
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                home = layer_of.get(getattr(obj, "__module__", None))
                if home is None or attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and not obj.__name__.startswith("_"):
                    patch(module, attr, wrapper_for(obj, "%s.%s" % (home, obj.__name__)))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            qual = "%s.%s.%s" % (home, obj.__name__, meth)
                            patch(obj, meth, wrapper_for(fn, qual))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_totals(self):
        """{layer: (self seconds, calls)}, the root span under "bench"."""
        out = {}
        for fid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            s, c = out.get(layer, (0.0, 0))
            out[layer] = (s + self.self_s[fid], c + self.calls[fid])
        return out

    def inclusive(self, name):
        fid = self.ids.get(name)
        return self.incl_s[fid] if fid is not None else 0.0

    def count(self, name):
        fid = self.ids.get(name)
        return self.calls[fid] if fid is not None else 0

    def write_spans(self, path):
        """Gzipped, one tab-separated line per recorded span: id, parent, op,
        name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for sid in range(len(self.span_name)):
                out.write(
                    "%d\t%d\t%d\t%s\t%.9f\t%.9f\n"
                    % (
                        sid,
                        self.span_parent[sid],
                        self.span_op[sid],
                        names[self.span_name[sid]],
                        self.span_start[sid],
                        self.span_end[sid],
                    )
                )
