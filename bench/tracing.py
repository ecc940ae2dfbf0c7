"""Span tracing of certmap's layers from outside the program.

`Tracer.install` replaces every public function of each certmap module (the
names in its ``__all__``) with a wrapper that records a span: name, start,
end, the span that was open when it was called, and an optional work count.
The replacement is made on every module attribute bound to the original
function, so a name imported with ``from .fit import fit_volume`` is traced
too. Spans stay in memory until `write` puts them in a TSV file.

A few wrappers also read the library's return values at the boundary, so
voxel counts and boundary/flag counters come from the outputs themselves.
Spans recorded inside fork-pool workers stay in those workers and are lost;
the parent's span around the pool covers their time.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import os
import time

LAYERS = ("volume", "special", "model", "fit", "certainty", "thresholding",
          "simulate", "cli")

# unexported functions that carry a stage of their own: certainty_volume
# reaches the threshold search through _optimal_threshold_impl, not through
# the public optimal_threshold, and run_simulation scores through score_fit
EXTRA = {"certainty": ("_optimal_threshold_impl",), "simulate": ("score_fit",)}

# fitted values within this distance of a bound count as sitting on it
BOUNDARY_EPS = 1e-6


def _fit_counts(fits, counts):
    from certmap.fit import DELTA_CAP
    counts["fit.voxels"] += fits.n_masked
    counts["fit.not_converged"] += int((~fits.converged).sum())
    counts["fit.delta_floor"] += int((fits.delta < 1.0 + BOUNDARY_EPS).sum())
    counts["fit.delta_cap"] += int((fits.delta > DELTA_CAP - BOUNDARY_EPS).sum())
    counts["fit.lam_zero"] += int((fits.lam < BOUNDARY_EPS).sum())
    return fits.n_masked


def _certainty_counts(maps, counts):
    from certmap import certainty
    counts["certainty.voxels"] += maps.n_masked
    counts["certainty.degenerate_tau"] += int(
        ((maps.flags & certainty.FLAG_DEGENERATE_TAU) != 0).sum())
    counts["certainty.bad_tau"] += int(((maps.flags & certainty.FLAG_BAD_TAU) != 0).sum())
    return maps.n_masked


def _file_bytes(path, counts):
    size = os.path.getsize(path)
    counts["volume.bytes"] += size
    return size


# work count of one call, from its arguments and result; also feeds counters
WORK = {
    "fit.fit_volume": lambda a, r, c: _fit_counts(r, c),
    "certainty.certainty_volume": lambda a, r, c: _certainty_counts(r, c),
    "simulate.generate_replications": lambda a, r, c: r.pvalues.size,
    "simulate.score_fit": lambda a, r, c: len(a[0]),
    "volume.read_container": lambda a, r, c: _file_bytes(a[0], c),
    "volume.write_container": lambda a, r, c: _file_bytes(a[1], c),
    "thresholding.threshold_with_frontier": lambda a, r, c: r.decisions.size,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, work]
        self.counts = collections.Counter()
        self._stack = [0]
        self._replaced = []  # (module, attribute, original)

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        sid = len(self.spans) + 1
        rec = [sid, self._stack[-1], name, time.perf_counter(), 0.0, 0]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()
        work = WORK.get(name)
        if work is not None:
            rec[5] = work(args, result, self.counts)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Trace every public function of every layer, wherever it is bound."""
        modules = {layer: importlib.import_module(f"certmap.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            names = [*getattr(module, "__all__", ()), *EXTRA.get(layer, ())]
            for name in names:
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn):
                    continue
                traced = self._wrap(f"{layer}.{name}", fn)
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            self._replaced.append((other, attr, fn))
                            setattr(other, attr, traced)

    def uninstall(self):
        for module, attr, fn in reversed(self._replaced):
            setattr(module, attr, fn)
        self._replaced = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, work in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\t{work}\n")


def read_spans(path):
    spans = []
    with open(path) as fh:
        for line in fh:
            sid, parent, name, start, end, work = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, float(start), float(end), int(work)))
    return spans


def self_times(spans):
    """Seconds of self time per layer: each span's duration minus the time
    its child spans cover (children of one thread nest, so their durations
    add up to the covered time)."""
    child = {}
    for _, parent, _, start, end, _ in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    out = {layer: 0.0 for layer in LAYERS}
    for sid, _, name, start, end, _ in spans:
        out[name.split(".", 1)[0]] += (end - start) - child.get(sid, 0.0)
    return out
