"""Outside-in tracing of dmkit's layers.

The benchmark does not change dmkit.  Instead it swaps wrappers into the
module namespaces for the duration of a traced cycle:

- every public function of lti, specnorm, classical, disk and multiloop,
  in every dmkit module namespace that binds it (so calls between
  modules and within one module are both seen), plus cli.main;
- the scipy/numpy kernels dmkit calls directly: scipy.optimize.brentq,
  minimize_scalar and minimize, and numpy.linalg svd, solve, eigvals,
  eig, eigvalsh, inv and det.  A kernel span is recorded only when the
  immediate caller is dmkit code, so these are direct-call counts;
  numpy-internal uses (such as the eigvals inside np.roots) are not seen.

Spans live in memory (name, parent, start, end, analysis) and are
written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children.  Counts that need a
layer's result (crossover frequencies found by classical_margins) are
taken at the same boundary.
"""

import gzip
import importlib
import sys
import time

import numpy.linalg
import scipy.optimize

LAYER_MODULES = ("lti", "specnorm", "classical", "disk", "multiloop")
ALL_MODULES = ("dmkit",) + tuple("dmkit." + m for m in LAYER_MODULES + ("cli", "errors"))
LINALG = ("svd", "solve", "eigvals", "eig", "eigvalsh", "inv", "det")
SCIPY = ("brentq", "minimize_scalar", "minimize")


def _crossings(result):
    return len(result.gain_crossover_freqs) + len(result.phase_crossover_freqs)


# counts taken from a layer's result at its boundary: {layer: (counter, fn)}
RESULT_COUNTS = {"classical.classical_margins": ("classical.crossings", _crossings)}


class Tracer:
    def __init__(self):
        self.counts = {c: 0 for c, _ in RESULT_COUNTS.values()}
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.analyses = []
        self.analysis = -1
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.analyses.append(self.analysis)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _layer(self, name, fn):
        span = self._span
        counter, count = RESULT_COUNTS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            result = span(name, fn, args, kwargs)
            if counter:
                self.counts[counter] += count(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, name, fn):
        span = self._span
        getframe = sys._getframe

        def wrapper(*args, **kwargs):
            if getframe(1).f_globals.get("__name__", "").startswith("dmkit"):
                return span(name, fn, args, kwargs)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        """Swap wrappers in; uninstall() restores every binding."""
        mods = [importlib.import_module(m) for m in ALL_MODULES]
        wrappers = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module("dmkit." + short)
            for attr, fn in vars(mod).items():
                if (callable(fn) and not isinstance(fn, type) and not attr.startswith("_")
                        and getattr(fn, "__module__", None) == mod.__name__):
                    wrappers[id(fn)] = self._layer("{}.{}".format(short, attr), fn)
        cli = importlib.import_module("dmkit.cli")
        wrappers[id(cli.main)] = self._layer("cli.main", cli.main)
        for name in SCIPY:
            fn = getattr(scipy.optimize, name)
            wrappers[id(fn)] = self._kernel("scipy." + name, fn)
            self._set(scipy.optimize, name, wrappers[id(fn)])
        for name in LINALG:
            fn = getattr(numpy.linalg, name)
            self._set(numpy.linalg, name, self._kernel("linalg." + name, fn))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._set(mod, attr, w)

    def uninstall(self):
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)

    # -- results -----------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.names)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        for p, d in zip(self.parents, dur):
            if p >= 0:
                child[p] += d
        return [d - c for d, c in zip(dur, child)]

    def summary(self):
        """{name: (calls, self seconds)} over every span."""
        out = {}
        for name, st in zip(self.names, self.self_times()):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + st)
        return out

    def count_under(self, name, ancestor, direct=False):
        """Spans called name whose parent (direct=True) or any ancestor is
        a span called ancestor."""
        inside = [False] * len(self.names)
        n = 0
        for i, (nm, p) in enumerate(zip(self.names, self.parents)):
            up = p >= 0 and (self.names[p] == ancestor if direct else
                             (inside[p] or self.names[p] == ancestor))
            inside[i] = up
            if up and nm == name:
                n += 1
        return n

    def write(self, path):
        """Spans as gzip-compressed CSV; times in seconds from the first span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,parent,analysis,name,start_s,end_s\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, (nm, p, a, s, e) in enumerate(zip(
                    self.names, self.parents, self.analyses, self.starts, self.ends)):
                fh.write("{},{},{},{},{:.7f},{:.7f}\n".format(i, p, a, nm, s - t0, e - t0))
