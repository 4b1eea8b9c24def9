"""Span tracing of the package's public functions, installed from outside.

`Tracer.install` wraps every public function defined in the traced
modules and puts the wrapper under every name that refers to it in any
module of the package, because the program calls e.g. `train_elm` and
`load_csv` through the names it imported into the calling module. Spans
are kept in memory; times are CPU seconds of this process. `uninstall`
puts the original functions back.
"""

import functools
import inspect
import sys
import time
from dataclasses import dataclass

TRACED_MODULES = ("elm", "selective", "recursive", "data", "synth", "bench", "cli")


@dataclass
class Span:
    name: str
    parent: int | None
    request: int
    start: float
    end: float = 0.0
    children_s: float = 0.0
    result: object = None
    args: tuple = ()

    @property
    def self_s(self):
        return self.end - self.start - self.children_s


class Tracer:
    def __init__(self, package, keep_results):
        self.package = package
        self.keep_results = set(keep_results)  # span names whose args/result are kept
        self.spans = []
        self._stack = []
        self._request = 0
        self.kinds = {}  # request id -> "setup", "fit", "predict" or "matrix"
        self._saved = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        keep = name in self.keep_results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, self._request, time.process_time())
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.process_time()
                if parent is not None:
                    self.spans[parent].children_s += span.end - span.start
            if keep:
                span.args, span.result = args, result
            return result

        return traced

    def install(self):
        prefix = self.package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{prefix}.{short}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        # the ensemble's own predict is a method, not a module function
        ensemble = sys.modules[f"{prefix}.recursive"].ElmEnsemble
        self._saved.append((ensemble, "predict", ensemble.predict))
        ensemble.predict = self._wrap("recursive.ElmEnsemble.predict", ensemble.predict)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def request(self, kind):
        """Start a new request id, of the given kind, for the next top-level call."""
        self._request += 1
        self.kinds[self._request] = kind


class CpuMeter:
    """CPU seconds of the outermost calls to a few functions, by kind.

    `targets` lists (owner, attribute, kind); `install` puts a timing
    wrapper under each attribute. A call made while another metered call
    runs is not timed on its own. Far lighter than `Tracer`: the timed
    run uses it to split the bench matrix's CPU time into its training
    calls and its predictions.
    """

    def __init__(self, targets):
        self.targets = targets
        self.times = {kind: [] for _, _, kind in targets}
        self._busy = False
        self._saved = []

    def _wrap(self, kind, fn):
        @functools.wraps(fn)
        def metered(*args, **kwargs):
            if self._busy:
                return fn(*args, **kwargs)
            self._busy = True
            try:
                t0 = time.process_time()
                result = fn(*args, **kwargs)
                self.times[kind].append(time.process_time() - t0)
                return result
            finally:
                self._busy = False

        return metered

    def install(self):
        for owner, attr, kind in self.targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(kind, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
