"""Per-layer spans and counters, recorded from outside the ewa_agg package.

`Recorder.install` rebinds every module attribute and class attribute that
holds one of the traced functions to a wrapper that records a span (id,
parent id, name, start, end). The package itself is not changed. A traced
name the package no longer defines is recorded as absent, not raised.

Spans stay in memory; `Recorder.summary` turns them into per-layer counts
and self times (span time minus the union of its children's intervals),
and `Recorder.write` dumps them to a trace file when the run ends.
"""

import functools
import inspect
import itertools
import json
import sys
import threading
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "oracle", "ewa", "model", "noise", "coupling", "bernstein")
FAMILY_CLASSES = (
    "CenteredBernoulli", "Gaussian", "BoundedBinaryMixture", "CenteredBinomial", "Laplace",
)
COLLAPSE_LEVEL = 1.0 - 1e-12

# (module, attribute): "Class.attr" names a class attribute. The span name is
# "<module>.<attribute>", with __init__ shown as "init".
TARGETS = [
    ("cli", "main"),
    ("oracle", "derived_stream"),
    ("oracle", "mc_risk"),
    *[("noise", f"{cls}.sample") for cls in FAMILY_CLASSES],
    ("noise", "DiscreteLaw.convolve"),
    ("noise", "DiscreteLaw.from_atoms"),
    ("noise", "max_atom_probability_error"),
    ("ewa", "posterior_weights"),
    ("ewa", "aggregate"),
    ("ewa", "posterior_variance"),
    ("model", "WeightVector.from_log_weights"),
    ("model", "WeightVector.__init__"),
    ("model", "Dictionary.__init__"),
    ("coupling", "verify_coupling"),
    ("coupling", "couple_gaussian"),
    ("coupling", "couple_laplace"),
    ("coupling", "exact_coupled_sum_law"),
    ("coupling", "max_conditional_mean_error"),
    ("coupling", "conditional_zeta_laws"),
    ("bernstein", "check_noise_mgf"),
    ("bernstein", "mgf_bound_check"),
]

# Spans of these functions are named after the `method` field of the report
# they return, so each checking method gets its own row.
SPLIT_BY_METHOD = {
    "coupling.verify_coupling": ("exact", "ks", "cf_grid"),
    "bernstein.mgf_bound_check": ("exact", "sampled"),
}


def span_name(module, attr):
    return f"{module}.{attr.replace('__init__', 'init')}"


def span_rows():
    """Every span row the summary reports, split rows expanded."""
    rows = []
    for module, attr in TARGETS:
        name = span_name(module, attr)
        if name in SPLIT_BY_METHOD:
            rows.extend(f"{name}.{method}" for method in SPLIT_BY_METHOD[name])
        else:
            rows.append(name)
    return rows


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


class Recorder:
    def __init__(self):
        self.spans = []  # (id, parent id or 0, name, start, end)
        self.absent = []
        self.counters = defaultdict(float)
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool thread's first span belongs to the span that is waiting on it
        main = self._stacks.get(self._main)
        return main[-1] if main else 0

    def _wrap(self, name, fn):
        rec = self
        split = name in SPLIT_BY_METHOD
        observe = self._observe_posterior if name == "ewa.posterior_weights" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = rec._parent(stack)
            sid = next(rec._ids)
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                method = getattr(result, "method", None) if split else None
                label = f"{name}.{method}" if method else name
                rec.spans.append((sid, parent, label, start, end))
                if observe is not None and result is not None:
                    observe(args, kwargs, result)

        return traced

    def _observe_posterior(self, args, kwargs, result):
        """Numerical-health counters of one returned posterior; skipped when
        the call or its result no longer has the shape read here."""
        try:
            w = np.asarray(result.weights.weights)
            prior = np.asarray(_arg(args, kwargs, 2, "prior").weights)
            atoms = _arg(args, kwargs, 1, "dictionary").atoms
        except (AttributeError, IndexError, KeyError):
            return
        with self._lock:
            self.counters["posteriors"] += 1
            self.counters["effective_atoms"] += 1.0 / float(w @ w)
            self.counters["collapsed"] += float(w.max() > COLLAPSE_LEVEL)
            self.counters["underflowed"] += float(np.any((w == 0.0) & (prior > 0.0)))
            self.counters["bytes_computed"] += atoms.nbytes

    def install(self, package="ewa_agg"):
        """Wrap every target, rebinding each attribute that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            module = sys.modules.get(f"{package}.{module_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = inspect.getattr_static(owner, member, None) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, member, type(raw)(self._wrap(name, raw.__func__)))
            elif owner_name:
                setattr(owner, member, self._wrap(name, raw))
            else:
                wrapper = self._wrap(name, raw)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapper)

    def count_warnings(self):
        """Count RuntimeWarnings by the package module that raised them;
        every occurrence counts, none is printed."""
        warnings.simplefilter("always")
        shown = warnings.showwarning

        def showwarning(message, category, filename, lineno, file=None, line=None):
            if not issubclass(category, RuntimeWarning):
                shown(message, category, filename, lineno, file, line)
                return
            path = Path(filename)
            if path.parent.name == "ewa_agg" and path.stem in LAYERS:
                with self._lock:
                    self.counters[f"{path.stem}.runtime_warnings"] += 1

        warnings.showwarning = showwarning

    def summary(self, passes):
        """Per-pass calls and self seconds of every span row, plus the
        counters, as {name: (value, unit)}."""
        children = defaultdict(list)
        for _sid, parent, _name, start, end in self.spans:
            if parent:
                children[parent].append((start, end))
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, _parent, name, start, end in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            calls[name] += 1
            self_s[name] += end - start - covered
        out = {}
        for row in span_rows():
            out[f"{row}.calls"] = (calls[row] / passes, "count")
            out[f"{row}.self_s"] = (self_s[row] / passes, "s")
        c = self.counters
        seen = c["posteriors"] or 1.0
        out["ewa.posterior_weights.bytes_computed"] = (c["bytes_computed"] / passes, "B")
        out["ewa.effective_atoms_mean"] = (c["effective_atoms"] / seen, "atoms")
        out["ewa.posterior_collapsed_share"] = (c["collapsed"] / seen, "share")
        out["ewa.weights_underflowed_share"] = (c["underflowed"] / seen, "share")
        for layer in LAYERS:
            out[f"{layer}.runtime_warnings"] = (c[f"{layer}.runtime_warnings"] / passes, "count")
        return out

    def write(self, path, meta):
        doc = {
            "meta": meta,
            "absent": self.absent,
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
        Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")
