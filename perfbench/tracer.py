"""Spans and counts around the public functions of each remsum layer.

`Tracer.install` replaces every public module-level function of the layer
modules with a wrapper, in every layer namespace that holds it (so the name
`dirichlet.to_float` is wrapped as well as `exactnum.to_float`) and in the
module-level dicts that hold it (`verify.SUITES`).  `uninstall` restores the
originals.  Nothing in the package itself changes.

A span is (name, start, end, parent span index, item id, nested), kept in
memory and written out once at the end.  Very frequent operations are
recorded as counts and summed seconds instead of spans: QuadExt
construction, `to_float` and `eta_tilde`.  The scalar helpers called once
per term (`floor`, `beta`, `beta0`, `is_integer`, `is_rational`,
`as_fraction`) are arithmetic primitives, not layer boundaries, and are
left unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = ("exactnum", "cfrac", "sums", "farey", "limits", "measure",
          "dirichlet", "verify", "cli")
COUNTED = ("exactnum.to_float", "limits.eta_tilde")
UNWRAPPED = ("exactnum.floor", "exactnum.beta", "exactnum.beta0",
             "exactnum.is_integer", "exactnum.is_rational",
             "exactnum.as_fraction")
# step counts read off the return values
RESULT_COUNTS = {
    "sums.ostrowski_S": ("sums.ostrowski_steps", lambda r: len(r[1].steps)),
    "sums.bseq_S": ("sums.bseq_steps", lambda r: len(r[1].steps)),
    "sums.s0_prefix": ("sums.s0_prefix_terms", len),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.item = -1
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        # summed seconds of counted calls, by (innermost open span, layer)
        self.counted_child: Counter = Counter()
        self._active: Counter = Counter()
        self._patches: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, active = self.spans, self.stack, self._active
        on_result = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = active[name] > 0
            stack.append(idx)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.item, nested)
            if on_result:
                self.counts[on_result[0]] += on_result[1](result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        stack, counts, seconds, child = (self.stack, self.counts, self.seconds,
                                         self.counted_child)
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                counts[name] += 1
                seconds[name] += dt
                if stack:
                    child[stack[-1], layer] += dt

        return wrapper

    def _patch(self, obj, key, value, is_dict=False):
        old = obj[key] if is_dict else getattr(obj, key)
        self._patches.append((obj, key, old, is_dict))
        if is_dict:
            obj[key] = value
        else:
            setattr(obj, key, value)

    # -- install / uninstall -----------------------------------------------

    def install(self):
        mods = {n: importlib.import_module(f"remsum.{n}") for n in LAYERS}
        wrapped = {}
        for mod in mods.values():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                origin = fn.__module__.rsplit(".", 1)[-1]
                if origin not in mods or fn.__module__ != f"remsum.{origin}":
                    continue
                name = f"{origin}.{fn.__name__}"
                if name in UNWRAPPED:
                    continue
                if fn not in wrapped:
                    make = self._counter if name in COUNTED else self._span
                    wrapped[fn] = make(name, fn)
                self._patch(mod, attr, wrapped[fn])
        for mod in mods.values():
            for value in vars(mod).values():
                if isinstance(value, dict):
                    for key, fn in list(value.items()):
                        if inspect.isfunction(fn) and fn in wrapped:
                            self._patch(value, key, wrapped[fn], is_dict=True)
        quad = mods["exactnum"].QuadExt
        init = quad.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["exactnum.quadext_new"] += 1
            init(obj, *args, **kwargs)

        self._patch(quad, "__init__", counted_init)

    def uninstall(self):
        while self._patches:
            obj, key, old, is_dict = self._patches.pop()
            if is_dict:
                obj[key] = old
            else:
                setattr(obj, key, old)

    # -- derived metrics ---------------------------------------------------

    def span_seconds(self) -> Counter:
        """Inclusive seconds per function name, outermost spans only."""
        out: Counter = Counter()
        for name, t0, t1, _, _, nested in self.spans:
            if not nested:
                out[name] += t1 - t0
        return out

    def span_counts(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def self_seconds(self, layer: str, minus=("exactnum", "sums")) -> float:
        """Time inside `layer` spans that no child of a layer in `minus` covers."""
        spans = self.spans
        lay = [s[0].split(".")[0] for s in spans]
        total = 0.0
        for i, (_, t0, t1, parent, _, _) in enumerate(spans):
            if lay[i] == layer:
                # only the outermost span of the layer counts its duration
                p = parent
                while p >= 0 and lay[p] != layer:
                    p = spans[p][3]
                if p < 0:
                    total += t1 - t0
            elif lay[i] in minus and parent >= 0 and lay[parent] == layer:
                total -= t1 - t0
        for (parent, child_layer), dt in self.counted_child.items():
            if child_layer in minus and lay[parent] == layer:
                total -= dt
        return total

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, item (seconds are
        relative to the first span)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, t0, t1, parent, item, _ in self.spans:
                fh.write(json.dumps([name, round(t0 - base, 7), round(t1 - base, 7),
                                     parent, item]) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "counted_seconds": dict(self.seconds)}) + "\n")
