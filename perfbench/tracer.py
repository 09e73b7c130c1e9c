"""Per-layer tracing by wrapping oclab's public functions where callers bind them.

``Tracer.install`` replaces every public function of the five layer modules
(harness, constructors, certify, linalg, serialize) in each oclab module
that binds it, so a call such as ``oclab.harness.density_certificate`` or
``oclab.constructors.riesz_step`` opens a span.  ``uninstall`` puts the
original objects back.  Spans are kept in memory; ``summary`` turns them into
self time and call counts per function and per layer, and ``write`` dumps
them as JSON.

Some calls are left unwrapped, so that the trace does not measure its own
overhead; their time is self time of the public caller:

- private helpers, e.g. ``_int_rank`` inside ``all_subsets_full_rank``;
- the per-scalar codec ``serialize.frac_str`` / ``parse_frac`` (~440k calls
  per pass on the certificates workload);
- ``to_jsonable`` and ``canonical_json`` where serialize itself binds them:
  they are the recursive walker and the encoder under ``certificate`` and
  ``digest`` (~1.1M ``to_jsonable`` calls per pass on certificates), so they
  are traced only where other modules call them.

A call to a function already on the span stack passes straight through.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
import inspect
import json
import time

LAYERS = ("harness", "constructors", "certify", "linalg", "serialize")
BINDING_MODULES = ("oclab", "oclab.cli") + tuple(f"oclab.{layer}" for layer in LAYERS)
UNTRACED = frozenset({"serialize.frac_str", "serialize.parse_frac"})
TRACED_OUTSIDE_OWN_MODULE = frozenset({"serialize.to_jsonable", "serialize.canonical_json"})


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


# Counters read from public return values, keyed by span name.
def _observe_fd_overcomplete(tracer, vectors):
    tracer.counts["constructors.fd_overcomplete.accepted"] += len(vectors)


def _observe_all_subsets(tracer, result):
    tracer.counts["certify.all_subsets_full_rank.subsets"] += result[0]


def _observe_nullspace(tracer, basis):
    bits = max((_bits(c) for v in basis for c in v.coords), default=0)
    tracer.raise_max("linalg.nullspace_exact.max_bits", bits)


def _observe_rank(tracer, result):
    bits = max((abs(step[2]).bit_length() for step in result.log.steps), default=0)
    tracer.raise_max("linalg.rank_exact.max_pivot_bits", bits)


def _observe_emit(tracer, payload):
    tracer.counts["serialize.report_bytes"] += len(payload.encode("utf-8"))


OBSERVERS = {
    "constructors.fd_overcomplete": _observe_fd_overcomplete,
    "certify.all_subsets_full_rank": _observe_all_subsets,
    "linalg.nullspace_exact": _observe_nullspace,
    "linalg.rank_exact": _observe_rank,
    "harness.emit_report": _observe_emit,
}


def public_functions() -> list:
    """(span name, function) for every traced function, in a fixed order."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"oclab.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            name = f"{layer}.{attr}"
            if inspect.isfunction(fn) and name not in UNTRACED:
                out.append((name, fn))
    return out


def bindings() -> dict:
    """Every function bound in the modules the tracer patches, by (module, name)."""
    out = {}
    for name in BINDING_MODULES:
        for attr, value in vars(importlib.import_module(name)).items():
            if inspect.isfunction(value):
                out[(name, attr)] = value
    return out


class Tracer:
    """Span recorder for one traced pass; use as a context manager."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []  # [name index, parent span index, item, start, end]
        self.counts = defaultdict(int)
        self.item = None
        self.patched: list = []  # (module, attribute, original)
        self._stack = [-1]

    def raise_max(self, key, value):
        if value > self.counts[key]:
            self.counts[key] = value

    def install(self):
        if self.patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in BINDING_MODULES]
        for name, fn in public_functions():
            state = {"active": False, "id": len(self.names)}
            self.names.append(name)
            own = f"oclab.{name.partition('.')[0]}"
            for module in modules:
                if name in TRACED_OUTSIDE_OWN_MODULE and module.__name__ == own:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        binder = module.__name__.rpartition(".")[2]
                        wrapper = self._wrap(name, fn, state, f"{name}@{binder}")
                        setattr(module, attr, wrapper)
                        self.patched.append((module, attr, fn))

    def uninstall(self):
        while self.patched:
            module, attr, fn = self.patched.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn, state, binding_key):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        name_id = state["id"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if state["active"]:
                return fn(*args, **kwargs)
            state["active"] = True
            counts[binding_key] += 1
            span = [name_id, stack[-1], self.item, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                state["active"] = False
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def summary(self) -> dict:
        """Self seconds and calls per function, self seconds per layer."""
        child = [0.0] * len(self.spans)
        for name_id, parent, _item, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i, (name_id, _parent, _item, start, end) in enumerate(self.spans):
            self_s[name_id] += (end - start) - child[i]
            calls[name_id] += 1
        functions = {
            name: {"s": self_s[i], "calls": calls[i]} for i, name in enumerate(self.names)
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for name, rec in functions.items():
            layers[name.partition(".")[0]] += rec["s"]
        return {"functions": functions, "layers": layers, "counts": dict(self.counts)}

    def write(self, path, items):
        """Dump the spans: names, item labels and [name, parent, item, start, end]."""
        origin = self.spans[0][3] if self.spans else 0.0
        rows = [
            [n, p, it, round(s - origin, 7), round(e - origin, 7)]
            for n, p, it, s, e in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "items": items, "spans": rows}, fh, separators=(",", ":"))
