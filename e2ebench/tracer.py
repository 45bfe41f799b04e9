"""Per-layer tracing of tracesim from outside its source tree.

``install_tracesim`` wraps the functions named in ``SPEC`` by name, in every
loaded ``tracesim`` module that holds them, so calls made through
``from .x import f`` bindings are seen too.  A name that no longer exists is
reported as absent, with zero calls, instead of failing the run: the
ROADMAP folds ``_kernels`` into its callers and merges ``gl_similar`` and
``orthogonal_witness`` into one ``decide()``.

Three modes keep the cost of tracing in proportion:

* ``span``  - time the call and keep a span record (request, name, start,
              end, parent span) in memory; records are written at the end;
* ``timed`` - time the call but keep no record, for kernels called once per
              grid point;
* ``count`` - only count calls, for functions called thousands of times per
              request (``Matrix.__mul__``, ``min_rotation``), where timing
              each call would distort what it measures.

Self time is a call's duration minus the time of the timed calls nested
directly inside it, so the self times of all timed functions add up to the
time spent inside the outermost ones.  Counted calls stay in their caller's
self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

SPAN, TIMED, COUNT = "span", "timed", "count"


def _basis_sizes(args, kwargs, result):
    x = args[0]
    stars = 2 if result.with_star else 1
    return {"rows": result.n * result.n * x.d * stars, "cols": result.n * result.n,
            "dim": result.dim}


def _hit(args, kwargs, result):
    return {"hits": int(result is not None)}


def _n_words(args, kwargs, result):
    return {"words": len(result)}


def _fingerprint_words(args, kwargs, result):
    return {"words": len(result.entries)}


# (module under tracesim, attribute path, mode, size hook)
SPEC = [
    ("tupleio", "tuple_from_dict", SPAN, None),
    ("intertwiner", "gl_similar", SPAN, None),
    ("intertwiner", "intertwiner_basis", SPAN, _basis_sizes),
    ("intertwiner", "find_invertible", SPAN, _hit),
    ("orthogonal", "orthogonal_witness", SPAN, None),
    ("orthogonal", "specht_equivalent", SPAN, None),
    ("words", "enumerate_canonical", SPAN, _n_words),
    ("words", "fingerprint", SPAN, _fingerprint_words),
    ("words", "fingerprints_equal", SPAN, None),
    ("matrices", "Matrix.nullspace", SPAN, None),
    ("matrices", "Matrix.rank", SPAN, None),
    ("matrices", "Matrix.det", SPAN, None),
    ("matrices", "Matrix.inverse", SPAN, None),
    ("matrices", "solve_linear", SPAN, None),
    ("matrices", "Matrix.__mul__", COUNT, None),
    ("_kernels", "echelon_int", TIMED, None),
    ("_kernels", "det_int", TIMED, None),
    ("_kernels", "min_rotation", COUNT, None),
    ("sylvester", "sylvester_unique", SPAN, None),
    ("sylvester", "sylvester_solve", SPAN, None),
    ("sylvester", "char_poly_from_traces", SPAN, None),
    ("sylvester", "resultant", SPAN, None),
    ("matrix_units", "check_epsilon", SPAN, None),
    ("matrix_units", "theta_embedding", SPAN, None),
    ("matrix_units", "commutant", SPAN, None),
    ("matrix_units", "extract_subring_coefficients", SPAN, None),
    ("matrix_units", "UnitSystem.from_family", SPAN, None),
    ("corpus", "run_fixture", SPAN, None),
]

_SIZE_KEYS = {_basis_sizes: ("rows", "cols", "dim"), _hit: ("hit_share",),
              _n_words: ("words",), _fingerprint_words: ("words",)}


def metric_names():
    """Every per-layer metric the tracer yields, with its unit, in order."""
    return [(name, unit) for name, _, unit in layer_metrics([])]


def layer_metrics(summaries):
    """(name, value, unit) per metric, summed over worker summaries.

    Functions that are absent, or were never called, read zero.
    """
    calls, self_ms, sizes = {}, {}, {}
    for summary in summaries:
        for name, (c, ms, sz) in summary["stats"].items():
            calls[name] = calls.get(name, 0) + c
            self_ms[name] = self_ms.get(name, 0.0) + ms
            for key, value in sz.items():
                sizes[(name, key)] = sizes.get((name, key), 0) + value
    out = []
    for module, path, mode, hook in SPEC:
        base = "%s.%s" % (module, path)
        n = calls.get(base, 0)
        out.append((base + ".calls", n, "count"))
        if mode != COUNT:
            out.append((base + ".self_ms", self_ms.get(base, 0.0), "ms"))
        for key in _SIZE_KEYS.get(hook, ()):
            if key == "hit_share":
                hits = sizes.get((base, "hits"), 0)
                out.append((base + ".hit_share", hits / n if n else 0.0, "share"))
            else:
                out.append(("%s.%s" % (base, key), sizes.get((base, key), 0), "count"))
    return out


class _Stat:
    __slots__ = ("calls", "self_s", "sizes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.sizes = {}


class Tracer:
    """Call statistics and span records, all kept in memory until the end."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.spans = []       # (request, name, start, end, parent span index or -1)
        self.absent = []
        self.request_id = None
        self._stack = []      # frames: [child seconds, span index of this or nearest span]

    def stat(self, name) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def wrap(self, name, fn, mode, hook=None):
        st = self.stat(name)
        if mode == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)
            return counted

        record = mode == SPAN
        stack, spans, clock = self._stack, self.spans, self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if record:
                index = len(spans)
                spans.append(None)
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                st.calls += 1
                st.self_s += dur - frame[0]
                if record:
                    spans[index] = (self.request_id, name, start, end, parent)
            if hook is not None:
                try:
                    sizes = hook(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    sizes = {}  # the signature moved on; keep timing, drop sizes
                for key, value in sizes.items():
                    st.sizes[key] = st.sizes.get(key, 0) + value
            return result
        return timed

    def summary(self):
        """Raw statistics per wrapped name, for ``layer_metrics``."""
        return {"stats": {name: (st.calls, st.self_s * 1000.0, st.sizes)
                          for name, st in self.stats.items()},
                "absent": list(self.absent), "spans": len(self.spans)}

    def write_spans(self, path):
        """Append the span records to ``path``, one JSON array per line."""
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Self seconds per name from span records alone: duration minus direct children."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (_, name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def _resolve(module, path):
    """(owner, attribute name, current value) or None when the name is gone."""
    try:
        owner = importlib.import_module("tracesim." + module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        value = inspect.getattr_static(owner, parts[-1])
    except AttributeError:
        return None
    return owner, parts[-1], value


def install_tracesim(tracer: Tracer):
    """Wrap every SPEC function that exists; record the others as absent."""
    for module, path, mode, hook in SPEC:
        name = "%s.%s" % (module, path)
        found = _resolve(module, path)
        if found is None:
            tracer.absent.append(name)
            continue
        owner, attr, value = found
        if inspect.isclass(owner):
            if isinstance(value, staticmethod):
                setattr(owner, attr, staticmethod(tracer.wrap(name, value.__func__, mode, hook)))
            else:
                setattr(owner, attr, tracer.wrap(name, value, mode, hook))
            continue
        wrapped = tracer.wrap(name, value, mode, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tracesim" or mod_name.startswith("tracesim.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is value:
                    setattr(mod, key, wrapped)
