"""Outside-in tracer: wraps monocurve's public names where callers look them up.

Nothing under ``src/`` knows about it.  `Tracer.install` replaces module
attributes and class methods with wrappers that record spans (name, start,
end, parent id) in memory, or only count calls for functions that run more
than about 10^5 times per run, where a span each would cost more than the
work.  `Tracer.uninstall` puts every original back.  `Tracer.metrics`
turns the spans into per-layer self times: a span's duration minus the
time covered by its child spans.

Worker processes of a pool inherit the wrappers through fork, but their
spans stay in the worker; only the spans of the process that installed the
tracer are reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

# The layers are the modules scalars, poly, order, ideals, curve, groebner,
# verify and cli; a span's layer is its name's first component.  Two have no
# timed spans: `scalars` has no public boundary on the rational path
# (coefficients are plain fractions.Fraction) and `order.leading_term` is
# only counted, so their cost shows in their callers' self time.  `render`
# runs inside `verify`.
TIMED_LAYERS = ("poly", "ideals", "curve", "groebner", "verify", "cli")


def _verify_label(fn):
    """Span name `verify.<suite>.d<d>` for a suite entry point; the variant of
    `leading` that adjoins f_1..f_k is called `leading_f`."""
    sig = inspect.signature(fn)

    def name(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if fn.__name__ == "run_suite":
            suite = a["name"]
            if suite == "leading" and a["k"] is not None:
                suite = "leading_f"
        elif fn.__name__ == "check_socle":
            suite = "socle"
        elif fn.__name__ == "check_construction_sanity":
            suite = "sanity"
        else:
            suite = "leading_f" if a["with_f"] else "leading"
        return "verify.%s.d%d" % (suite, a["d"])

    return name


class Tracer:
    def __init__(self):
        # one tuple per span: (parent id, name, start ns, end ns); the span id
        # is the list index, and id -1 is the root
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, label, start, end)
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cached(self, name, fn):
        """Span for an lru_cache'd constructor, kept only when the call missed;
        a hit's few microseconds stay in the caller's self time."""
        counts, spans = self.counts, self.spans
        timed = self._timed(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = fn.cache_info()
            result = timed(*args, **kwargs)
            if fn.cache_info().misses > before.misses:
                counts[name + ".misses"] += 1
                counts[name + ".gens"] += len(result.gens)
            else:
                counts[name + ".hits"] += 1
                spans.pop()  # a hit calls nothing, so its span is the last one
            return result

        return wrapper

    def _note(self, **fields):
        """A result hook adding len()-style sizes to named counters."""
        counts = self.counts

        def note(args, result):
            for key, size in fields.items():
                counts[key] += size(args, result)

        return note

    # -- patch list -------------------------------------------------------

    def _patches(self):
        """(owner, attribute, replacement factory) for every boundary."""
        ideals = importlib.import_module("monocurve.ideals")
        groebner = importlib.import_module("monocurve.groebner")
        order = importlib.import_module("monocurve.order")
        poly = importlib.import_module("monocurve.poly")
        verify = importlib.import_module("monocurve.verify")
        cli = importlib.import_module("monocurve.cli")
        MI, P = ideals.MonomialIdeal, poly.Polynomial
        note = self._note
        return [
            # MonomialIdeal.__init__ is the only caller and passes a list
            (ideals, "minimal_generators", lambda f: self._timed(
                "ideals.minimal_generators", f,
                note(**{"ideals.minimal_generators.monomials_in": lambda a, r: len(a[0]),
                        "ideals.minimal_generators.monomials_out": lambda a, r: len(r)}))),
            (MI, "length_quotient", lambda f: self._timed("ideals.length_quotient", f)),
            (MI, "colon_mon", lambda f: self._timed("ideals.colon_mon", f)),
            (MI, "__add__", lambda f: self._timed("ideals.add", f)),
            (MI, "contains", lambda f: self._counted("ideals.contains.calls", f)),
            (verify, "monomials_between", lambda f: self._timed("ideals.monomials_between", f)),
            (verify, "mono_I", lambda f: self._cached("curve.mono_I", f)),
            (verify, "cal_I", lambda f: self._timed(
                "curve.cal_I", f, note(**{"curve.cal_I.gens": lambda a, r: len(r.gens)}))),
            (P, "__mul__", lambda f: self._timed("poly.mul", f)),
            (poly.PolyMatrix, "det", lambda f: self._timed("poly.det", f)),
            (verify, "substitute_parametrization", lambda f: self._timed("poly.substitute", f)),
            (groebner, "buchberger", lambda f: self._timed(
                "groebner.buchberger", f,
                note(**{"groebner.buchberger.input_gens": lambda a, r: len(a[0].gens),
                        "groebner.buchberger.basis_size": lambda a, r: len(r.elements)}))),
            (groebner, "normal_form", lambda f: self._timed(
                "groebner.normal_form", f,
                note(**{"groebner.normal_form.zero": lambda a, r: not r}))),
            (groebner, "leading_term", lambda f: self._counted("order.leading_term.calls", f)),
            (order, "leading_term", lambda f: self._counted("order.leading_term.calls", f)),
            (verify, "run_suite", lambda f: self._timed(_verify_label(f), f)),
            (verify, "check_socle", lambda f: self._timed(_verify_label(f), f)),
            (verify, "check_leading_ideal_equality", lambda f: self._timed(_verify_label(f), f)),
            (verify, "check_construction_sanity", lambda f: self._timed(_verify_label(f), f)),
            (cli, "main", lambda f: self._timed("cli.main", f)),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, make in self._patches():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """name -> (calls, self ns), from the recorded spans."""
        covered: defaultdict = defaultdict(int)
        for parent, _, start, end in self.spans:
            covered[parent] += end - start
        out: dict = {}
        for sid, (_, name, start, end) in enumerate(self.spans):
            calls, ns = out.get(name, (0, 0))
            out[name] = (calls + 1, ns + (end - start) - covered[sid])
        return out

    def metrics(self) -> dict:
        """Per-layer metrics as plain numbers, keyed by metric name."""
        st = self.self_times()
        c = self.counts
        m: dict = {}
        for name in ("ideals.minimal_generators", "ideals.length_quotient", "ideals.colon_mon",
                     "ideals.add", "curve.cal_I", "poly.mul", "poly.det",
                     "groebner.buchberger", "groebner.normal_form"):
            calls, ns = st.get(name, (0, 0))
            m[name + ".calls"] = calls
            m[name + ".s"] = ns / 1e9
        for name in ("ideals.monomials_between", "poly.substitute"):
            m[name + ".s"] = st.get(name, (0, 0))[1] / 1e9
        for key in ("ideals.minimal_generators.monomials_in",
                    "ideals.minimal_generators.monomials_out", "ideals.contains.calls",
                    "curve.mono_I.hits", "curve.mono_I.misses", "curve.mono_I.gens",
                    "curve.cal_I.gens", "groebner.buchberger.input_gens",
                    "groebner.buchberger.basis_size", "order.leading_term.calls"):
            m[key] = c[key]
        m["curve.mono_I.miss_s"] = st.get("curve.mono_I", (0, 0))[1] / 1e9
        nf_calls = m["groebner.normal_form.calls"]
        m["groebner.normal_form.zero"] = c["groebner.normal_form.zero"]
        m["groebner.normal_form.zero_ratio"] = (
            c["groebner.normal_form.zero"] / nf_calls if nf_calls else 0.0
        )
        m["cli.self_s"] = st.get("cli.main", (0, 0))[1] / 1e9
        layer_ns: Counter = Counter()
        for name, (_, ns) in st.items():
            prefix = name.split(".", 1)[0]
            layer_ns[prefix] += ns
            if prefix == "verify":
                m[name + ".s"] = ns / 1e9
        for layer in TIMED_LAYERS:
            m["layer.%s.self_s" % layer] = layer_ns[layer] / 1e9
        return m

    def write_spans(self, path) -> None:
        """One JSON object per line: id, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            for sid, (parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")
