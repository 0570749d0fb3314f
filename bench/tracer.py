"""Spans around the library's public functions, recorded from outside.

Tracer.install() wraps a fixed list of functions and rebinds every name that
refers to them: module globals in every loaded cohomring module (so
cli.reduce_to_normal and cohomology.normal_monomials are caught along with
ideal.reduce and ideal.normal_monomials) and class attributes for methods.
Each call records one span (layer name, start, end, parent span) in flat
arrays kept in memory. uninstall() puts every original back and
restored() confirms it.

summary() derives calls, total and self time per layer from the spans; the
self time of a span is its duration minus the durations of its direct
children.
"""

import sys
from array import array
from time import perf_counter

from cohomring import cli, cohomology, dsum, expr, graded, ideal, poly

_MARK = "__bench_trace_layer__"


class Tracer:
    def __init__(self):
        self.layers: list = []
        self.layer_id: dict = {}
        self.span_layer = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.counts: dict = {"graded.term_pairs": 0, "cohomology.iso_candidates": 0}
        self.exit_nonzero = 0
        self._stack: list = []  # indices of the open spans
        self._saved: list = []  # (holder, attribute, original value)

    # --------------------------------------------------------------- spans

    def _layer(self, name: str) -> int:
        if name not in self.layer_id:
            self.layer_id[name] = len(self.layers)
            self.layers.append(name)
        return self.layer_id[name]

    def _open(self, lid: int) -> int:
        index = len(self.span_start)
        self.span_layer.append(lid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; the benchmark wraps each operation this way."""
        index = self._open(self._layer(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def summary(self) -> dict:
        """layer -> (calls, total seconds, self seconds), from the kept spans."""
        start, end = self.span_start, self.span_end
        child = array("d", bytes(8 * len(start)))
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += end[i] - start[i]
        rows = {name: [0, 0.0, 0.0] for name in self.layers}
        for i, lid in enumerate(self.span_layer):
            row = rows[self.layers[lid]]
            row[0] += 1
            row[1] += end[i] - start[i]
            row[2] += end[i] - start[i] - child[i]
        return {name: tuple(row) for name, row in rows.items()}

    # ------------------------------------------------------------ wrappers

    def _wrap(self, name: str, fn, pick=None, after=None):
        tracer = self
        lid = self._layer(name)

        def wrapper(*args, **kwargs):
            index = tracer._open(pick(args) if pick else lid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after:
                after(args, out)
            return out

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts[name] += 1
                yield item

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, holder, attr: str, value) -> None:
        self._saved.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _note_pairs(self, args, out) -> None:
        a, b = args[0], args[1]
        self.counts["graded.term_pairs"] += len(a.terms) * len(b.terms)

    def _note_exit(self, args, out) -> None:
        if out[0] != 0:
            self.exit_nonzero += 1

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        plain = [
            ("graded.mul_sparse", graded.mul_sparse, self._note_pairs),
            ("ideal.reduce", ideal.reduce, None),
            ("ideal.normal_monomials", ideal.normal_monomials, None),
            ("ideal.groebner", ideal.is_groebner, None),
            ("ideal.groebner", ideal.complete_to_groebner, None),
            ("cohomology.verify_entry", cohomology.verify_entry, None),
            ("cohomology.find_graded_iso", cohomology.find_graded_iso, None),
            ("expr.parse", expr.parse, None),
            ("expr.parse", expr.parse_ideal, None),
            ("cli.run_command", cli.run_command, self._note_exit),
        ]
        for name, fn, after in plain:
            self._rebind_everywhere(fn, self._wrap(name, fn, after=after))

        dense, sparse = self._layer("poly.mul_dense"), self._layer("poly.mul")
        pick = lambda args: dense if isinstance(args[0], dsum.DenseSeq) else sparse
        self._rebind_everywhere(poly.mul, self._wrap("poly.mul", poly.mul, pick=pick))

        candidates = cohomology.graded_linear_maps
        self._rebind_everywhere(
            candidates, self._wrap_generator("cohomology.iso_candidates", candidates)
        )

        from_terms = dsum.SparseSum.__dict__["from_terms"].__func__
        self._set(
            dsum.SparseSum,
            "from_terms",
            staticmethod(self._wrap("dsum.from_terms", from_terms)),
        )
        entry = cohomology.CatalogEntry
        for method in ("generator_monomials", "image_of_poly"):
            original = entry.__dict__[method]
            self._set(entry, method, self._wrap(f"cohomology.{method}", original))

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def restored(self) -> list:
        """Names still bound to a wrapper; empty when every original is back."""
        left = []
        holders = list(_library_modules()) + [dsum.SparseSum, cohomology.CatalogEntry]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                inner = value.__func__ if isinstance(value, staticmethod) else value
                if hasattr(inner, _MARK):
                    left.append(f"{getattr(holder, '__name__', holder)}.{attr}")
        return left

    @property
    def span_count(self) -> int:
        return len(self.span_start)


def _library_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "cohomring" or name.startswith("cohomring."))
    ]
