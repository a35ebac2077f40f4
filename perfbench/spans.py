"""Timing spans wrapped around each layer's public functions.

The wrappers live here, not in the library: `install` replaces each target
function in every `omcanon` module namespace that bound it (several names
are imported by name into other modules) and each target method on its
class.  Spans are kept in memory as flat arrays and written out at the end;
a span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# (span name, module, attribute path).  A span name ending in ".count" is
# counted but not timed: Chirotope.value runs about a million times per
# sweep and its time already shows as its callers' self time.
TARGETS = (
    ("om.build", "omcanon.om", "OrientedMatroid.__init__"),
    ("om.faces", "omcanon.om", "OrientedMatroid.faces"),
    ("om.bounded_topes", "omcanon.om", "OrientedMatroid.bounded_topes"),
    ("om.lex_extension", "omcanon.om", "OrientedMatroid.lex_extension"),
    ("forms.tope", "omcanon.forms", "canonical_form_tope"),
    ("forms.residue_check", "omcanon.forms", "check_residue_axioms"),
    ("forms.triangulation_eval", "omcanon.forms",
     "canonical_form_from_triangulation"),
    ("linalg.left_inverse", "omcanon.linalg", "left_inverse"),
    ("linalg.rref", "omcanon.linalg", "rref"),
    ("linalg.mat_vec", "omcanon.linalg", "mat_vec"),
    ("linalg.det", "omcanon.linalg", "det"),
    ("linalg.greedy_independent", "omcanon.linalg", "greedy_independent"),
    ("chirotope.contract", "omcanon.chirotope", "Chirotope.contract"),
    ("chirotope.reorient", "omcanon.chirotope", "Chirotope.reorient"),
    ("chirotope.value.count", "omcanon.chirotope", "Chirotope.value"),
    ("chirotope.validate", "omcanon.chirotope", "validate_chirotope"),
    ("matroid.build", "omcanon.matroid", "UnderlyingMatroid.__init__"),
    ("matroid.nbc_sets", "omcanon.matroid", "UnderlyingMatroid.nbc_sets"),
    ("matroid.tutte", "omcanon.matroid", "UnderlyingMatroid.tutte"),
    ("osalg.algebra", "omcanon.osalg", "OSAlgebra.__init__"),
    ("osalg.monomial", "omcanon.osalg", "OSAlgebra.monomial"),
    ("osalg.residue", "omcanon.osalg", "OSAlgebra.residue"),
    ("osalg.reduced_basis", "omcanon.osalg", "OSAlgebra.reduced_basis"),
    ("osalg.inverse_boundary", "omcanon.osalg", "OSAlgebra.inverse_boundary"),
    ("osalg.wedge", "omcanon.osalg", "OSAlgebra.wedge"),
    ("realization.chirotope_from_matrix", "omcanon.realization",
     "chirotope_from_matrix"),
    ("realization.placing_triangulation", "omcanon.realization",
     "placing_triangulation"),
    ("bases.bounded_extension", "omcanon.bases", "bounded_extension"),
    ("bases.tq_basis", "omcanon.bases", "tq_basis"),
    ("bases.build_flag", "omcanon.bases", "build_flag"),
    ("bases.graded_basis", "omcanon.bases", "graded_basis"),
    ("bases.aomoto", "omcanon.bases", "aomoto"),
    ("cli.run", "omcanon.cli", "run"),
    ("serialize.parse_input", "omcanon.serialize", "parse_input"),
    ("serialize.dumps_canonical", "omcanon.serialize", "dumps_canonical"),
)


class Tracer:
    """In-memory span recorder; records only while `enabled` is true."""

    def __init__(self):
        self.enabled = False
        self.item = -1  # the request (tope or command) spans belong to
        self.counts: dict = {}
        self._name_ids: dict = {}
        self._stack: list = []
        # One entry per span, in start order.
        self.span_name = array("i")
        self.span_item = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def _span(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.span_name)
            self.span_name.append(name_id)
            self.span_item.append(self.item)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter()
                stack.pop()
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every target; a target missing from the library raises, so
        a renamed function cannot silently read as zero calls."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "omcanon"
                                         or n.startswith("omcanon."))]
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attr)
            if name.endswith(".count"):
                wrapper = self._counter(name[:-len(".count")], original)
            else:
                wrapper = self._span(name, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def layer_totals(self) -> dict:
        """{span name: (calls, self seconds)} over every recorded span."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        ids = {i: name for name, i in self._name_ids.items()}
        totals = {name: [0, 0.0] for name in self._name_ids}
        for i in range(n):
            entry = totals[ids[self.span_name[i]]]
            entry[0] += 1
            entry[1] += self.span_end[i] - self.span_start[i] - child[i]
        return {name: (calls, self_s) for name, (calls, self_s)
                in totals.items()}

    def write(self, path: str) -> None:
        """Tab-separated spans: item, name, parent index, start, end."""
        ids = {i: name for name, i in self._name_ids.items()}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("item\tname\tparent\tstart\tend\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.span_item[i]}\t{ids[self.span_name[i]]}\t"
                         f"{self.span_parent[i]}\t{self.span_start[i]!r}\t"
                         f"{self.span_end[i]!r}\n")
