"""Per-layer call counts and self times, measured from outside ``topfan``.

``LayerTracer.install()`` replaces each function named in ``LAYERS`` with a
wrapper, in every ``topfan.*`` namespace that binds it (``cli`` and
``charts`` use ``from ... import``, so patching the defining module alone
would miss their calls).  Methods are replaced on their class.  Self time is
a span's duration minus the part covered by wrapped callees, kept on a span
stack.  A name that no longer exists records zero calls.
``uninstall()`` puts every original object back.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# module -> wrapped names; "Class.method" names a method
LAYERS = {
    "cli": ("main",),
    "complexes": (
        "SimplicialComplex.__init__", "SimplicialComplex.from_json", "SimplicialComplex.walls",
        "SimplicialComplex.faces", "SimplicialComplex.faces_of_dim",
        "SimplicialComplex.dual_graph_connected", "SimplicialComplex.is_pseudomanifold",
        "SimplicialComplex.stellar_subdivide", "SimplicialComplex.suspend", "FVector.of",
    ),
    "linalg": (
        "rref", "int_det", "det", "inverse", "kernel_basis", "solve_unique_columns",
        "maximal_minor_gcd",
    ),
    "ring": ("dual_basis", "pairing", "orientation_sign", "RElem.__mul__"),
    "fans": (
        "TopologicalFan.validate", "TopologicalFan.check_fan_condition",
        "TopologicalFan.check_complete", "TopologicalFan.check_nonsingular",
        "TopologicalFan.locate_cone", "TopologicalFan.dual_basis", "equivalent",
        "h_canonical_form", "_extreme_rays_nonneg_kernel",
    ),
    "charts": (
        "check_cocycle", "transition_matrix", "kernel_presentation",
        "check_conjugation_equivariant", "orbit_face_poset", "_compose",
    ),
    "invariants": (
        "GradedRing.__init__", "graded_rank", "normal_form", "pontrjagin_class",
        "omni_weights", "todd_genus", "betti_numbers",
    ),
    "realize": (
        "search_labeling", "derive_sign_table", "mod2_obstruction", "find_clique",
        "verify_labeling", "realize_2sphere", "stellar_subdivide_fan", "suspend_fan",
        "product_fan", "_search_mod2", "_four_coloring",
    ),
}

# wrapped with a call counter only: too hot to time per call
COUNT_ONLY = frozenset({"ring.RElem.__mul__"})


def _rref_cells(rows, *args, **kwargs):
    return len(rows) * len(rows[0]) if rows else 0


def _det_cells(rows, *args, **kwargs):
    return len(rows) ** 2


# extra work counters: name -> cells of the input matrix
WORK = {"linalg.rref": _rref_cells, "linalg.int_det": _det_cells}


class Stat:
    __slots__ = ("calls", "self_s", "errors", "cells", "results")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.cells = 0
        self.results = 0  # calls that returned something other than None


class LayerTracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.stats = {f"{mod}.{name}": Stat() for mod, names in layers.items() for name in names}
        self.missing = []
        self._stack = []
        self._undo = []

    # -- wrappers ----------------------------------------------------------------

    def _timed(self, key, fn):
        stat = self.stats[key]
        stack = self._stack
        work = WORK.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if work is not None:
                stat.cells += work(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                span = perf_counter() - start
                stat.self_s += span - stack.pop()
                if stack:
                    stack[-1] += span
            if result is not None:
                stat.results += 1
            return result

        return wrapper

    def _counted(self, key, fn):
        stat = self.stats[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, key, fn):
        return self._counted(key, fn) if key in COUNT_ONLY else self._timed(key, fn)

    # -- install / uninstall --------------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "topfan" or name.startswith("topfan."))]
        for mod, names in self.layers.items():
            module = sys.modules.get(f"topfan.{mod}")
            for name in names:
                key = f"{mod}.{name}"
                if module is None:
                    self.missing.append(key)
                    continue
                if "." in name:
                    self._install_method(key, module, *name.split("."))
                else:
                    self._install_function(key, module, name, namespaces)

    def _install_function(self, key, module, name, namespaces):
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(key)
            return
        wrapper = self._wrap(key, original)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._undo.append((namespace, attr, original))
                    setattr(namespace, attr, wrapper)

    def _install_method(self, key, module, cls_name, name):
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(name) if isinstance(cls, type) else None
        if raw is None:
            self.missing.append(key)
            return
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(key, raw.__func__))
        else:
            replacement = self._wrap(key, raw)
        self._undo.append((cls, name, raw))
        setattr(cls, name, replacement)

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- reading -------------------------------------------------------------------

    def module_totals(self):
        """module -> (calls, self seconds)."""
        totals = {mod: [0, 0.0] for mod in self.layers}
        for key, stat in self.stats.items():
            total = totals[key.split(".", 1)[0]]
            total[0] += stat.calls
            total[1] += stat.self_s
        return totals
