"""Spans and work counts around the public calls of each kahlercomp layer.

The probes wrap module and class attributes from outside the package; nothing
inside ``src/`` is changed and no private attribute is read.  Every wrapped
call pushes a frame on a per-thread stack, so counts can be attributed to the
span that caused them (an RHS evaluation is a ``field_values`` call made inside
``geodesic.shoot``).  Clocks are read only when timing is on; the counts are
recorded in every run.

Spans are aggregated per name as they close: total duration, self time
(duration minus the part covered by child spans) and calls.  A span opened on
a thread-pool worker with an empty stack takes as its parent the innermost
span open on the main thread, which is the call that submitted the work; its
interval is merged with its siblings' before it is subtracted, because
workers overlap.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import weakref

# (module, attribute path, span name).  A name missing from the package is
# reported as absent, so a later refactor does not crash the benchmark.
TARGETS = [
    ("kahlercomp.cli", "main", "cli"),
    ("kahlercomp.curvature", "workspace", "curvature.workspace"),
    ("kahlercomp.curvature", "CurvatureWorkspace.field_values", "curvature.field_values"),
    ("kahlercomp.curvature", "CurvatureWorkspace.ricci_values_many", "curvature.ricci_values_many"),
    ("kahlercomp.curvature", "curvature_jets_along", "curvature.jets"),
    ("kahlercomp.geodesic", "shoot", "geodesic.shoot"),
    ("kahlercomp.geodesic", "GeodesicRay.density", "geodesic.density"),
    ("kahlercomp.comparison", "SphereFlow.__init__", "comparison.sphere_flow"),
    ("kahlercomp.comparison", "SphereFlow.ball_volume", "comparison.reduce"),
    ("kahlercomp.comparison", "SphereFlow.average_laplacian", "comparison.reduce"),
    ("kahlercomp.comparison", "SphereFlow.w_value", "comparison.reduce"),
    ("kahlercomp.comparison", "certify_ricci_bound", "comparison.certify_ricci_bound"),
    ("kahlercomp.comparison", "find_lambda", "comparison.find_lambda"),
    ("kahlercomp.comparison", "verify_counterexample", "comparison.verify_counterexample"),
    ("kahlercomp.comparison", "check_volume_ratio", "comparison.check"),
    ("kahlercomp.comparison", "check_average_laplacian", "comparison.check"),
    ("kahlercomp.comparison", "rigidity_probe", "comparison.check"),
    ("kahlercomp.series", "jacobi_recursion", "series.jacobi_recursion"),
    ("kahlercomp.series", "density_series", "series.density_series"),
    ("kahlercomp.series", "fit_w_series", "series.fit_w_series"),
    ("kahlercomp.series", "direct_low_order_coefficients", "series.direct_low_order_coefficients"),
    ("kahlercomp.series", "c4_sphere_average", "series.c4_sphere_average"),
    ("kahlercomp.series", "kahler_r11_identity_check", "series.kahler_r11_identity_check"),
    ("kahlercomp.sphere", "build_rule", "sphere.build_rule"),
    ("kahlercomp.model_space", "density", "model_space"),
    ("kahlercomp.model_space", "laplacian", "model_space"),
    ("kahlercomp.model_space", "sphere_area", "model_space"),
    ("kahlercomp.model_space", "ball_volume", "model_space"),
    ("kahlercomp.model_space", "model_series", "model_space"),
]

# exact polynomials of a workspace whose terms make up ``polynomials.terms``
WORKSPACE_POLYS = ("g", "dg", "d2g", "det_g", "log_det", "ric")


def _union_length(intervals):
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _count_terms(obj):
    if isinstance(obj, (list, tuple)):
        return sum(_count_terms(x) for x in obj)
    return len(getattr(obj, "coeffs", ()))


class _Frame:
    __slots__ = ("name", "t0", "child", "foreign")

    def __init__(self, name, t0):
        self.name = name
        self.t0 = t0
        self.child = 0.0      # summed durations of same-thread children
        self.foreign = []     # intervals of children on pool threads


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.counts = {}
        self.spans = {}       # name -> [total_s, self_s]


class Recorder:
    """Installs the probes and collects counts (always) and spans (if timed)."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.absent = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._main = self._state()
        self._seen_polys = weakref.WeakKeyDictionary()  # workspace -> attrs counted

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- aggregation ----------------------------------------------------------
    def counts(self) -> dict:
        out = {}
        for st in self._states:
            for k, v in st.counts.items():
                out[k] = out.get(k, 0) + v
        return out

    def spans(self) -> dict:
        out = {}
        for st in self._states:
            for k, (tot, slf) in st.spans.items():
                acc = out.setdefault(k, [0.0, 0.0])
                acc[0] += tot
                acc[1] += slf
        return {k: {"total_s": v[0], "self_s": v[1]} for k, v in out.items()}

    def _add(self, st, key, value=1):
        st.counts[key] = st.counts.get(key, 0) + value

    # -- per-target work counts ------------------------------------------------
    def count_workspace_terms(self, ws):
        """Terms of the exact polynomials a workspace holds, each counted once.

        Only attributes already in the instance dictionary are read, so a
        lazily computed polynomial is counted once something has built it and
        is never built by the benchmark.
        """
        seen = self._seen_polys.setdefault(ws, set())
        present = getattr(ws, "__dict__", {})
        for attr in WORKSPACE_POLYS:
            if attr not in seen and attr in present:
                seen.add(attr)
                self._add(self._state(), "polynomials.terms", _count_terms(present[attr]))

    def recount_workspaces(self):
        """Count polynomials built since a workspace was first returned."""
        for ws in list(self._seen_polys.keys()):
            self.count_workspace_terms(ws)

    def _after(self, st, name, parent, args, result):
        if name == "curvature.workspace":
            self.count_workspace_terms(result)
        elif name == "curvature.field_values" and parent == "geodesic.shoot":
            self._add(st, "geodesic.rhs_evals")
        elif name == "curvature.ricci_values_many":
            self._add(st, "comparison.cert_points", len(args[1]))
        elif name == "comparison.certify_ricci_bound" and parent == "comparison.find_lambda":
            self._add(st, "comparison.find_lambda_steps")
        elif name == "comparison.sphere_flow":
            rays = getattr(args[0], "rays", None)
            if rays is not None:
                self._add(st, "comparison.rays", len(rays))
        elif name == "sphere.build_rule":
            self._add(st, "sphere.nodes", len(result.nodes))

    # -- wrapping --------------------------------------------------------------
    def _wrap(self, fn, name):
        rec = self
        clock = time.perf_counter
        main = self._main

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = rec._state()
            stack = st.stack
            if stack:
                parent, foreign = stack[-1], False
            elif st is not main and main.stack:
                parent, foreign = main.stack[-1], True
            else:
                parent, foreign = None, False
            frame = _Frame(name, clock() if rec.timed else 0.0)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                if rec.timed:
                    t1 = clock()
                    dur = t1 - frame.t0
                    slf = dur - frame.child - _union_length(frame.foreign)
                    acc = st.spans.setdefault(name, [0.0, 0.0])
                    acc[0] += dur
                    acc[1] += slf
                    if parent is not None:
                        if foreign:
                            parent.foreign.append((frame.t0, t1))
                        else:
                            parent.child += dur
            rec._add(st, name + ".calls")
            rec._after(st, name, parent.name if parent is not None else None,
                       args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target; returns the list of span names found absent."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "kahlercomp" or k.startswith("kahlercomp.")]
        for modname, path, name in TARGETS:
            mod = sys.modules.get(modname)
            owner = mod
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(f"{modname}.{path}")
                continue
            wrapped = self._wrap(original, name)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapped)
                continue
            # a function imported by name into other modules is rebound there
            # too, so calls through any module see the probe
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, attr, wrapped)
        return self.absent
