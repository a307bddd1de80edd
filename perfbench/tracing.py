"""Spans around the calls into each layer, recorded from outside the program.

Each traced function is replaced, for the length of a ``Tracer.patched()``
block, at every name through which h2body code looks it up: a function
imported with ``from .x import f`` is bound in the importing module too, so
``h2body.sim.solve_ivp``, ``h2body.sim._field_array`` and
``h2body.equilibria.legendre`` are each wrapped where their callers find
them. No file of the program is changed.

A span is (id, parent id, request, name, start, end); the request is the
index of the ``cli.main`` call it belongs to. Spans are kept in memory and
written out once, after the traced work.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# span name -> (module that defines or imports it, attribute)
TARGETS = {
    "cli.main": ("h2body.cli", "main"),
    "sim.perturb_and_measure": ("h2body.sim", "perturb_and_measure"),
    "sim.integrate": ("h2body.sim", "integrate"),
    "sim.solve_ivp": ("h2body.sim", "solve_ivp"),
    "sim.collision_event": ("h2body.sim", "_collision_event"),
    "sim.draw_perturbed": ("h2body.sim", "_draw_perturbed"),
    "sim.record_from_states": ("h2body.sim", "record_from_states"),
    "sim.write_trajectory_csv": ("h2body.sim", "write_trajectory_csv"),
    "dynamics.field": ("h2body.dynamics", "_field_array"),
    "dynamics.legendre": ("h2body.dynamics", "legendre"),
    "equilibria.build_relative_equilibrium": ("h2body.equilibria", "build_relative_equilibrium"),
    "equilibria.intrinsic_checks": ("h2body.equilibria", "intrinsic_checks"),
    "equilibria.analytic_trajectory": ("h2body.equilibria", "analytic_trajectory"),
    "equilibria.center_of_mass": ("h2body.equilibria", "center_of_mass"),
    "stability.classify_stability": ("h2body.stability", "classify_stability"),
    "stability.rig_block_oracle": ("h2body.stability", "rig_block_oracle"),
    "stability.internal_block_oracle": ("h2body.stability", "internal_block_oracle"),
    "stability.internal_membership": ("h2body.stability", "internal_membership"),
    "stability.threshold": ("h2body.stability", "threshold"),
    "geom.geodesic_through": ("h2body.geom", "geodesic_through"),
    "geom.hyperbolic_distance": ("h2body.geom", "hyperbolic_distance"),
    "liegroup.infinitesimal_generator": ("h2body.liegroup", "infinitesimal_generator"),
    "liegroup.moebius_act": ("h2body.liegroup", "moebius_act"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)
        starts_request = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            if starts_request:
                self.request += 1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.request, name, start, end)
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every target at each h2body name bound to it; undo on exit."""
        undo = []
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "h2body"]
        try:
            for name, (home, attr) in TARGETS.items():
                original = getattr(sys.modules[home], attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name. Self time is the span's
        duration less the time covered by its child spans."""
        child = defaultdict(float)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in TARGETS}
        for sid, _, _, name, start, end in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - child[sid]
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("id,parent,request,name,start_s,end_s\n")
            for sid, parent, req, name, start, end in self.spans:
                f.write(f"{sid},{parent},{req},{name},{start:.9f},{end:.9f}\n")


def _observe_solve_ivp(counts, sol):
    counts["sim.solve_ivp.nfev"] += sol.nfev


def _observe_draw(counts, result):
    counts["sim.redraws"] += result[1]


_OBSERVERS = {"sim.solve_ivp": _observe_solve_ivp, "sim.draw_perturbed": _observe_draw}


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Span totals and counts as per-layer metrics. The byte counts, the
    import time and the overhead are measured by the caller."""
    out: dict[str, float] = {}
    for name, totals in tracer.layer_totals().items():
        out[f"{name}.calls"] = totals["calls"]
        out[f"{name}.self_s"] = totals["self_s"]
    out["sim.solve_ivp.nfev"] = tracer.counts["sim.solve_ivp.nfev"]
    out["sim.redraws"] = tracer.counts["sim.redraws"]
    draws = out["sim.draw_perturbed.calls"]
    # a draw call returns one trial after sim.redraws rejected candidates
    out["sim.useful_draw_ratio"] = draws / (draws + out["sim.redraws"]) if draws else 0.0
    return out
