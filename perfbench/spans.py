"""In-memory span tracer that wraps shjlab's layer entry points from outside.

``Tracer.install()`` replaces each listed function in every ``shjlab``
module that binds it, and each listed method on its class, with a wrapper
that records a span (name, parent, start, end, thread) and the counts the
layer metric needs.  ``uninstall()`` puts the originals back.  Nothing
under ``src/`` changes; untraced runs never call ``install()``.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the installing thread as its parent, so ladder
items run by the CLI's thread pool nest under ``cli.run``.

Self time is a span's duration minus the part of it that its children
cover; overlapping children (parallel ladder items) are merged first.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time

import numpy as np


# Counters map a call's (args, result) to {metric name: count}.

def _mollified_nodes(args, result, method):
    self = args[0]
    x = args[1] if method == "G" else args[2]
    # x is (..., d); the base map sees every point shifted by every node
    return {"smoothing.MollifiedSet.eval.node_points":
            len(self.weights) * (np.size(x) // self.base.d)}


def _hamiltonian(args, result):
    coeffs, _, x, p = args[:4]
    shape = np.broadcast_shapes(np.shape(x), np.shape(p))
    return {"viscosity.hamiltonian.evals":
            math.prod(shape[:-1]) * coeffs.n_controls}


def _interp(args, result):
    return {"valuefn.BoxLattice.interp.points": int(np.size(result[0])),
            "valuefn.BoxLattice.interp.clamped": int(result[1])}


def _condexp_build(args, result):
    return {"probspace.CondExpOperator.build.count": 1,
            "probspace.CondExpOperator.ridge.count":
            int(bool(args[0].used_ridge))}


def _condexp_apply(args, result):
    op, targets = args[:2]
    return {"probspace.CondExpOperator.apply.rows":
            int(np.asarray(targets).size) // op.n_paths}


def _solve_bsde(args, result):
    return {"bsde.solve_bsde.knots": int(result.Y.shape[0])}


def _coeff_calls(args, result):
    return {"coeffs.eval.calls": 1}


# (module, attribute, span name, counter).  An attribute "Class.method"
# is wrapped on the class; a plain name is wrapped in every shjlab
# module that binds the same function object.
TARGETS = (
    ("shjlab.cli", "run", "cli.run", None),
    ("shjlab.smoothing", "MollifiedSet.beta", "smoothing.MollifiedSet.eval",
     functools.partial(_mollified_nodes, method="beta")),
    ("shjlab.smoothing", "MollifiedSet.f", "smoothing.MollifiedSet.eval",
     functools.partial(_mollified_nodes, method="f")),
    ("shjlab.smoothing", "MollifiedSet.G", "smoothing.MollifiedSet.eval",
     functools.partial(_mollified_nodes, method="G")),
    ("shjlab.smoothing", "fit_functional_approximant",
     "smoothing.fit_functional_approximant", None),
    ("shjlab.smoothing", "error_processes", "smoothing.error_processes", None),
    ("shjlab.viscosity", "hamiltonian", "viscosity.hamiltonian", _hamiltonian),
    ("shjlab.viscosity", "build_envelopes", "viscosity.build_envelopes", None),
    ("shjlab.viscosity", "residual_check", "viscosity.residual_check", None),
    ("shjlab.viscosity", "sandwich_report", "viscosity.sandwich_report", None),
    ("shjlab.valuefn", "value_V", "valuefn.value_V", None),
    ("shjlab.valuefn", "BoxLattice.interp", "valuefn.BoxLattice.interp",
     _interp),
    ("shjlab.valuefn", "ControlPolicy.indices_at",
     "valuefn.ControlPolicy.indices_at", None),
    ("shjlab.probspace", "CondExpOperator.__init__",
     "probspace.CondExpOperator.build", _condexp_build),
    ("shjlab.probspace", "CondExpOperator.apply",
     "probspace.CondExpOperator.apply", _condexp_apply),
    ("shjlab.probspace", "sample_ensemble", "probspace.sample_ensemble", None),
    ("shjlab.bsde", "solve_bsde", "bsde.solve_bsde", _solve_bsde),
    ("shjlab.bsde", "policy_cost_surface", "bsde.policy_cost_surface", None),
    ("shjlab.bsde", "cost_majorant", "bsde.cost_majorant", None),
    ("shjlab.fields", "AdaptedField.gradient", "fields.AdaptedField.gradient",
     None),
)

# Base coefficient maps are closures on each CoefficientSet, so they are
# wrapped on the sets that ``shjlab.coeffs.scenario`` hands out.
COEFF_SPAN = "coeffs.eval"
COEFF_MAPS = ("beta", "f", "G")


class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "thread", "counts")

    def __init__(self, sid, parent, name, t0, thread):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = None
        self.thread = thread
        self.counts = None

    def as_dict(self):
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "t0": self.t0, "t1": self.t1, "thread": self.thread,
                "counts": self.counts}


class Tracer:
    """Records spans around shjlab's layer entry points while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = None
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        else:
            home = self._home or []
            try:
                parent = home[-1].sid
            except IndexError:
                parent = None
        span = Span(next(self._ids), parent, name, time.perf_counter(),
                    threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span):
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result
        return traced

    def _wrap_coeff_maps(self, coeffs):
        for attr in COEFF_MAPS:
            setattr(coeffs, attr,
                    self.wrap(getattr(coeffs, attr), COEFF_SPAN, _coeff_calls))
        return coeffs

    def _rebind(self, original, replacement):
        """Rebind every shjlab module attribute that holds original."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "shjlab"
                                   or mod_name.startswith("shjlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._home = self._stack()
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, self.wrap(original, name, counter))
                self._undo.append((cls, meth, original))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self.wrap(original, name, counter))

        coeffs_mod = importlib.import_module("shjlab.coeffs")
        make = coeffs_mod.scenario

        @functools.wraps(make)
        def scenario(*args, **kwargs):
            return self._wrap_coeff_maps(make(*args, **kwargs))
        self._rebind(make, scenario)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    by_id = {}
    children = {}
    for s in spans:
        by_id[s.sid] = (s.t0, s.t1)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s.sid)

    out = {}
    for sid, (t0, t1) in by_id.items():
        covered = 0.0
        end = t0
        ivals = sorted((max(by_id[c][0], t0), min(by_id[c][1], t1))
                       for c in children.get(sid, ()))
        for a, b in ivals:
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        out[sid] = (t1 - t0) - covered
    return out


def layer_totals(spans):
    """Per-layer totals: ``<span name>.self_s`` plus every counter's sum."""
    totals = {}
    selfs = self_times(spans)
    for s in spans:
        key = f"{s.name}.self_s"
        totals[key] = totals.get(key, 0.0) + selfs[s.sid]
        for key, n in (s.counts or {}).items():
            totals[key] = totals.get(key, 0) + n
    return totals
