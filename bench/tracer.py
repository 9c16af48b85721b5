"""Span tracer that times loopentropy's layers from outside the library.

``install`` replaces the library's public functions and ``EpsSeries``
methods with timing wrappers.  A module that bound a function with
``from .loops import ...`` holds its own reference, so every binding of
the same function object in every ``loopentropy`` module is replaced.
Spans (label, start, end, parent) are kept in compact arrays until
``summary`` folds them into per-label calls, inclusive time and self time.
Self time is a span's duration minus the time covered by its direct
children.

Counters that need no span (``EpsSeries`` constructions, integrand
evaluations) are taken at the construction hook and around the integrand
handed to ``scipy.integrate.quad``.
"""

from __future__ import annotations

import array
import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np

_perf = time.perf_counter


class Tracer:
    """Records nested spans; ``active`` pauses recording (for verification)."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self._label = array.array("i")
        self._parent = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = True
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, label: str) -> int:
        lid = self._ids.get(label)
        if lid is None:
            lid = self._ids[label] = len(self.labels)
            self.labels.append(label)
        return lid

    def _open(self, lid: int) -> int:
        i = len(self._label)
        self._label.append(lid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(_perf())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = _perf()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, label: str):
        i = self._open(self._id(label))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, label, fn):
        """Wrap ``fn`` in a span; ``label`` is a string or a function of the
        call's (args, kwargs) giving one."""
        tracer = self
        fixed = None if callable(label) else self._id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            lid = fixed if fixed is not None else tracer._id(label(args, kwargs))
            i = tracer._open(lid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return traced

    def counting(self, name: str, fn):
        """Wrap ``fn`` so each call while active adds one to ``counts[name]``."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Per label: [calls, inclusive ms, self ms]; plus counters."""
        n = len(self._label)
        label = np.frombuffer(self._label, dtype=np.int32, count=n)
        parent = np.frombuffer(self._parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self._end, count=n) - np.frombuffer(self._start, count=n)) * 1e3
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        nlab = len(self.labels)
        calls = np.bincount(label, minlength=nlab)
        total = np.bincount(label, weights=dur, minlength=nlab)
        selft = np.bincount(label, weights=own, minlength=nlab)
        return {
            "spans": n,
            "labels": {lab: [int(calls[i]), float(total[i]), float(selft[i])]
                       for i, lab in enumerate(self.labels)},
            "counts": dict(self.counts),
        }

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _replace(self, owners, original, replacement) -> int:
        hits = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    self._undo.append((owner, attr, original))
                    hits += 1
        return hits

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class _CountingIntegrate:
    """Stand-in for ``scipy.integrate`` inside ``loopentropy.loops``: each
    ``quad`` call is a span, and each integrand evaluation is counted."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._label = tracer._id("loops.quad")

    def __getattr__(self, name):
        return getattr(self._module, name)

    def quad(self, f, *args, **kwargs):
        tracer = self._tracer
        if not tracer.active:
            return self._module.quad(f, *args, **kwargs)
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            return f(x)

        i = tracer._open(self._label)
        try:
            return self._module.quad(counted, *args, **kwargs)
        finally:
            tracer._close(i)
            tracer.counts["loops.quad.integrand_evals"] += evals


SPECIALFNS = ("gamma", "loggamma", "digamma", "harmonic", "harmonic_int",
              "polygamma", "principal_log", "constants", "is_nonpositive_integer")
LOOP_SERIES = ("delta_series", "delta_series_m2", "delta_stripped_series",
               "delta_stripped_series_m2", "chi_series", "chi_series_m2",
               "chi_over_delta_series", "chi_over_delta_series_m2")
LOOP_ORACLES = ("oracle_delta_radial", "oracle_chi_x", "oracle_chi_radial", "eta")
SERIES_METHODS = {"__mul__": "epsseries.mul", "__add__": "epsseries.add",
                  "inverse": "epsseries.inverse", "log": "epsseries.log",
                  "exp": "epsseries.exp"}
SUBCOMMANDS = ("tau", "entropy", "figure2", "figure3", "trace-check", "check")
CHECK_NAMES = ("check_tau", "check_conditional_constancy", "check_delta_oracle",
               "check_chi_oracle", "check_eta_zero_momentum", "check_series_scaling",
               "check_mutual_identity", "check_trace_relations", "check_plane_wave",
               "info_chi_form_discrepancy", "info_endpoint_divergence",
               "info_ratio_vs_tau", "info_combined_expansion_offset")


def _quantity_label(args, kwargs) -> str:
    return "entropy.q." + (args[0] if args else kwargs["name"])


def install(tracer: Tracer) -> Tracer:
    """Wrap the library's layers; ``tracer.uninstall()`` restores them."""
    from loopentropy import (checks, cli, contour, entropy, epsseries, loops,
                             specialfns, svg, traces)

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "loopentropy" or name.startswith("loopentropy."))]
    series_cls = epsseries.EpsSeries

    def patch(module, name, label):
        original = getattr(module, name)
        if not tracer._replace(modules, original, tracer.wrap(label, original)):
            raise RuntimeError(f"could not patch {module.__name__}.{name}")

    for name in SPECIALFNS:
        patch(specialfns, name, "specialfns." + name)
    patch(epsseries, "gamma_series", "epsseries.gamma_series")
    for name in ("power_series", "digamma_series", "harmonic_series"):
        patch(epsseries, name, "epsseries.expansions")
    for method, label in SERIES_METHODS.items():
        original = vars(series_cls)[method]
        tracer._replace([series_cls], original, tracer.wrap(label, original))
    post_init = vars(series_cls)["__post_init__"]
    tracer._replace([series_cls], post_init,
                    tracer.counting("epsseries.constructions", post_init))
    for name in LOOP_SERIES:
        patch(loops, name, "loops.series")
    for name in LOOP_ORACLES:
        patch(loops, name, "loops.oracle")
    tracer._replace([loops], loops.integrate, _CountingIntegrate(loops.integrate, tracer))
    for name in ("coeff_a", "coeff_b"):
        patch(contour, name, "contour.coeff")
    patch(entropy, "compute_quantity", _quantity_label)
    for name in ("renyi_trace_n", "renyi_trace_radial"):
        patch(entropy, name, "entropy.renyi")
    for name in ("vacuum_trace_phi4", "vacuum_trace_phir", "tr_rho4_inferred",
                 "ratio_checks"):
        patch(traces, name, "traces")
    for name in CHECK_NAMES:
        patch(checks, name, f"checks.{name}")
    patch(cli, "_write_csv", "cli.write_csv")
    patch(svg, "render_line_chart", "svg.render")
    return tracer
