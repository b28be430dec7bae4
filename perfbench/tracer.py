"""Outside-in tracing of the cesaro layers.

The tracer wraps module attributes of an imported ``cesaro`` package from
the benchmark's side; nothing under ``src/`` knows it exists.  Each wrapped
callable opens a span; a span's *self time* is its duration minus the
durations of the spans it caused, so nested layers are never counted twice.
Counters are updated at the same boundaries.

Every wrapped function object is replaced in *every* ``cesaro`` module that
binds it (``fit_limit_array`` is bound in ``tailfit``, ``climits`` and
``zeta``), so calls through any import path are seen.  A target that a later
change renames or removes is recorded in ``missing`` and the metrics it feeds
are reported as not measured; the run itself carries on.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from cases import digits as agree_digits

_perf = time.perf_counter


def _cesaro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cesaro" or name.startswith("cesaro."))]


def _vals_len(fn):
    """Materialized cell count of a PiecewiseFn."""
    vals = getattr(fn, "_vals", None)
    return 0 if vals is None else len(vals)


class Tracer:
    """Self times and counters keyed ``<module>.<what>``."""

    def __init__(self):
        self.times = defaultdict(float)
        self.counts = defaultdict(float)
        self.mins = {}
        self.missing = set()
        self._stack = [0.0]
        self._undo = []
        self._seen_diagnostics = []

    # -- span machinery ----------------------------------------------------

    def _wrap(self, fn, key, before=None, after=None):
        """A span around fn; key is a name or a function of the arguments."""
        stack = self._stack
        times = self.times
        key_of = key if callable(key) else None

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            stack.append(0.0)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                child = stack.pop()
                times[key_of(args) if key_of else key] += dt - child
                stack[-1] += dt
            if after is not None:
                after(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def patch_function(self, module, name, key, before=None, after=None,
                       feeds=()):
        """Wrap ``cesaro.<module>.<name>`` wherever a cesaro module binds it."""
        mod = sys.modules.get(f"cesaro.{module}")
        target = getattr(mod, name, None) if mod is not None else None
        if target is None or not callable(target):
            self._mark_missing(key, feeds)
            return
        wrapper = self._wrap(target, key, before, after)
        for m in _cesaro_modules():
            for attr, val in list(vars(m).items()):
                if val is target:
                    setattr(m, attr, wrapper)
                    self._undo.append((m, attr, target))

    def patch_method(self, module, cls_name, name, key, before=None,
                     after=None, feeds=()):
        """Wrap a method on a cesaro class (instances bind it at lookup)."""
        mod = sys.modules.get(f"cesaro.{module}")
        cls = getattr(mod, cls_name, None) if mod is not None else None
        target = cls.__dict__.get(name) if isinstance(cls, type) else None
        if target is None or not callable(target):
            self._mark_missing(key, feeds)
            return
        setattr(cls, name, self._wrap(target, key, before, after))
        self._undo.append((cls, name, target))

    def _mark_missing(self, key, feeds):
        self.missing.update(feeds)
        if isinstance(key, str):
            self.missing.add(key)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def traced_self_time(self) -> float:
        return sum(self.times.values())

    # -- counter helpers ---------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] += n

    def record_min(self, key, value):
        self.mins[key] = min(self.mins.get(key, value), value)

    def add_escalations(self, result):
        """Sum ``diagnostics['escalations']`` once per distinct result.

        Drivers delegate to each other and hand back the inner result's
        diagnostics dict, so identity de-duplicates the nesting.
        """
        diag = getattr(result, "diagnostics", None)
        if not isinstance(diag, dict) or "escalations" not in diag:
            return
        if any(d is diag for d in self._seen_diagnostics):
            return
        self._seen_diagnostics.append(diag)
        self.counts["climits.escalations"] += diag["escalations"]


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer; returns the tracer for chaining."""
    t = tracer

    # seqfun: partial sums, term maps and node-cell materialization.  The
    # materialization of P[...] functions is the averaging pass itself and
    # is booked to operators.
    def psum_before(args):
        return len(getattr(args[0], "_psums", ()))

    def psum_after(args, kwargs, result, before):
        t.count("seqfun.psum_terms",
                len(getattr(args[0], "_psums", ())) - before)

    t.patch_method("seqfun", "SeriesTerms", "psum", "seqfun.psum_s",
                   before=psum_before, after=psum_after,
                   feeds=("seqfun.psum_terms",))
    t.patch_method("seqfun", "SeriesTerms", "term_array",
                   "seqfun.term_array_s")

    def averaged(args):
        return str(getattr(args[0], "label", "")).startswith("P[")

    def materialize_key(args):
        return "operators.apply_P_s" if averaged(args) else \
            "seqfun.materialize_s"

    def cells_before(args):
        return _vals_len(args[0])

    def cells_after(args, kwargs, result, have):
        grown = _vals_len(args[0]) - have
        if grown <= 0:
            return
        if averaged(args):
            t.count("operators.cells", grown)
            if have == 0:
                t.count("operators.apply_P_passes")
        else:
            t.count("seqfun.cells", grown)

    t.patch_method("seqfun", "PiecewiseFn", "materialize", materialize_key,
                   before=cells_before, after=cells_after,
                   feeds=("seqfun.materialize_s", "seqfun.cells",
                          "operators.apply_P_s", "operators.apply_P_passes",
                          "operators.cells"))

    # tailfit
    def fit_after(args, kwargs, result, before):
        t.count("tailfit.fit_calls")

    t.patch_function("tailfit", "fit_limit_array", "tailfit.fit_s",
                     after=fit_after, feeds=("tailfit.fit_calls",))
    t.patch_function("tailfit", "fit_limit", "tailfit.fit_s")
    t.patch_function("tailfit", "fit_limit_nodes", "tailfit.fit_s")
    t.patch_function("tailfit", "decade_variation", "tailfit.variation_s")

    # climits
    def gate_after(args, kwargs, result, before):
        t.count("climits.gate_calls")

    def escalations_after(args, kwargs, result, before):
        t.add_escalations(result)

    t.patch_function("climits", "_convergence_gate", "climits.driver_s",
                     after=gate_after, feeds=("climits.gate_calls",))
    for name in ("strong_cesaro_limit", "cesaro_limit", "classical_limit"):
        t.patch_function("climits", name, "climits.driver_s",
                         after=escalations_after)
    t.patch_function("climits", "cesaro_limit_discrete", "climits.discrete_s",
                     after=escalations_after)
    t.patch_function("climits", "_discrete_exact", "climits.discrete_exact_s")

    # asymptotics
    for name in ("zeta_psum_expansion", "invert_to_x_expansion",
                 "synthesize_annihilator", "bernoulli"):
        t.patch_function("asymptotics", name, "asymptotics.expansion_s")

    # zeta: the two continuation routes, the discrete ladders and the
    # anomaly correction's exact and mpmath branches
    t.patch_function("zeta", "_psum_constant_mp", "zeta.route_a_s")
    t.patch_function("zeta", "_exact_constant", "zeta.route_a_s")
    t.patch_function("zeta", "_route_b_mp", "zeta.route_b_mp_s")
    t.patch_function("zeta", "_route_b", "zeta.route_b_s")
    t.patch_function("zeta", "_ext_mp", "zeta.ext_mp_s")

    def pd_before(args):
        t.count("zeta.exact_pass_cells", len(args[0]))

    t.patch_function("zeta", "_pd_exact", "zeta.corrected_exact_s",
                     before=pd_before, feeds=("zeta.exact_pass_cells",))
    t.patch_function("zeta", "_apply_factor_exact", "zeta.corrected_exact_s")
    t.patch_method("zeta", "FaulhaberPoly", "__call__",
                   "zeta.corrected_exact_s")
    t.patch_function("zeta", "_apply_factor_mp", "zeta.corrected_mp_s")
    t.patch_function("zeta", "zeta_discrete_corrected", "zeta.corrected_mp_s")

    def zeta_after(args, kwargs, result, before):
        rb = getattr(result, "diagnostics", {}).get("route_b")
        value = getattr(result, "value", None)
        if rb is None or value is None:
            return
        try:
            t.record_min("zeta.route_b_agree_digits", agree_digits(rb, value))
        except TypeError:       # pole outcomes carry no value to agree with
            pass

    t.patch_function("zeta", "zeta", "zeta.entry_s", after=zeta_after,
                     feeds=("zeta.route_b_agree_digits",))
    for name in ("eta", "zeta_discrete_ext"):
        t.patch_function("zeta", name, "zeta.entry_s")

    # integrals
    def quad_after(args, kwargs, result, before):
        t.count("integrals.quad_pieces")

    t.patch_function("integrals", "_quad_piece", "integrals.quad_s",
                     after=quad_after, feeds=("integrals.quad_pieces",))
    t.patch_function("integrals", "_lstsq_fit", "integrals.endpoint_fit_s")
    t.patch_function("integrals", "fit_endpoint_expansion",
                     "integrals.endpoint_fit_s")
    for name in ("cesaro_integral", "mellin_1_over_1px", "_analyze_endpoint",
                 "_endpoint_samples"):
        t.patch_function("integrals", name, "integrals.entry_s")

    # cli: argument parsing, formatting and the verb bodies
    t.patch_function("cli", "run", "cli.self_s")
    return t
