"""Spans and counters recorded around calls into the chemostat modules.

Nothing in the library is edited: :meth:`Tracer.install` replaces public
functions with wrappers in every ``chemostat.*`` namespace that bound the
same object (so ``model.break_even`` and ``certificates.break_even`` are
both covered), and patches hot methods on their classes. Hot paths
(ScalarFn evaluation, the right-hand side, RK steps) get counters only;
layer boundaries get spans. Spans carry the id of the op they belong to and
stay in memory until :meth:`Tracer.write`.

Counters use ``itertools.count``, whose ``__next__`` runs in C under the
interpreter lock, so increments from the sweep worker threads are not lost.
:func:`op_layer_metrics` turns one op's spans and counter deltas into the
per-layer metrics: self times per layer, call counts and their ratios. The
run reports the median of each over its ops, except the ratios, which
:func:`ratio_metrics` takes over the run's counter totals.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

# (module, public function) -> span name; names sharing a span are summed.
SPANS = {
    ("model", "model_from_dict"): "model.load",
    ("model", "normalize"): "model.load",
    ("model", "load_model"): "model.load",
    ("model", "break_even"): "model.break_even",
    ("equilibria", "enumerate_equilibria"): "equilibria",
    ("equilibria", "local_stability_e1"): "equilibria",
    ("certificates", "certify"): "certificates.certify",
    ("certificates", "check_h11"): "certificates.h11",
    ("certificates", "check_h31"): "certificates.h31",
    ("certificates", "gap_for_species"): "certificates.gap",
    ("certificates", "hsu_gap_for_species"): "certificates.hsu_gap",
    ("certificates", "check_fiedler_hsu"): "certificates.fiedler_hsu",
    ("certificates", "check_monod_constant_yields"): "certificates.analytic",
    ("certificates", "check_monod_linear_yields"): "certificates.analytic",
    ("dynamics", "integrate"): "dynamics.integrate",
    ("dynamics", "lyapunov_samples"): "dynamics.lyapunov_samples",
    ("cycles", "find_cycles"): "cycles.find_cycles",
    ("cycles", "return_map"): "cycles.return_map",
}

# (module, function) -> counter bumped once per call.
CALL_COUNTERS = {
    ("model", "break_even"): "model.break_even_calls",
    ("model", "p1_curve"): "model.p1_curve_calls",
    ("roots", "find_zeros"): "roots.find_zeros_calls",
    ("roots", "bisect_root"): "roots.bisect_root_calls",
    ("rk45", "fixed_step"): "rk45.fixed_steps",
    ("dynamics", "adaptive_simpson"): "dynamics.simpson_calls",
    ("cycles", "return_map"): "cycles.return_maps",
}

SHAPES = ("MonodFn", "PolyFn", "QuotientFn", "DifferenceFn", "ExprFn")

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self, chem_modules: dict):
        self.mods = chem_modules  # short name -> module, e.g. "model"
        self.op = None  # id of the op in flight; None outside ops
        self.root = None  # span id of the op's root span
        self.spans: list[tuple] = []  # (op, id, parent, name, t0, t1)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._counts: dict[str, itertools.count] = {}
        self._undo: list[tuple] = []

    # -- counters ----------------------------------------------------------

    def counter(self, name: str):
        c = self._counts.setdefault(name, itertools.count())
        return c.__next__

    def snapshot(self) -> dict[str, int]:
        # repr(count(n)) == "count(n)": n increments have happened so far
        return {k: int(repr(c)[6:-1]) for k, c in self._counts.items()}

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((tracer.op, sid, parent, name, t0, t1))

        return wrapped

    def run_op(self, op_id: int, fn):
        """Call ``fn()`` as op ``op_id`` under a root span; returns its result."""
        self.op, self.root = op_id, next(self._ids)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.spans.append((op_id, self.root, None, ROOT_SPAN, t0, t1))
            self.op = self.root = None

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, orig, new) -> None:
        """Bind ``new`` wherever a chemostat namespace bound ``orig``."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "chemostat" and not name.startswith("chemostat."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def _patch_method(self, cls, attr: str, new) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self) -> None:
        m = self.mods
        wrapped: dict[tuple, tuple] = {}  # key -> (original, replacement)
        for key in set(SPANS) | set(CALL_COUNTERS):
            mod, attr = key
            fn = getattr(m[mod], attr)
            new = fn
            if key in CALL_COUNTERS:
                new = _counting(self.counter(CALL_COUNTERS[key]), new)
            if key in SPANS:
                new = self._span_wrapper(SPANS[key], new)
            wrapped[key] = (fn, new)
        # return_map also counts the NoReturnError skips
        fn, new = wrapped[("cycles", "return_map")]
        wrapped[("cycles", "return_map")] = (
            fn, _counting_raise(self.counter("cycles.no_returns"),
                                m["cycles"].NoReturnError, new))
        wrapped[("model", "vector_field")] = (
            m["model"].vector_field,
            _counting_rhs(self.counter("model.rhs_calls"), m["model"].vector_field))
        for fn, new in wrapped.values():
            self._replace_everywhere(fn, new)

        for shape in SHAPES:
            cls = getattr(m["scalarfn"], shape)
            self._patch_method(cls, "__call__", _counting_method(
                self.counter(f"scalarfn.{shape}.value_calls"), cls.__dict__["__call__"]))
            self._patch_method(cls, "eval_dual", _counting_method(
                self.counter(f"scalarfn.{shape}.dual_calls"), cls.__dict__["eval_dual"]))

        dp = m["rk45"].DormandPrince54
        self._patch_method(dp, "step", _counting_step(
            self.counter("rk45.steps_accepted"), self.counter("rk45.steps_rejected"),
            dp.__dict__["step"]))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def _counting(bump, fn):
    def wrapped(*args, **kwargs):
        bump()
        return fn(*args, **kwargs)
    return wrapped


def _counting_raise(bump, exc_type, fn):
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except exc_type:
            bump()
            raise
    return wrapped


def _counting_method(bump, method):
    def wrapped(self, S):
        bump()
        return method(self, S)
    return wrapped


def _counting_rhs(bump, vector_field):
    def counted_vector_field(model):
        rhs = vector_field(model)

        def counted(t, y):
            bump()
            return rhs(t, y)
        return counted
    return counted_vector_field


def _counting_step(bump_accepted, bump_rejected, step):
    def wrapped(self, t_limit):
        rejected = self.n_rejected
        advanced = step(self, t_limit)
        if advanced:
            bump_accepted()
        for _ in range(self.n_rejected - rejected):
            bump_rejected()
        return advanced
    return wrapped


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children of one span may overlap when they ran on different threads
    (sweep points), so the covered part is an interval union, not a sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, parent, _, t0, t1 in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for _, sid, _, _, t0, t1 in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics of one op

SPAN_METRICS = {
    "cli.main": "cli.self_ms",
    "model.load": "model.load_ms",
    "model.break_even": "model.break_even_ms",
    "equilibria": "equilibria.ms",
    "certificates.h11": "certificates.h11_ms",
    "certificates.h31": "certificates.h31_ms",
    "certificates.gap": "certificates.gap_ms",
    "certificates.hsu_gap": "certificates.hsu_gap_ms",
    "certificates.fiedler_hsu": "certificates.fiedler_hsu_ms",
    "certificates.analytic": "certificates.analytic_ms",
    "certificates.certify": "certificates.certify_self_ms",
    "dynamics.integrate": "dynamics.integrate_ms",
    "dynamics.lyapunov_samples": "dynamics.lyapunov_samples_ms",
    "cycles.return_map": "cycles.return_map_ms",
    "cycles.find_cycles": "cycles.find_cycles_self_ms",
}
COUNT_METRICS = ("model.break_even_calls", "model.p1_curve_calls", "model.rhs_calls",
                 "roots.find_zeros_calls", "roots.bisect_root_calls",
                 "rk45.steps_accepted", "rk45.steps_rejected", "rk45.fixed_steps",
                 "dynamics.simpson_calls", "cycles.return_maps")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_layer_metrics(spans: list[tuple], counts: dict[str, int], cache: tuple[int, int],
                     threads: int, bytes_written: int, is_sweep: bool) -> dict[str, float]:
    """Per-layer metrics of one op from its spans and counter deltas."""
    selfs = self_times(spans)
    m = {name: 0.0 for name in SPAN_METRICS.values()}
    wall = certify_busy = 0.0
    for _, sid, _, name, t0, t1 in spans:
        m[SPAN_METRICS[name]] += 1000.0 * selfs[sid]
        if name == ROOT_SPAN:
            wall = t1 - t0
        elif name == "certificates.certify":
            certify_busy += t1 - t0
    for name in COUNT_METRICS:
        m[name] = counts.get(name, 0)
    for kind in ("value", "dual"):
        m[f"scalarfn.{kind}_calls"] = sum(counts.get(f"scalarfn.{s}.{kind}_calls", 0)
                                          for s in SHAPES)
        m[f"expr.{kind}_calls"] = counts.get(f"scalarfn.ExprFn.{kind}_calls", 0)
        for s in SHAPES:
            m[f"scalarfn.{s}.{kind}_calls"] = counts.get(f"scalarfn.{s}.{kind}_calls", 0)
    m.update(ratio_metrics(counts, cache))
    m["cli.bytes_written"] = bytes_written
    m["cli.sweep_busy_ratio"] = ratio(certify_busy, threads * wall) if is_sweep else 0.0
    return m


def ratio_metrics(counts: dict[str, int], cache: tuple[int, int]) -> dict[str, float]:
    """The ratio metrics from counter totals and break-even cache (hits,
    misses), for one op or, summed over its ops, for a whole run."""
    calls = sum(counts.get(f"scalarfn.{s}.{kind}_calls", 0)
                for s in SHAPES for kind in ("value", "dual"))
    expr = sum(counts.get(f"scalarfn.ExprFn.{kind}_calls", 0) for kind in ("value", "dual"))
    accepted, rejected = counts.get("rk45.steps_accepted", 0), counts.get("rk45.steps_rejected", 0)
    hits, misses = cache
    return {"expr.eval_share": ratio(expr, calls),
            "model.break_even_hit_ratio": ratio(hits, hits + misses),
            "rk45.accept_ratio": ratio(accepted, accepted + rejected),
            "cycles.no_return_ratio": ratio(counts.get("cycles.no_returns", 0),
                                            counts.get("cycles.return_maps", 0))}
