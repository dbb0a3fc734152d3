"""Spans around calls into marcsim's public functions, recorded from outside.

Inside `with Tracer():` each traced function is replaced in every loaded `marcsim`
module that refers to it (the defining module and every module that imported
it by name), so calls are caught at every call site: `experiment`, the
quadrature inside `ser_closed_form`, the allocator objective, and the
discrepancy ledger.  Spans are kept in memory; `layer_metrics` reduces them to
the per-layer numbers once the traced sweep has ended.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time

# (module, function, span name)
TRACED = (
    ("marcsim.cli", "main", "cli.main"),
    ("marcsim.experiment", "run_experiment", "experiment.run_experiment"),
    ("marcsim.montecarlo", "estimate_ser", "montecarlo.estimate_ser"),
    ("marcsim.montecarlo", "estimate_outage", "montecarlo.estimate_outage"),
    ("marcsim.analytic", "ser_quadrature", "analytic.ser_quadrature"),
    ("marcsim.analytic", "ser_closed_form", "analytic.ser_closed_form"),
    ("marcsim.analytic", "best_cdf", "analytic.best_cdf"),
    ("marcsim.power", "numeric_allocation", "power.numeric_allocation"),
    ("marcsim.power", "ser_for_powers", "power.objective"),
    ("marcsim.discrepancy", "collect_all", "discrepancy.collect_all"),
)


@dataclasses.dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float = 0.0
    end: float = 0.0
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _mc_attrs(sig, name, args, kwargs, result) -> dict:
    """Work counts of one estimate_ser / estimate_outage call."""
    bound = sig.bind(*args, **kwargs)
    config = bound.arguments["config"]
    requested = bound.arguments["trials"]
    ran = result[0].trials if name == "montecarlo.estimate_ser" else requested
    return {
        "scheme": config.scheme.value,
        "m": config.mod_order,
        "n": config.num_relays,
        "requested": requested,
        "trials": ran,
    }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        counted = name in ("montecarlo.estimate_ser", "montecarlo.estimate_outage")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counted:
                span.attrs = _mc_attrs(sig, name, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        """Wrap every TRACED function wherever a marcsim module refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "marcsim" or n.startswith("marcsim.")]
        for mod_name, attr, span_name in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            traced = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, traced)
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()
        return False


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced sweep (exactly one cli.main root) whose
    wall time, measured by the caller around cli.main, is ``wall_s``.

    `busy_s` is inclusive: it counts a function's spans at every call site,
    nested ones included.  `experiment.self_s` is the run_experiment span minus
    its direct child spans, and `cli.self_s` the cli.main span minus
    run_experiment; those two plus the direct children of run_experiment
    tile the cli.main span, and `trace.accounted_frac` is the share of
    ``wall_s`` that span covers.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    (root,) = by_name["cli.main"]
    (run,) = by_name["experiment.run_experiment"]
    run_idx = spans.index(run)
    children = [s for s in spans if s.parent == run_idx]
    child_s = sum(s.duration for s in children)

    out: dict[str, float] = {}
    ser = by_name.get("montecarlo.estimate_ser", [])
    ser_busy = busy("montecarlo.estimate_ser")
    trials = sum(s.attrs["trials"] for s in ser)
    requested = sum(s.attrs["requested"] for s in ser)
    # joint-ML metric evaluations: M^2 per trial at the destination, and as
    # many again for the DF relay's joint decode
    hyps = sum(
        s.attrs["trials"] * s.attrs["m"] ** 2 * (2 if s.attrs["scheme"] == "df" else 1) for s in ser
    )
    out["montecarlo.estimate_ser.busy_s"] = ser_busy
    out["montecarlo.estimate_ser.calls"] = calls("montecarlo.estimate_ser")
    out["montecarlo.estimate_ser.trials"] = trials
    out["montecarlo.estimate_ser.trials_used_frac"] = trials / requested if requested else 0.0
    out["montecarlo.estimate_ser.hypotheses"] = hyps
    out["montecarlo.estimate_ser.ns_per_hypothesis"] = 1e9 * ser_busy / hyps if hyps else 0.0

    outage = by_name.get("montecarlo.estimate_outage", [])
    out_busy = busy("montecarlo.estimate_outage")
    out_trials = sum(s.attrs["trials"] for s in outage)
    out["montecarlo.estimate_outage.busy_s"] = out_busy
    out["montecarlo.estimate_outage.trials"] = out_trials
    out["montecarlo.estimate_outage.ns_per_trial"] = 1e9 * out_busy / out_trials if out_trials else 0.0

    grid: dict[str, list[float]] = {}
    for s in ser:
        key = f"montecarlo.trials_per_s.{s.attrs['scheme']}.m{s.attrs['m']}.n{s.attrs['n']}"
        acc = grid.setdefault(key, [0, 0.0])
        acc[0] += s.attrs["trials"]
        acc[1] += s.duration
    for key, (t, d) in grid.items():
        out[key] = t / d

    out["analytic.ser_quadrature.calls"] = calls("analytic.ser_quadrature")
    out["analytic.ser_quadrature.busy_s"] = busy("analytic.ser_quadrature")
    out["analytic.ser_closed_form.busy_s"] = busy("analytic.ser_closed_form")
    out["power.numeric_allocation.calls"] = calls("power.numeric_allocation")
    out["power.numeric_allocation.busy_s"] = busy("power.numeric_allocation")
    obj_calls = calls("power.objective")
    out["power.objective.calls"] = obj_calls
    out["power.objective.us_per_call"] = 1e6 * busy("power.objective") / obj_calls if obj_calls else 0.0
    out["discrepancy.collect_all.busy_s"] = busy("discrepancy.collect_all")
    out["experiment.self_s"] = run.duration - child_s
    out["cli.self_s"] = root.duration - run.duration
    out["trace.sweep_s"] = wall_s
    out["trace.accounted_frac"] = (out["cli.self_s"] + out["experiment.self_s"] + child_s) / wall_s
    # the cell work: everything run_experiment calls except the ledger
    out["experiment.cell_s"] = child_s - sum(
        s.duration for s in children if s.name == "discrepancy.collect_all"
    )
    return out
