"""Span tracing from outside the package, and the per-layer metrics.

The tracer replaces public names in the namespace of the module that calls
them (for example ``focklift.nogo.lift_unitary``), for one process and for
the duration of one ``with`` block.  Every call through a replaced name
records a span: name, start, end, parent span and run id.  Spans live in
flat arrays in memory and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its direct
children.  Names that a later version of the package no longer has are
skipped and listed in ``Tracer.gaps``, so a traced run never fails on them.
"""
from __future__ import annotations

import importlib
import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name): the calls into each layer, wrapped where
# the caller looks them up.  ``cli.main`` and the permanent calls of the
# large-permanent workload are wrapped by the benchmark itself.
SEARCH_TARGETS = (
    ("focklift.nogo", "nogo_search_two_mode", "nogo.search"),
    ("focklift.nogo", "nogo_search_ancilla", "nogo.search"),
    ("focklift.nogo", "lift_unitary", "fock.lift_unitary"),
    ("focklift.fock", "permanent", "permanent.permanent"),
    ("focklift.nogo", "exp_i_hermitian", "linalg.exp_i_hermitian"),
    ("focklift.nogo", "composite_gate_fock", "singlerail.composite_gate_fock"),
    ("focklift.nogo", "leakage", "singlerail.leakage"),
    ("focklift.nogo", "nearest_unitary_block", "singlerail.nearest_unitary_block"),
    ("focklift.nogo", "entangling_measure", "singlerail.entangling_measure"),
)

SINGLERAIL = ("composite_gate_fock", "leakage", "nearest_unitary_block", "entangling_measure")

# scipy's Nelder-Mead status codes for "stopped at the evaluation cap" and
# "stopped at the iteration cap"
_CAP_STATUS = (1, 2)


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self._stack = [-1]
        self.gaps: list[str] = []
        # (minimize span, nfev, nit, status) per optimizer call
        self.minimize_results: list[tuple[int, int, int, int]] = []
        self.lift_entries = 0
        self.permanent_ops = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Return fn wrapped so that each call records one span.

        ``after(span_index, args, result)`` runs once the span has ended.
        """
        nid = self._id(name)

        def traced(*args, **kwargs):
            i = len(self.name)
            if len(self._stack) == 2:
                # directly under the root span: a new request (one CLI call
                # or one kernel call), whose spans share this run id
                self.run_id += 1
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(i, args, out)
            return out

        return traced

    def after_lift(self, i, args, out) -> None:
        self.lift_entries += int(out.matrix.size)

    def after_permanent(self, i, args, out) -> None:
        n = int(np.shape(args[0])[0])
        self.permanent_ops += n * 2 ** n

    def after_minimize(self, i, args, res) -> None:
        self.minimize_results.append((i, int(res.nfev), int(res.nit), int(res.status)))

    def traced_minimize(self, minimize):
        """Wrap scipy's minimize and the objective handed to it."""

        def call(fun, x0, *args, **kwargs):
            return minimize(self.span("nogo.objective", fun), x0, *args, **kwargs)

        return self.span("nogo.minimize", call, self.after_minimize)

    @contextmanager
    def patched(self):
        """Route the package's internal layer calls through spans."""
        after = {"fock.lift_unitary": self.after_lift,
                 "permanent.permanent": self.after_permanent}
        saved = []
        try:
            for modname, attr, span_name in SEARCH_TARGETS:
                module = importlib.import_module(modname)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.gaps.append(f"{modname}.{attr} does not exist; {span_name} not traced")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.span(span_name, fn, after.get(span_name)))
            nogo = importlib.import_module("focklift.nogo")
            if hasattr(nogo, "minimize"):
                saved.append((nogo, "minimize", nogo.minimize))
                nogo.minimize = self.traced_minimize(nogo.minimize)
            else:
                self.gaps.append("focklift.nogo.minimize does not exist; optimizer not traced")
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), run=np.asarray(self.run),
                 start=np.asarray(self.start), end=np.asarray(self.end))


class SpanTable:
    """Column view of a tracer's spans with self times."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.name = np.asarray(tracer.name, dtype=np.intp)
        self.parent = np.asarray(tracer.parent, dtype=np.intp)
        self.start = np.asarray(tracer.start)
        self.end = np.asarray(tracer.end)
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child

    def mask(self, name: str) -> np.ndarray:
        nid = self.tracer._ids.get(name, -1)
        return self.name == nid

    def under(self, name: str, parent_name: str) -> np.ndarray:
        """Spans called name whose direct parent is called parent_name."""
        m = self.mask(name)
        pm = self.mask(parent_name)
        ok = np.zeros(len(m), dtype=bool)
        idx = np.flatnonzero(m & (self.parent >= 0))
        ok[idx] = pm[self.parent[idx]]
        return ok

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def pct_us(self, name: str, q: float) -> float:
        return _p(self.dur[self.mask(name)], q) * 1e6

    def self_shares(self) -> list[dict]:
        """Calls, total and self seconds per span name, with the self time's
        share of the root spans' time; largest self time first."""
        root = float(self.dur[self.parent < 0].sum())
        rows = []
        for nid, name in enumerate(self.tracer.names):
            m = self.name == nid
            if m.any():
                s = float(self.self_time[m].sum())
                rows.append({"name": name, "calls": int(m.sum()),
                             "total_s": float(self.dur[m].sum()), "self_s": s,
                             "self_share": s / root if root > 0 else 0.0})
        return sorted(rows, key=lambda r: -r["self_s"])

    def restart_seconds(self) -> list[float]:
        """Restart latencies: from one optimizer start to the next inside the
        same search, the last one running to the end of its search.  This
        counts the candidate evaluations that follow each optimizer call."""
        out = []
        searches = np.flatnonzero(self.mask("nogo.search"))
        mins = self.mask("nogo.minimize")
        for s in searches:
            starts = np.sort(self.start[mins & (self.parent == s)])
            if len(starts):
                bounds = np.append(starts, self.end[s])
                out.extend(np.diff(bounds).tolist())
        return out


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, feasible: tuple[int, int], output_bytes: int,
                  cache_entries: int, max_rel_error: float) -> dict[str, float]:
    """Per-layer metrics of one traced job.

    feasible is (feasible candidates, all candidates) read from the search
    reports; the other arguments are measured by the caller.
    """
    t = SpanTable(tracer)
    perm, lift, obj = "permanent.permanent", "fock.lift_unitary", "nogo.objective"
    perm_total = t.total(perm)
    lifts = t.calls(lift)
    evals = [r[1] for r in tracer.minimize_results]
    capped = [r for r in tracer.minimize_results if r[3] in _CAP_STATUS]
    objectives = t.calls(obj)
    m = {
        "permanent.calls": t.calls(perm),
        "permanent.total_s": perm_total,
        "permanent.call_us.p50": t.pct_us(perm, 50),
        "permanent.call_us.p90": t.pct_us(perm, 90),
        "permanent.ops": tracer.permanent_ops,
        "permanent.gops_per_s": tracer.permanent_ops / perm_total / 1e9 if perm_total > 0 else 0.0,
        "permanent.max_rel_error": max_rel_error,
        "fock.lift.calls": lifts,
        "fock.lift.total_s": t.total(lift),
        "fock.lift.self_s": t.self_total(lift),
        "fock.lift.call_us.p50": t.pct_us(lift, 50),
        "fock.lift.call_us.p90": t.pct_us(lift, 90),
        "fock.lift.entries": tracer.lift_entries,
        "fock.lifts_per_eval": int(t.under(lift, obj).sum()) / objectives if objectives else 0.0,
        "fock.permanents_per_lift": int(t.under(perm, lift).sum()) / lifts if lifts else 0.0,
        "fock.cache_entries": cache_entries,
        "linalg.exp_i_hermitian.calls": t.calls("linalg.exp_i_hermitian"),
        "linalg.exp_i_hermitian.total_s": t.total("linalg.exp_i_hermitian"),
    }
    for fn in SINGLERAIL:
        m[f"singlerail.{fn}.calls"] = t.calls(f"singlerail.{fn}")
        m[f"singlerail.{fn}.total_s"] = t.total(f"singlerail.{fn}")
    restarts = t.restart_seconds()
    m.update({
        "nogo.restarts": len(tracer.minimize_results),
        "nogo.restart_s.p50": _p(restarts, 50),
        "nogo.restart_s.p90": _p(restarts, 90),
        "nogo.objective_evals": sum(evals),
        "nogo.nfev_per_restart.p50": _p(evals, 50),
        "nogo.maxiter_ratio": len(capped) / len(evals) if evals else 0.0,
        "nogo.objective_us.p50": t.pct_us(obj, 50),
        "nogo.objective_self_s": t.self_total(obj),
        "nogo.optimizer_self_s": t.self_total("nogo.minimize"),
        "nogo.feasible_ratio": feasible[0] / feasible[1] if feasible[1] else 0.0,
        "cli.self_s": t.self_total("cli.main"),
        "cli.output_bytes": output_bytes,
    })
    for k, v in m.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"layer metric {k} is not finite: {v}")
    return m
