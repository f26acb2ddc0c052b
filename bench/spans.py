"""Span recorder that wraps phdsel's public functions from outside.

``from .x import f`` copies the binding, so patching only the defining
module would miss calls made through the copies.  ``Recorder.install``
therefore replaces every module attribute of the ``phdsel`` package that
*is* a traced function, plus the two traced methods on their classes, and
``uninstall`` puts the originals back.

Each call becomes a ``Span`` with an id, its parent's id, the layer-qualified
name and its start/end times; a few spans also keep facts read from the
call's arguments or result (fit evaluations, degenerate selections).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute, span name); attributes that are classes' methods are
# given as "Class.method".
TRACED = (
    ("phdsel.cells", "CellPartition.bin_indices", "cells.bin"),
    ("phdsel.models", "DiscreteModel.cell_prob", "models.cell_prob"),
    ("phdsel.models", "sample_mixture", "models.sample_mixture"),
    ("phdsel.divergence", "penalized_hellinger", "divergence.phd"),
    ("phdsel.fit", "minimize_phd", "fit.fit"),
    ("phdsel.fit", "fit_phd_to_probs", "fit.fit"),
    ("phdsel.asymptotics", "lambda_star_hat", "asymptotics.lambda_star"),
    ("phdsel.inference", "model_select", "inference.select"),
    ("phdsel.quantiles", "normal_quantile", "quantiles.normal_quantile"),
    ("phdsel.simulate", "substream", "simulate.substream"),
    ("phdsel.simulate", "run_experiment", "simulate.run_experiment"),
    ("phdsel.simulate", "equidistance_pi", "simulate.equidistance"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fit_info(args, kwargs, result) -> dict:
    model = args[0] if args else kwargs["model"]
    (lo, hi), theta = model.bounds[0], float(result.theta_hat[0])
    margin = 1e-6 * (hi - lo)
    return {"evaluations": result.evaluations, "converged": result.converged,
            "at_bound": theta <= lo + margin or theta >= hi - margin}


_INFO = {
    "fit.fit": _fit_info,
    "inference.select": lambda args, kwargs, r: {"degenerate": r.degenerate},
}


class Recorder:
    """Collects spans in memory while installed; single process, any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), stack[-1] if stack else None, name,
                        time.perf_counter())
            self.spans.append(span)
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> "Recorder":
        for modname, attr, name in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch(getattr(owner, cls_name), meth, name)
                continue
            original = getattr(owner, attr, None)
            if original is None:  # renamed or removed: its layer reads as idle
                continue
            wrapped = self.wrap(original, name)
            for mname, module in list(sys.modules.items()):
                if mname == "phdsel" or mname.startswith("phdsel."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, key, value))
                            setattr(module, key, wrapped)
        return self

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are merged, not double counted)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def summarize(spans: list[Span], ops: int) -> dict:
    """Per-name counts, total and self time, plus the nesting facts the
    per-layer metrics need.  ``ops`` is the number of workload operations
    (replications or CLI calls) the spans cover."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    wall = sum(s.duration for s in spans if s.parent is None)
    names: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        entry = names[s.name]
        entry["calls"] += 1
        entry["total"] += s.duration
        entry["self"] += selfs[s.id]
        layer_self[s.layer] += selfs[s.id]

    def under(s: Span, name: str) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False

    # A fit nested in another fit (minimize_phd -> fit_phd_to_probs) is the
    # same fit; per-fit facts come from the outermost span only.
    fits = [s for s in spans if s.name == "fit.fit" and not under(s, "fit.fit")]
    selects = [s for s in spans if s.name == "inference.select"]
    return {
        "wall": wall,
        "ops": ops,
        "names": dict(names),
        "layer_self": dict(layer_self),
        "fits": len(fits),
        "fit_time": sum(s.duration for s in fits),
        "fit_evaluations": sum(s.info["evaluations"] for s in fits),
        "fit_nonconverged": sum(not s.info["converged"] for s in fits),
        "fit_at_bound": sum(s.info["at_bound"] for s in fits),
        "selects": len(selects),
        "select_degenerate": sum(s.info["degenerate"] for s in selects),
        "cell_prob_in_asymptotics": sum(
            1 for s in spans
            if s.name == "models.cell_prob" and under(s, "asymptotics.lambda_star")),
    }
