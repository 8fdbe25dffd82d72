"""Outside-in tracing of ridgepursuit's layers, and the per-layer metrics.

``Tracer.install`` rebinds the names that callers look up (``greedy.inner_maximize``,
``risk.fit_lpgp``, ``cli.best_of``, ``RidgeModel.evaluate``, ...) to wrappers that
record a span per call; ``Tracer.restore`` puts every original back.  Nothing in
the package is edited, and nothing is wrapped outside a traced run.

A span has a name, a layer (the package module it belongs to), start and end
times, the op it ran for and its parent span.  Calls made by ``ordered_map``
workers become ``<caller layer>.map_item`` spans whose parent is the
``threads.ordered_map`` span, so parentage survives the hop into pool
threads.  A span's self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# Layer names follow the package modules; `_threads` is reported as `threads`
# because a metric name must start with a letter or digit.
LAYERS = ("dictionary", "targets", "model", "approx", "greedy", "penalty", "risk", "threads", "cli")

# The float32 switch of the n x K cover-value cache (greedy._build_cover_cache).
_FLOAT32_CELLS = 30_000_000

PER_LAYER_UNITS: dict[str, str] = {
    "dictionary.enumerate_cover.calls": "count/op",
    "dictionary.enumerate_cover.s": "s/op",
    "dictionary.cover_rows": "count/op",
    "dictionary.eval_unit.calls": "count/op",
    "dictionary.eval_unit.s": "s/op",
    "greedy.cover_cache.s": "s/op",
    "greedy.cover_cache.bytes": "B",
    "greedy.inner_maximize.calls": "count/op",
    "greedy.inner_maximize.s": "s/op",
    "greedy.candidates": "count/op",
    "greedy.inner_useful_ratio": "ratio",
    "greedy.project_l1.calls": "count/op",
    "greedy.project_l1.s": "s/op",
    "greedy.line_search.calls": "count/op",
    "greedy.line_search.s": "s/op",
    "greedy.scalar_search.calls": "count/op",
    "greedy.scalar_search.nfev": "count/op",
    "greedy.step_ms.p50": "ms",
    "greedy.step_ms.growth": "ratio",
    "greedy.write_path_csv.s": "s/op",
    "model.evaluate.calls": "count/op",
    "model.evaluate.s": "s/op",
    "model.unit_evals": "count/op",
    "risk.fit_and_select.s": "s/op",
    "risk.select_self.s": "s/op",
    "risk.losses.s": "s/op",
    "risk.mc_check.s": "s/op",
    "penalty.penalty_for_regime.calls": "count/op",
    "penalty.penalty_for_regime.s": "s/op",
    "penalty.tail_tn.s": "s/op",
    "approx.best_of.calls": "count/op",
    "approx.best_of.s": "s/op",
    "targets.sample_ramp_model.calls": "count/op",
    "targets.sample_ramp_model.s": "s/op",
    "targets.mc_l2_sq_distance.s": "s/op",
    "targets.gen_dataset.s": "s/op",
    "threads.ordered_map.calls": "count/op",
    "threads.pooled_maps": "count/op",
    "threads.items": "count/op",
    "threads.queue_wait.s": "s/op",
    "threads.busy_frac": "ratio",
    "threads.max_live": "count",
    "cli.parse_config.s": "s/op",
    **{f"{layer}.self.s": "s/op" for layer in LAYERS},
    "trace.self_share": "ratio",
    "trace.coverage": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    layer: str
    thread: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _note_fit(args, kwargs, path) -> dict:
    data = args[0] if args else kwargs["data"]
    return {"n": data.X.shape[0], "steps": len(path.records)}


def _note_cover(args, kwargs, cover) -> dict:
    return {"rows": cover.thetas.shape[0], "D": cover.thetas.shape[1]}


def _note_inner(args, kwargs, result) -> dict:
    return {"candidates": result.diagnostics.get("n_candidates", 0)}


def _note_scalar(args, kwargs, result) -> dict:
    return {"nfev": int(getattr(result, "nfev", 0))}


def _note_evaluate(args, kwargs, result) -> dict:
    return {"terms": args[0].n_terms}


class Tracer:
    """Records spans from wrappers installed around the package's call sites."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # traced names the program no longer defines

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, parent: int | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), parent, self.op, name, layer, threading.get_ident(), 0.0)
        stack.append(span)
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def _wrap(self, fn: Callable, name: str, note: Callable | None) -> Callable:
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                try:
                    span.info.update(note(args, kwargs, result))
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass  # the program changed shape; the count reads 0
            return result

        return traced

    def _wrap_map(self, fn: Callable, caller: str) -> Callable:
        @functools.wraps(fn)
        def traced_map(func, items):
            span = self._open("threads.ordered_map", "threads")

            def item(x):
                inner = self._open(f"{caller}.map_item", caller, parent=span.id)
                inner.info["live"] = threading.active_count()
                try:
                    return func(x)
                finally:
                    self._close(inner)

            try:
                return fn(item, items)
            finally:
                self._close(span)
                span.info["items"] = len(items)

        return traced_map

    # -- installation --------------------------------------------------------

    def _patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Rebind owner.attr to make(original); a name the program no longer has is skipped."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Rebind every traced name; ``restore`` undoes it."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        from ridgepursuit import approx, cli, greedy, model, risk

        plain = [
            (cli, "main", "cli.main", None),
            (cli, "parse_config", "cli.parse_config", None),
            (cli, "fit_lpgp", "greedy.fit_lpgp", _note_fit),
            (cli, "gen_dataset", "targets.gen_dataset", None),
            (cli, "write_path_csv", "greedy.write_path_csv", None),
            (cli, "best_of", "approx.best_of", None),
            (cli, "sample_ramp_model", "targets.sample_ramp_model", None),
            (cli, "mc_l2_sq_distance", "targets.mc_l2_sq_distance", None),
            (cli, "mc_symmetrization_check", "risk.mc_check", None),
            (cli, "mc_noise_check", "risk.mc_check", None),
            (cli, "penalty_for_regime", "penalty.penalty_for_regime", None),
            (risk, "risk_curve", "risk.risk_curve", None),
            (risk, "fit_and_select", "risk.fit_and_select", None),
            (risk, "fit_lpgp", "greedy.fit_lpgp", _note_fit),
            (risk, "losses", "risk.losses", None),
            (risk, "penalty_for_regime", "penalty.penalty_for_regime", None),
            (risk, "tail_tn", "penalty.tail_tn", None),
            (risk, "eval_unit", "dictionary.eval_unit", None),
            (greedy, "enumerate_cover", "dictionary.enumerate_cover", _note_cover),
            (greedy, "inner_maximize", "greedy.inner_maximize", _note_inner),
            (greedy, "line_search", "greedy.line_search", None),
            (greedy, "minimize_scalar", "greedy.scalar_search", _note_scalar),
            (greedy, "project_l1", "greedy.project_l1", None),
            (greedy, "eval_unit", "dictionary.eval_unit", None),
            (model, "eval_unit", "dictionary.eval_unit", None),
            (approx, "eval_unit", "dictionary.eval_unit", None),
            (model.RidgeModel, "evaluate", "model.evaluate", _note_evaluate),
        ]
        for owner, attr, name, note in plain:
            self._patch(owner, attr, functools.partial(self._wrap, name=name, note=note))
        for owner, caller in ((greedy, "greedy"), (risk, "risk"), (approx, "approx")):
            self._patch(owner, "ordered_map", functools.partial(self._wrap_map, caller=caller))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def patched_names(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in self._saved]


# ----------------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------------


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval covered by the children's union."""
    total, reach = 0.0, span.start
    for c in sorted(children, key=lambda s: s.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _step_times(fit: Span, children: list[Span]) -> list[float]:
    """Per-step wall times of one fit_lpgp span, in ms.

    Step k runs from the end of line search k-1 (for k = 1, the start of the
    first inner maximization) to the end of line search k.
    """
    inner = [c.start for c in children if c.name == "greedy.inner_maximize"]
    ends = sorted(c.end for c in children if c.name == "greedy.line_search")
    if not inner or not ends:
        return []
    bounds = [min(inner)] + ends
    return [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]


def layer_metrics(
    spans: list[Span], traced_op_s: list[float], untraced_op_s: list[float]
) -> dict[str, float]:
    """Every per-layer metric, per traced op where the unit says so."""
    n_ops = max(len(traced_op_s), 1)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    select_self = 0.0
    info_sum: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own = s.duration - _covered(s, children.get(s.id, []))
        self_by_layer[s.layer] += own
        if s.name == "risk.fit_and_select":
            select_self += own
        for key, value in s.info.items():
            info_sum[f"{s.name}:{key}"] = info_sum.get(f"{s.name}:{key}", 0.0) + value

    def per_op(name: str, what: str = "s") -> float:
        return (total.get(name, 0.0) if what == "s" else calls.get(name, 0)) / n_ops

    cache_s, cache_bytes, steps = 0.0, 0, []
    for fit in (s for s in spans if s.name == "greedy.fit_lpgp"):
        kids = children.get(fit.id, [])
        first_inner = min(
            (c.start for c in kids if c.name == "greedy.inner_maximize"), default=fit.end
        )
        covers = [c for c in kids if c.name == "dictionary.enumerate_cover"]
        cache_s += first_inner - fit.start - sum(c.duration for c in covers if c.end <= first_inner)
        for c in covers:
            rows = c.info.get("rows", 0)
            cells = fit.info.get("n", 0) * rows
            itemsize = 4 if cells > _FLOAT32_CELLS else 8
            cache_bytes = max(cache_bytes, cells * itemsize + rows * c.info.get("D", 0) * 8)
        steps.append(_step_times(fit, kids))
    all_steps = [t for fit_steps in steps for t in fit_steps]
    first_q = [t for f in steps if len(f) >= 4 for t in f[: len(f) // 4]]
    last_q = [t for f in steps if len(f) >= 4 for t in f[-(len(f) // 4):]]

    maps = [s for s in spans if s.name == "threads.ordered_map"]
    pooled, wait, busy, capacity, live = 0, 0.0, 0.0, 0.0, 0
    for m in maps:
        items = [c for c in children.get(m.id, []) if c.name.endswith(".map_item")]
        workers = {c.thread for c in items}
        pooled += any(t != m.thread for t in workers)
        # Queue wait: how long each item was submitted but not yet started.
        wait += sum(c.start - m.start for c in items)
        busy += sum(c.duration for c in items)
        capacity += m.duration * max(len(workers), 1)
        live = max([live] + [c.info["live"] for c in items])

    op_wall = sum(traced_op_s)
    roots = sum(s.duration for s in spans if s.parent is None)
    inner_calls = calls.get("greedy.inner_maximize", 0)
    traced_rate = len(traced_op_s) / op_wall if op_wall else 0.0
    untraced_rate = len(untraced_op_s) / sum(untraced_op_s) if untraced_op_s else 0.0

    metrics = {
        "dictionary.enumerate_cover.calls": per_op("dictionary.enumerate_cover", "calls"),
        "dictionary.enumerate_cover.s": per_op("dictionary.enumerate_cover"),
        "dictionary.cover_rows": info_sum.get("dictionary.enumerate_cover:rows", 0.0) / n_ops,
        "dictionary.eval_unit.calls": per_op("dictionary.eval_unit", "calls"),
        "dictionary.eval_unit.s": per_op("dictionary.eval_unit"),
        "greedy.cover_cache.s": cache_s / n_ops,
        "greedy.cover_cache.bytes": float(cache_bytes),
        "greedy.inner_maximize.calls": per_op("greedy.inner_maximize", "calls"),
        "greedy.inner_maximize.s": per_op("greedy.inner_maximize"),
        "greedy.candidates": info_sum.get("greedy.inner_maximize:candidates", 0.0) / n_ops,
        "greedy.inner_useful_ratio": (
            info_sum.get("greedy.fit_lpgp:steps", 0.0) / inner_calls if inner_calls else 0.0
        ),
        "greedy.project_l1.calls": per_op("greedy.project_l1", "calls"),
        "greedy.project_l1.s": per_op("greedy.project_l1"),
        "greedy.line_search.calls": per_op("greedy.line_search", "calls"),
        "greedy.line_search.s": per_op("greedy.line_search"),
        "greedy.scalar_search.calls": per_op("greedy.scalar_search", "calls"),
        "greedy.scalar_search.nfev": info_sum.get("greedy.scalar_search:nfev", 0.0) / n_ops,
        "greedy.step_ms.p50": statistics.median(all_steps) if all_steps else 0.0,
        "greedy.step_ms.growth": (
            statistics.fmean(last_q) / statistics.fmean(first_q) if first_q else 0.0
        ),
        "greedy.write_path_csv.s": per_op("greedy.write_path_csv"),
        "model.evaluate.calls": per_op("model.evaluate", "calls"),
        "model.evaluate.s": per_op("model.evaluate"),
        "model.unit_evals": info_sum.get("model.evaluate:terms", 0.0) / n_ops,
        "risk.fit_and_select.s": per_op("risk.fit_and_select"),
        "risk.select_self.s": select_self / n_ops,
        "risk.losses.s": per_op("risk.losses"),
        "risk.mc_check.s": per_op("risk.mc_check"),
        "penalty.penalty_for_regime.calls": per_op("penalty.penalty_for_regime", "calls"),
        "penalty.penalty_for_regime.s": per_op("penalty.penalty_for_regime"),
        "penalty.tail_tn.s": per_op("penalty.tail_tn"),
        "approx.best_of.calls": per_op("approx.best_of", "calls"),
        "approx.best_of.s": per_op("approx.best_of"),
        "targets.sample_ramp_model.calls": per_op("targets.sample_ramp_model", "calls"),
        "targets.sample_ramp_model.s": per_op("targets.sample_ramp_model"),
        "targets.mc_l2_sq_distance.s": per_op("targets.mc_l2_sq_distance"),
        "targets.gen_dataset.s": per_op("targets.gen_dataset"),
        "threads.ordered_map.calls": len(maps) / n_ops,
        "threads.pooled_maps": pooled / n_ops,
        "threads.items": info_sum.get("threads.ordered_map:items", 0.0) / n_ops,
        "threads.queue_wait.s": wait / n_ops,
        "threads.busy_frac": busy / capacity if capacity else 0.0,
        "threads.max_live": float(live),
        "cli.parse_config.s": per_op("cli.parse_config"),
        **{f"{layer}.self.s": self_by_layer[layer] / n_ops for layer in LAYERS},
        "trace.self_share": sum(self_by_layer.values()) / op_wall if op_wall else 0.0,
        "trace.coverage": roots / op_wall if op_wall else 0.0,
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_frac": untraced_rate / traced_rate - 1.0 if traced_rate else 0.0,
    }
    return metrics
