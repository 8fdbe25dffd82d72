"""The benchmark's tracer still reaches every layer it traces.

``perfbench/spans.py`` rebinds names in the package's modules to wrappers that
record per-layer spans, and lists a name the package no longer defines in
``Tracer.missing``; that layer then drops out of the traced metrics.  A
refactor that renames or removes a traced call site must show up here.
"""

import importlib.util
import sys
from pathlib import Path

from ridgepursuit import approx, cli, greedy, model, risk
from ridgepursuit.model import RidgeModel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Traced names the package already no longer has; a traced benchmark run
# reports them as ``untraced_names``.
STALE = {
    "ridgepursuit.cli.mc_l2_sq_distance",
    "ridgepursuit.greedy.minimize_scalar",
    "ridgepursuit.greedy.eval_unit",
    "ridgepursuit.model.eval_unit",
    "ridgepursuit.greedy.ordered_map",
    "ridgepursuit.risk.ordered_map",
    "ridgepursuit.approx.ordered_map",
}


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)
    return spans.Tracer()


def test_tracer_misses_no_live_name_and_restores_every_one(monkeypatch):
    owners = (approx, cli, greedy, model, risk, RidgeModel)
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = load_tracer(monkeypatch)
    tracer.install()
    try:
        assert set(tracer.missing) <= STALE, sorted(set(tracer.missing) - STALE)
        for owner, attr in tracer.patched_names():
            assert vars(owner)[attr] is not before[owner][attr], attr
    finally:
        tracer.restore()
    for owner in owners:
        after = dict(vars(owner))
        assert after.keys() == before[owner].keys()
        assert all(after[k] is v for k, v in before[owner].items()), owner
