"""Smoke test of the benchmark itself (about two minutes on two cores).

    python3 perfbench/smoke.py

Run from the root of a checkout.  It checks that:

* ``run.py --workload all`` runs every workload untraced and traced, with no
  failed op, and prints every metric of BENCHMARK.json with its unit;
* tracing restores every attribute of every package module it touched;
* a deliberately bad op (an unknown config key, exit 2) and an op that raises
  are counted as failures, not raised.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile

import run
import spans
import worker

worker._import_package()
import ops  # noqa: E402  (needs the package on sys.path)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"smoke: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_benchmark_json() -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workload names")
    check({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END, "end-to-end")
    check({m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER_UNITS, "per-layer")
    check(set(ops.WORKLOADS) == set(run.WORKLOADS), "ops.WORKLOADS matches run.WORKLOADS")
    predictions = json.loads((run.HERE / "predictions.json").read_text())
    for row in predictions["predictions"]:
        check(set(row["per_layer"]) <= set(spans.PER_LAYER_UNITS), f"predicted {row['per_layer']}")
        check(set(row["moves"]) <= set(run.END_TO_END), f"predicted {row['moves']}")
        check(set(row["on"] + row["no_change_on"]) <= set(run.WORKLOADS), f"predicted {row['on']}")
    return bench


def check_full_runs(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[key]}
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", "all", "--seed", "7",
               "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=600)
        check(proc.returncode == 0, f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        results = {name: r for line in lines for name, r in line.items() if name in run.WORKLOADS}
        check(set(results) == set(run.WORKLOADS), f"trace {trace}: a workload is missing")
        for name, result in results.items():
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name} keys")
            check(result["correct"] and result["failed"] == 0, f"{name} trace {trace}: failed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected, f"{name} trace {trace}: metrics or units differ")
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()), f"{name}: 0 metric")
        print(f"smoke: trace {trace}: all workloads ok")


def package_attributes() -> dict:
    from ridgepursuit import approx, cli, dictionary, greedy, model, penalty, risk, targets

    owners = (approx, cli, dictionary, greedy, model, penalty, risk, targets, model.RidgeModel)
    return {(owner.__name__, k): v for owner in owners for k, v in vars(owner).items()}


def check_restore_and_failures() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
        loop = worker.Loop(ops.WORKLOADS["certify"](workdir))
        before = package_attributes()
        tracer = spans.Tracer()
        tracer.install()
        check(len(tracer.patched_names()) > 20, "tracer patched too few names")
        try:
            loop.attempt(ops.op_seed(7, 1))
        finally:
            tracer.restore()
        after = package_attributes()
        check(before.keys() == after.keys(), "tracing added or removed an attribute")
        changed = [k for k in before if before[k] is not after[k]]
        check(not changed, f"attributes not restored: {changed}")
        check(loop.failed == 0 and tracer.spans, "traced certify op")

        def bad_op(seed: int) -> ops.OpResult:
            argv = ["fit", "--seed", str(seed), "--set", "no_such_key=1"]
            return ops.OpResult(ops.cli_step(argv, "bad fit"))

        def raising_op(seed: int) -> ops.OpResult:
            raise RuntimeError("deliberate")

        loop = worker.Loop(ops.WORKLOADS["certify"](workdir))
        loop.attempt(1, op=bad_op)
        loop.attempt(2, op=raising_op)
        check(loop.attempted == 2 and loop.failed == 2, "bad ops were not both counted")
        check("exit 2" in loop.reasons[0], f"bad op reason: {loop.reasons[0]}")
        check("RuntimeError" in loop.reasons[1], f"raising op reason: {loop.reasons[1]}")
    print("smoke: restore and failure counting ok")


def main() -> int:
    bench = check_benchmark_json()
    check_restore_and_failures()
    check_full_runs(bench)
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
