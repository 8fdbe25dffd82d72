"""One benchmark process: set up, run an untimed warm-up op, then the timed loop.

    python3 perfbench/worker.py --workload NAME --seed N --budget SECONDS --trace 0|1 --base K

Op k of this process uses the seed ``op_seed(seed, base + k)``; op 0 is the
warm-up.  The process prints one JSON line: the wall-clock time at which the
warm-up ended (``ready_at``, so the parent can time set-up from process
start), the timed ops, CPU time, peak RSS and environment; with ``--trace 1`` each op runs twice on
the same seed, untraced then traced, and the record carries the per-layer
metrics.  Exit code 2 means the package could not be imported from the
checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _die(message: str) -> None:
    print(f"worker: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import ridgepursuit
    except ImportError as exc:
        _die(f"cannot import ridgepursuit from {SRC}: {exc}")
    if not Path(ridgepursuit.__file__).resolve().is_relative_to(SRC):
        _die(f"ridgepursuit resolved outside {SRC}: {ridgepursuit.__file__}")


class Loop:
    """Runs ops, timing each and collecting failure reasons without raising."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.covered = 0
        self.rows = 0

    def attempt(self, seed: int, op=None) -> float:
        """Run one op (the workload's, or ``op``); return its wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = (op or self.workload.run_op)(seed)
        except Exception as exc:  # an op failure is counted, never fatal
            elapsed = time.perf_counter() - t0
            self.failed += 1
            self.reasons.append(f"op seed {seed}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        self.failed += bool(result.reasons)
        self.reasons += [f"op seed {seed}: {r}" for r in result.reasons]
        self.covered += result.covered
        self.rows += result.rows
        return elapsed


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            info = deps.get("blas", {})
            return f"{info.get('name', '?')} {info.get('version', '?')}"
        except (TypeError, KeyError, AttributeError) as exc:  # older numpy/scipy
            return f"unknown ({type(exc).__name__})"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--base", type=int, default=0)
    args = parser.parse_args(argv)

    _import_package()
    import ops
    import spans

    if args.workload not in ops.WORKLOADS:
        _die(f"unknown workload {args.workload!r}")
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        loop = Loop(ops.WORKLOADS[args.workload](str(workdir)))
        loop.attempt(ops.op_seed(args.seed, args.base))
        ready_at = time.time()

        op_s: list[float] = []
        untraced_s: list[float] = []
        tracer = spans.Tracer()
        cpu0, t0 = time.process_time(), time.perf_counter()
        k = 0
        while args.budget > 0:
            k += 1
            seed = ops.op_seed(args.seed, args.base + k)
            if args.trace:
                untraced_s.append(loop.attempt(seed))
                tracer.op = k
                tracer.install()
                try:
                    op_s.append(loop.attempt(seed))
                finally:
                    tracer.restore()
            else:
                op_s.append(loop.attempt(seed))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / k >= args.budget:  # the next op would overrun
                break
        loop_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0

        record = {
            "ready_at": ready_at,
            "op_s": op_s,
            "loop_s": loop_s,
            "cpu_s": cpu_s,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "reasons": loop.reasons,
            "covered": loop.covered,
            "rows": loop.rows,
            "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "environment": environment(),
        }
        if args.trace:
            record["layers"] = spans.layer_metrics(tracer.spans, op_s, untraced_s)
            record["untraced_names"] = tracer.missing
        print(json.dumps(record), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
