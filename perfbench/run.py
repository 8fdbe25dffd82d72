"""ridgepursuit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src``.
Each workload is a closed loop: one client in one process issues ops back to
back.  ``--trace 0`` starts three fresh worker processes: each times its
set-up (process start to the end of one untimed warm-up op), and the last one
then runs ops for ``--seconds``.  It prints the end-to-end metrics.
``--trace 1`` starts one worker that runs each op untraced and then traced
for ``--seconds``, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the host, the environment and every failure reason.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("risk-c8", "fit-path", "fit-ascent", "certify")
# The median op time is printed in the detail line, not gated: at five to
# fifteen ops per run its run-to-run spread reached the largest bound allowed.
END_TO_END = {
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _spawn(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; return (set-up seconds, its JSON record)."""
    started = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {args} ran past the run limit") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    record = json.loads(out.splitlines()[-1])
    return record["ready_at"] - started, record


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _proc_field(path: str, key: str) -> str:
    """The value of the first ``key: value`` line of a /proc file."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _steal_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
        return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        return 0, 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload in fresh processes; return (result, detail)."""
    affinity = len(os.sched_getaffinity(0))
    env = dict(os.environ, RIDGE_THREADS=str(affinity))
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed)]
    if trace:
        plan = [(seconds, 1)]
    else:
        plan = [(0.0, 0)] * (SETUP_SAMPLES - 1) + [(seconds, 0)]
    setups, records = [], []
    steal0, total0 = _steal_ticks()
    for j, (budget, traced) in enumerate(plan):
        args = common + ["--budget", str(budget), "--trace", str(traced), "--base", str(j * 10**6)]
        setup, record = _spawn(args, env, deadline)
        setups.append(setup)
        records.append(record)
    steal1, total1 = _steal_ticks()
    main = records[-1]
    op_s = main["op_s"]
    if not op_s:
        raise BenchError(f"{name}: no op was timed")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)

    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in main["layers"].items()}
    else:
        values = {
            "ops_per_s": len(op_s) / main["loop_s"],
            "cpu_s_per_op": main["cpu_s"] / len(op_s),
            "peak_rss_mib": max(r["maxrss_kib"] for r in records) / 1024,
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    rows = sum(r["rows"] for r in records)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "timed_ops": len(op_s),
        "op_s_p50": statistics.median(op_s),
        "setup_samples_s": setups,
        "fail_frac": failed / attempted,
        "failures": [reason for r in records for reason in r["reasons"]],
        "c8_covered_frac": sum(r["covered"] for r in records) / rows if rows else None,
        "untraced_names": main.get("untraced_names", []),
        "host": {
            "cpu_affinity": affinity,
            # CPU time the hypervisor gave to other guests during this run;
            # timings from a run with a large share are slowed by the host.
            "steal_frac": (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0,
            "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
            "ram": _proc_field("/proc/meminfo", "MemTotal"),
            "ridge_threads": env["RIDGE_THREADS"],
            "blas_threads": {v: os.environ.get(v, "library default") for v in BLAS_THREAD_VARS},
            "git_commit": _git_commit(),
            **main["environment"],
        },
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ridgepursuit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ridgepursuit" / "__init__.py").is_file():
        print(f"run.py: no ridgepursuit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results[name] = result
            print(json.dumps({"detail": detail}))
            if args.workload == "all":
                print(json.dumps({name: result}))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
