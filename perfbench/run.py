#!/usr/bin/env python3
"""holoscene benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, both modes

Run from the repository root. Inputs are generated from ``--seed`` under
``.bench_work/``; the program sees only those files. Each workload runs in
child processes, one at a time, with one client in a closed loop.

``--trace 0`` measures the end-to-end metrics with tracing off, over three
child sessions of ``S/3`` seconds each: every session sets up afresh (so
``setup_s`` is the median of three), and op latencies are pooled. The
metrics in the result line are those with a bound in BENCHMARK.json:
``op_tail_ms`` (latency at the highest percentile with ten ops beyond it),
``setup_s`` and ``peak_rss_mb``. ``ops_per_s``, ``op_p50_ms`` and
``failed_ratio`` are printed above it without a bound: on a shared 2-vCPU host
the op latency switches between a fast and a ~1.7x slower mode for seconds to
minutes at a time, so the median and the mean move by 15-30% between runs of
the same code, while the tail sits in the slow mode and moves by ~5-10%.
``--trace 1`` runs one session: ``S/2`` seconds untraced, ``S/2`` traced, then
the kernel and cleanup probe, and reports the per-layer metrics; the spans
(name, start, end, parent, op id) are written to ``.bench_work/NAME/spans.json``.

Every op's output is checked (workloads.Checker), outputs of the same input
must be byte-identical across ops and sessions, and with the default seed
they must match the digests in ``digests.json``, recorded from the seed code
with ``--record-digests``.
Any mismatch counts as a failed op. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
SESSIONS = 3
RUN_BUDGET_S = 170  # a run must end within 180 s, whatever the program's speed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "HOLOSCENE_BACKEND")


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten ops beyond it
    (nearest rank), and that percentile; never below the median, so with
    fewer than twenty ops it is the median."""
    ranked = sorted(latencies)
    beyond = min(10, (len(ranked) - 1) // 2)
    return ranked[len(ranked) - 1 - beyond], 100.0 * (1 - beyond / len(ranked))


def machine_record(workload: str, seed: int, inputs: dict) -> dict:
    import numpy
    from holoscene import backends

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backends.current(),
        "backends": backends.available(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "input_seeds": inputs.get("seeds", [seed]),
    }


def run_session(name: str, inputs: dict, work: Path, index: int, seconds: float,
                trace: int, deadline: float) -> dict:
    spec_path = work / f"session{index}.spec.json"
    result_path = work / f"session{index}.result.json"
    spec = {"workload": name, "inputs": inputs, "seconds": seconds, "trace": trace,
            "offset": index * 5, "spans": str(work / "spans.json")}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path), repr(spawned)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} session {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def judge(name: str, seed: int, sessions: list, keys: list, record_digests: bool) -> tuple:
    """Count failed ops: an op fails its own check, or its output differs from
    the first output of the same input, or (default seed) from the digest
    recorded from the seed code. Returns (attempted, failed, problems)."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    use_recorded = seed == DEFAULT_SEED and not record_digests
    expected = recorded.get(name, {}) if use_recorded else None
    first: dict = {}
    attempted = failed = 0
    problems = []
    for session in sessions:
        for key, phase, _, ok, digest, problem in session["records"]:
            attempted += 1
            first.setdefault(key, digest)
            if ok and digest != first[key]:
                ok, problem = False, "output differs from an earlier op on the same input"
            if ok and expected is not None and digest != expected.get(key):
                ok, problem = False, "output differs from the digest recorded from the seed code"
            if not ok:
                failed += 1
                problems.append(f"{key} ({phase}): {problem}")
    if record_digests:
        if sorted(first) != sorted(keys):
            raise RuntimeError(f"run longer: the run missed inputs {sorted(set(keys) - set(first))}")
        recorded[name] = dict(sorted(first.items()))
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return attempted, failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: int, record_digests=False) -> dict:
    import workloads

    deadline = time.monotonic() + RUN_BUDGET_S
    workload = workloads.WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.make_inputs(workload, seed, work)
    count = 1 if trace else SESSIONS
    sessions = [
        run_session(name, inputs, work, i, seconds / count, trace, deadline)
        for i in range(count)
    ]
    keys = [key for key, _ in workloads.ops(workload, inputs)]
    attempted, failed, problems = judge(name, seed, sessions, keys, record_digests)
    notes = {"problems": problems[:20]}
    unbounded = {"failed_ratio": (failed / attempted, "1")}
    if trace:
        metrics = dict(sessions[0]["layers"], **unbounded)
        unbounded = {}
    else:
        latencies = [r[2] for s in sessions for r in s["records"] if r[1] == "timed"]
        tail_s, percentile = tail(latencies)
        metrics = {
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "setup_s": (statistics.median(s["setup_s"] for s in sessions), "s"),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in sessions), "MB"),
        }
        unbounded.update(
            ops_per_s=(len(latencies) / sum(latencies), "ops/s"),
            op_p50_ms=(statistics.median(latencies) * 1e3, "ms"),
        )
        notes.update(tail_percentile=percentile, samples=len(latencies),
                     setups_s=[s["setup_s"] for s in sessions])
    notes["input_size"] = {
        "distinct_inputs": len(keys),
        "clauses_per_text": workload.stories.clauses if workload.stories else None,
        "corpus_sentences": inputs.get("sentences"),
    }
    return {
        "workload": name,
        "trace": trace,
        "machine": machine_record(name, seed, inputs),
        "notes": notes,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unbounded": {k: {"value": v, "unit": u} for k, (v, u) in unbounded.items()},
    }


def report(result: dict) -> None:
    print(f"== {result['workload']} (trace {result['trace']})")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print("notes " + json.dumps(result["notes"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:45s} {metric['value']:>14.6g} {metric['unit']}")
    for name, metric in result["unbounded"].items():
        print(f"  {name:45s} {metric['value']:>14.6g} {metric['unit']}  (reported, no bound)")
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{result['workload']}-seed{result['machine']['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="holoscene benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="with the default seed, write digests.json from this run")
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs the default seed {DEFAULT_SEED}")

    if not (SRC / "holoscene" / "__init__.py").is_file():
        print(f"error: no holoscene sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    try:
        results = [
            run_workload(n, args.seed, args.seconds, t, args.record_digests)
            for n in names for t in traces
        ]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
