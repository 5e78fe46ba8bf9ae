"""One session of one workload, in its own process: set up, run the closed
loop, and write what was measured as JSON.

Started by run.py as ``python3 perfbench/child.py SPEC RESULT SPAWNED`` where
SPAWNED is the parent's ``time.monotonic()`` just before the process was
started, so set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from holoscene import cli, hrr

import tracer as tracing
import workloads


def run_op(argv: list) -> tuple:
    """(seconds, exit code or None if it raised, captured output)."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - start
            return elapsed, None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    return elapsed, code, buf.getvalue()


class Session:
    def __init__(self, workload, inputs: dict):
        self.ops = workloads.ops(workload, inputs)
        self.checker = workloads.Checker(workload, inputs)
        self.out = Path(inputs["out"])
        self.records: list = []

    def op(self, index: int, phase: str, tracer=None) -> float:
        key, argv = self.ops[index % len(self.ops)]
        for stale in self.out.iterdir():  # an op that writes nothing must not pass on old files
            stale.unlink()
        if tracer is not None:
            tracer.op = index
        try:
            seconds, code, output = run_op(argv)
        finally:
            if tracer is not None:
                tracer.op = None
        if code == 0:
            try:
                ok, digest, problem = self.checker.check(key, argv, output)
            except Exception as exc:  # unreadable or missing output: a failed op
                ok, digest, problem = False, None, f"output check raised {exc!r}"
        else:
            ok, digest, problem = False, None, f"exit {code}: {output.strip()[-300:]}"
        self.records.append([key, phase, seconds, ok, digest, problem])
        return seconds

    def loop(self, start: int, seconds: float, phase: str, whole_cycles=False, tracer=None) -> list:
        """Closed loop, one client: each op starts when the last one ends.
        ``whole_cycles`` runs on past the deadline to the end of a cycle over
        every input, so traced counts repeat exactly."""
        latencies = []
        deadline = time.perf_counter() + seconds
        index = start
        while time.perf_counter() < deadline or (whole_cycles and (index - start) % len(self.ops)):
            latencies.append(self.op(index, phase, tracer))
            index += 1
        return latencies


def _per_call_us(fn, calls: int, batches: int) -> float:
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times) * 1e6


def kernel_probe() -> dict:
    """Per-call kernel and cleanup cost on fixed inputs."""
    out = {}
    for dim in (64, 512, 2048):
        x = hrr.random_vector(1, dim, term="x")
        y = hrr.random_vector(2, dim, term="y")
        for name in ("convolve", "correlate"):
            fn = getattr(hrr, name)
            out[f"hrr.{name}.d{dim}.us"] = (_per_call_us(lambda: fn(x, y), 200, 15), "us")
    for size in (100, 1000, 5000):
        book = hrr.Codebook([f"t{i:05d}" for i in range(size)], dim=512, seed=3)
        probe = book.vector("t00042") + 0.5 * hrr.random_vector(9, 512, term="noise")
        out[f"hrr.cleanup.n{size}.us"] = (
            _per_call_us(lambda: hrr.cleanup(probe, book), max(1, 3000 // size), 5), "us"
        )
    return out


def main(spec_path: str, result_path: str, spawned: float) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[spec["workload"]]
    inputs = spec["inputs"]
    session = Session(workload, inputs)

    argv = workloads.setup_argv(workload, inputs)
    if argv is not None:
        _, code, output = run_op(argv)
        if code != 0:
            raise SystemExit(f"set-up build-ontology failed: {output}")
    start = spec["offset"]
    session.op(start, "warmup")
    start += 1
    setup_s = time.monotonic() - spawned

    result = {"setup_s": setup_s}
    if not spec["trace"]:
        session.loop(start, spec["seconds"], "timed")
    else:
        half = spec["seconds"] / 2
        untraced = session.loop(start, half, "untraced", whole_cycles=True)
        tracer = tracing.Tracer().install()
        try:
            traced = session.loop(start, half, "traced", whole_cycles=True, tracer=tracer)
        finally:
            tracer.uninstall()
        Path(spec["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
        layers = tracing.layer_metrics(tracer, len(traced))
        layers["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced), "1"
        )
        layers.update(kernel_probe())
        result["layers"] = layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["records"] = session.records
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
