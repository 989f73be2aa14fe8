"""armatch benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The workload's seed fixes its inputs before any timing starts.  A single
client issues the next op only after the previous one returns; CLI ops call
``armatch.cli.main(argv)`` in-process, library ops call the public function.
Every op's output is checked against ``reference.json``.

``--trace 0`` measures the end-to-end metrics over whole passes of the
workload's input pool (each pool item once, in a seed-shuffled order),
stopping at the pass boundary nearest to ``--seconds``, but after two passes
at least.  ``--trace 1`` runs one pass untraced and then traced, and reports
per-layer metrics per op; its counts repeat exactly.  Both print an
environment record and details, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Before numpy loads: one BLAS/OpenMP thread per process, so that --jobs 2
# never runs more threads than the two workers.
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import compare, workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 3
MIN_PASSES = 2  # every input runs at least twice in a measured loop
SPEEDUP_SAMPLE = 4  # ops timed at --jobs 1 and --jobs 2 for parallel.speedup_j2


def load_program():
    """Import armatch from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "armatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no armatch package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import armatch.cli

    if SRC not in Path(armatch.cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported armatch from {armatch.cli.__file__}, not from {SRC}")


def environment():
    import scipy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": THREAD_ENV,
    }


def measure_setup():
    """Median wall time of a fresh interpreter importing armatch.cli and
    building its parser, over SETUP_REPS interpreters."""
    cmd = [sys.executable, "-c", "import armatch.cli as c; c.build_parser()"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, wl, workdir, reference):
        self.wl, self.workdir, self.reference = wl, workdir, reference
        self.attempted = 0
        self.failed = 0
        self.results = {}  # item key -> checked fields of its last output

    def op(self, item, jobs):
        """Run and check one op; return (latency, output bytes), or None if it failed."""
        self.attempted += 1
        try:
            latency, raw = self.wl.run(item, self.workdir, jobs)
            fields = self.wl.fields(raw)
        except (Exception, SystemExit) as exc:
            return self._fail(item, [f"raised {exc!r}"])
        problems = compare(fields, self.reference[item.key])
        if problems:
            return self._fail(item, problems)
        self.results[item.key] = fields
        return latency, raw

    def _fail(self, item, problems):
        self.failed += 1
        print(f"op {self.wl.name}/{item.key} failed: " + "; ".join(problems[:3]), file=sys.stderr)
        return None

    def same_bytes(self, item, jobs, expected, what):
        """One more op whose output must equal ``expected`` byte for byte."""
        done = self.op(item, jobs)
        if done is not None and done[1] != expected:
            self.failed += 1
            print(f"op {self.wl.name}/{item.key}: output bytes differ ({what})", file=sys.stderr)

    def cross_check(self):
        problems = self.wl.run_problems(self.results)
        for p in problems:
            print(f"{self.wl.name}: {p}", file=sys.stderr)
        self.failed += len(problems)

    def ops(self, items, jobs):
        """Run ``items`` in order; return (wall seconds, latencies)."""
        t0 = time.perf_counter()
        done = [self.op(item, jobs) for item in items]
        return time.perf_counter() - t0, [d[0] for d in done if d is not None]


def tail(latencies, pct):
    """Latency at the workload's fixed tail percentile, linearly interpolated.

    The percentile is fixed per workload, not derived from the run's op
    count, so every run and every commit reports the same percentile."""
    return float(np.percentile(latencies, pct))


def end_to_end(wl, seed, seconds, runner):
    passes = wl.passes(seed)
    first = wl.items()[0]
    warm = runner.op(first, wl.jobs)  # fills lazy imports and caches; not timed
    latencies = []
    n_passes = 0
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    # Whole passes only, so that every run measures the same mix of inputs;
    # stop at the pass boundary nearest to ``seconds``, after MIN_PASSES.
    elapsed = 0.0
    while n_passes < MIN_PASSES or elapsed * (1.0 + 0.5 / n_passes) < seconds:
        latencies += runner.ops(next(passes), wl.jobs)[1]
        n_passes += 1
        elapsed = time.perf_counter() - t0
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    ops = len(latencies)
    if warm is not None:
        runner.same_bytes(first, wl.jobs, warm[1], "repeated op")
        if wl.jobs is not None and wl.jobs > 1:
            runner.same_bytes(first, 1, warm[1], f"--jobs 1 vs --jobs {wl.jobs}")
    runner.cross_check()
    timed = latencies or [wall]  # no op succeeded: the result is incorrect anyway
    metrics = {
        "ops_per_s": (ops / wall, "1/s"),
        "op_p50_s": (statistics.median(timed), "s"),
        "op_tail_s": (tail(timed, wl.tail_pct), "s"),
        "cpu_s_per_op": (cpu / max(ops, 1), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"ops": ops, "passes": n_passes, "loop_s": wall, "tail_percentile": wl.tail_pct,
              "tail_ops_beyond": len(timed) * (1.0 - wl.tail_pct / 100.0)}
    return metrics, detail


def traced(wl, seed, runner, spans_path):
    from tracing import Tracer

    items = next(wl.passes(seed))
    runner.op(items[0], 1)  # warm-up, not timed
    # Worker-side layers run in-process at --jobs 1 on the same inputs.
    wall_plain, lat_plain = runner.ops(items, 1)
    origin = time.perf_counter()
    with Tracer() as tracer:
        tracer.install()
        for i, item in enumerate(items):
            tracer.op = i
            runner.op(item, 1)
        wall_traced = time.perf_counter() - origin
    ops = len(items)
    metrics = tracer.metrics(ops)
    metrics.update(tracer.count_metrics(ops))
    tracer.write(spans_path, origin)
    detail = {"ops": ops, "untraced_s": wall_plain, "traced_s": wall_traced}

    speedup = 0.0  # 0 = the workload has no --jobs
    if wl.jobs is not None:
        sample = items[:SPEEDUP_SAMPLE]
        wall_j2, _ = runner.ops(sample, 2)
        speedup = sum(lat_plain[:SPEEDUP_SAMPLE]) / wall_j2
        detail["speedup_sample_ops"] = len(sample)
    if wl.jobs is not None and wl.jobs > 1:
        # The pool layer, parent side, at the workload's own --jobs.
        with Tracer() as pool_tracer:
            pool_tracer.install(parallel_only=True)
            runner.ops(items, wl.jobs)
        metrics.update(pool_tracer.metrics(ops, names=("parallel.map",)))
        metrics.update(pool_tracer.count_metrics(ops, names=("parallel.pools", "parallel.tasks", "parallel.task_bytes")))
    metrics["parallel.speedup_j2"] = (speedup, "ratio")
    metrics["trace.overhead_ops_per_s"] = (ops / wall_traced - ops / wall_plain, "1/s")
    runner.cross_check()
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json",
                        help="reference outputs (default: %(default)s)")
    parser.add_argument("--pool", type=int, help="use only the first POOL inputs (quick checks, not measurements)")
    args = parser.parse_args(argv)

    load_program()
    wls = workloads()
    if args.workload not in wls:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wls)}")
    wl = wls[args.workload]
    if args.pool:
        pool = wl.items()[: args.pool]
        wl.items = lambda: pool
    reference = json.loads(args.reference.read_text())["outputs"][wl.name]

    env = environment()
    print("env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl.prepare(workdir)
        runner = Runner(wl, workdir, reference)
        if args.trace:
            metrics, detail = traced(wl, args.seed, runner, OUT / f"spans-{wl.name}-seed{args.seed}.csv.gz")
        else:
            setup, setup_runs = measure_setup()
            metrics, detail = end_to_end(wl, args.seed, args.seconds, runner)
            metrics["setup_s"] = (setup, "s")
            metrics["success_rate"] = (1.0 - runner.failed / runner.attempted, "ratio")
            detail["setup_runs_s"] = setup_runs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(workload=wl.name, seed=args.seed, jobs=wl.jobs, error_rate=runner.failed / runner.attempted)
    print("detail " + json.dumps(detail))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({"env": env, "detail": detail, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
