"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--out FILE]

For every workload and metric it prints the median of the runs, their
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median, checked against the metric's bound in
BENCHMARK.json.  ``--out`` writes the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    detail = json.loads(lines[-2].partition(" ")[2])
    return json.loads(lines[-1]), detail


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        for (result, _), seed in zip(runs, args.seeds):
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} ops failed")
        metrics = {}
        for name, first in runs[0][0]["metrics"].items():
            stats = summarise([r["metrics"][name]["value"] for r, _ in runs])
            stats["unit"] = first["unit"]
            metrics[name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] > bound / 3:
                flag = "  > bound/3" if stats["spread"] <= bound else "  > BOUND"
            if args.trace == 0 or stats["median"]:
                print(f"{workload:15s} {name:40s} {stats['median']:12.6g} {stats['unit']:6s} "
                      f"spread {stats['spread']:7.4f}{'' if bound is None else f' (bound {bound})'}{flag}")
        summary[workload] = {"seeds": args.seeds, "details": [d for _, d in runs], "metrics": metrics}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
