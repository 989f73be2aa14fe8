"""Record the reference output of every pool item into reference.json.

    python3 bench/make_reference.py [--workload NAME ...]

Run it only when a change to the program is meant to change its outputs,
and say so where the change is recorded: the benchmark checks every op
against this file.  Ops run at --jobs 1, whose output the benchmark
requires to be byte-identical to --jobs 2.
"""

import argparse
import json
import shutil
import sys

import run


def main(argv=None):
    run.load_program()
    wls = run.workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(wls))
    args = parser.parse_args(argv)

    path = run.BENCH / "reference.json"
    doc = json.loads(path.read_text()) if path.exists() else {"outputs": {}}
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "work-reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        for name in args.workload or list(wls):
            wl = wls[name]
            wl.prepare(workdir)
            outputs = {}
            for item in wl.items():
                _, raw = wl.run(item, workdir, None if wl.jobs is None else 1)
                outputs[item.key] = wl.fields(raw)
                print(name, item.key, file=sys.stderr)
            problems = wl.run_problems(outputs)
            if problems:
                raise SystemExit(f"{name}: reference outputs fail the run checks: {problems}")
            doc["outputs"][name] = outputs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc["tolerance"] = (
        "floats agree within 1e-6 absolute, or relative when |reference| > 1; "
        "integers and strings exactly"
    )
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
