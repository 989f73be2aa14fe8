"""The benchmark's four workloads: input pools, operations and output checks.

Every workload draws its operations ("ops") from a fixed pool of inputs.
The pool is generated here, independently of armatch, from fixed keys, and
the reference output of every pool item is recorded in ``reference.json``
(``make_reference.py``).  A run makes whole passes over its pool, so every run
measures the same mix of inputs; the run seed chooses their order.  Every
output a run produces can be checked.

Why these workloads (each stresses different layers):

* ``select_m1``: ``armatch select --steps 1 --bootstrap 100 --jobs 1``.  The
  bootstrap (replicate, OLS refit, one population criterion per replicate,
  seeding, filtering) does nearly all the work; m = 1 takes the closed-form
  path, so the optimizer and the multi-step kernel are skipped.
* ``select_m5``: ``armatch select --steps 5 --bootstrap 20 --jobs 2`` on
  ARMA(1,1) data (the misspecified case).  Every refit runs BFGS on the
  criterion value and gradient, and the worker pool runs once per order.
* ``experiment_tar``: ``armatch experiment --jobs 1`` on a threshold-AR
  truth.  The TAR simulator's Python loop, matching fits, and the empirical
  criterion evaluated once per model on a long held-out path.
* ``ideal_sweep``: library ``fit_ideal`` over p = 1..10 and m in {1, 5, 20}
  for ARMA(1,1) and MA(1) truths; one op sweeps p = 1..10 at one truth and
  m.  The population criterion under a known truth, evaluated thousands of
  times per fit; no data, no bootstrap, no pool.
"""

import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

# Floats in an output agree with the reference when they differ by at most
# FLOAT_TOL, absolutely, or relatively once |reference| > 1.  Integers,
# strings and booleans must match exactly.
FLOAT_TOL = 1e-6

_BURN = 200


def _normals(key, size):
    """Standard normals from raw Philox bits by Box-Muller.

    Built from the bit generator's raw output so the inputs do not depend
    on numpy's choice of normal sampler."""
    half = (size + 1) // 2
    bits = np.random.Philox(key=key).random_raw(2 * half)
    u = ((bits >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u[:half]))
    angle = 2.0 * math.pi * u[half:]
    return np.concatenate([r * np.cos(angle), r * np.sin(angle)])[:size]


def _arma_series(ar, ma, n, key):
    eps = _normals(key, n + _BURN)
    return lfilter(np.r_[1.0, ma], np.r_[1.0, -np.asarray(ar, dtype=float)], eps)[_BURN:]


def _series_text(y):
    return "".join(repr(float(v)) + "\n" for v in y)


@dataclass(frozen=True)
class Item:
    """One pool input.  ``group`` items are interleaved in the schedule;
    ``files`` maps a file name in the work directory to its text."""

    key: str
    group: int
    files: dict
    args: tuple


def compare(got, ref, path="output"):
    """Differences between an output's checked fields and the reference."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(ref)}"]
        return [p for k in ref for p in compare(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: {got!r} != {ref!r}"]
        return [p for i, (g, r) in enumerate(zip(got, ref)) for p in compare(g, r, f"{path}[{i}]")]
    if isinstance(ref, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        if math.isnan(ref) and math.isnan(got):
            return []
        if not abs(got - ref) <= FLOAT_TOL * max(1.0, abs(ref)):
            return [f"{path}: {got!r} differs from reference {ref!r}"]
        return []
    if got != ref or type(got) is not type(ref):
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []


class Workload:
    """A pool of inputs and the op that runs one of them.

    ``jobs`` is the ``--jobs`` the op runs at (None for library ops).
    ``tail_pct`` is the percentile reported as ``op_tail_s``.  It is fixed,
    so that every run and commit reports the same percentile; it is chosen
    so that a run at the seed commit has about ten ops or more beyond it,
    except in the two workloads with the longest ops: ``select_m5`` has four
    to six, ``ideal_sweep`` three."""

    name = ""
    jobs = None
    tail_pct = 75

    def items(self):
        raise NotImplementedError

    def run(self, item, workdir, jobs):
        """Run one op; return (latency in seconds, output bytes)."""
        raise NotImplementedError

    def fields(self, raw):
        """The checked fields of an op's output."""
        raise NotImplementedError

    def run_problems(self, results):
        """Checks across the ops of a run: {item key: fields} -> problems."""
        return []

    def prepare(self, workdir):
        for item in self.items():
            for fname, text in item.files.items():
                (workdir / fname).write_text(text, encoding="utf-8")

    def passes(self, seed):
        """Endless passes for ``seed``.  A pass runs every pool item once:
        each group shuffled, the groups interleaved round-robin."""
        rng = random.Random(f"{self.name}:{seed}")
        groups = {}
        for item in self.items():
            groups.setdefault(item.group, []).append(item)
        while True:
            shuffled = [rng.sample(g, len(g)) for _, g in sorted(groups.items())]
            yield [item for row in zip(*shuffled) for item in row]


class CliWorkload(Workload):
    """Ops that call ``armatch.cli.main(argv)`` in-process."""

    def argv(self, item, workdir, jobs):
        raise NotImplementedError

    def outputs(self, workdir):
        raise NotImplementedError

    def run(self, item, workdir, jobs):
        import armatch.cli

        argv = self.argv(item, workdir, jobs)
        t0 = time.perf_counter()
        code = armatch.cli.main(argv)
        latency = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"armatch {' '.join(argv)} exited with {code}")
        return latency, b"\0".join(p.read_bytes() for p in self.outputs(workdir))


class Select(CliWorkload):
    def __init__(self, name, steps, bootstrap, jobs, pools):
        self.name, self.steps, self.bootstrap, self.jobs = name, steps, bootstrap, jobs
        # pools: (tag, Philox key, AR coefficients, MA coefficients, n, max order, count)
        self._items = [
            Item(
                key=f"{tag}-{i:02d}",
                group=g,
                files={f"{tag}-{i:02d}.txt": _series_text(_arma_series(ar, ma, n, [key, i]))},
                args=("--max-order", str(pmax), "--seed", str(1000 * key + i)),
            )
            for g, (tag, key, ar, ma, n, pmax, count) in enumerate(pools)
            for i in range(count)
        ]

    def items(self):
        return self._items

    def argv(self, item, workdir, jobs):
        (fname,) = item.files
        return [
            "select", "--input", str(workdir / fname), *item.args,
            "--steps", str(self.steps), "--bootstrap", str(self.bootstrap),
            "--jobs", str(jobs), "--output", str(workdir / f"{self.name}.json"),
        ]

    def outputs(self, workdir):
        return [workdir / f"{self.name}.json"]

    def fields(self, raw):
        out = json.loads(raw)
        return {
            "chosen_p": out["chosen_p"],
            "aic_chosen_p": out["aic_chosen_p"],
            "orders": [
                {k: row[k] for k in ("p", "log_loss", "bias_estimate", "criterion", "aic", "replicates_used")}
                for row in out["orders"]
            ],
        }


_TAR_CONFIG = """\
[truth]
model = tar
phi_low = 0.6,-0.3
phi_high = -0.5
threshold = 0
delay = 1
sigma2 = 1

[run]
n = 400
replicates = {replicates}
horizons = 1,2,3,4,5
base_seed = {base_seed}

[estimators]
ols_p2 = ols p=2
match_p2_m1 = match p=2 m=1
match_p3_m5 = match p=3 m=5
"""


class ExperimentTar(CliWorkload):
    name = "experiment_tar"
    jobs = 1
    tail_pct = 85
    replicates = 8
    pool = 24

    def items(self):
        return [
            Item(
                key=f"tar-{i:02d}",
                group=0,
                files={f"tar-{i:02d}.ini": _TAR_CONFIG.format(replicates=self.replicates, base_seed=5000 + i)},
                args=(),
            )
            for i in range(self.pool)
        ]

    def argv(self, item, workdir, jobs):
        (fname,) = item.files
        return ["experiment", "--config", str(workdir / fname), "--jobs", str(jobs),
                "--output", str(workdir / "experiment")]

    def outputs(self, workdir):
        return [workdir / "experiment" / "report.csv", workdir / "experiment" / "summary.json"]

    def fields(self, raw):
        report, summary = raw.split(b"\0")
        rows = list(csv.DictReader(io.StringIO(report.decode("utf-8"))))
        summary = json.loads(summary)
        return {
            "rows": [
                [int(r["replicate"]), r["estimator"], int(r["p"]), int(r["m"]), float(r["score"])]
                for r in rows
            ],
            "failed": summary["failed"],
            "estimators": summary["estimators"],
        }


class IdealSweep(Workload):
    """One op is one order sweep: ``fit_ideal(truth, p, m)`` for p = 1..10
    at one truth and one m.

    A single fit takes 0.01 to 1.5 s, so short that the machine's speed
    during that one call sets its latency; a sweep takes 1.3 to 3.5 s and
    spans many such episodes, which keeps the median op latency steady.
    The MA(1) sweep at m = 1, the cheapest, comes first in the pool, as it
    is the op that warms up and is repeated for the byte-identity check."""

    name = "ideal_sweep"
    tail_pct = 75
    orders = range(1, 11)
    steps = (1, 5, 20)

    def __init__(self):
        from armatch import AcvfSeq

        lags = np.arange(max(self.orders) + max(self.steps))
        phi, theta = 0.8, -0.5  # ARMA(1,1), closed-form autocovariances
        arma = np.empty(lags.shape[0])
        arma[0] = (1.0 + 2.0 * phi * theta + theta * theta) / (1.0 - phi * phi)
        arma[1:] = (1.0 + phi * theta) * (phi + theta) / (1.0 - phi * phi) * phi ** (lags[1:] - 1.0)
        ma = np.zeros(lags.shape[0])
        ma[:2] = (1.0 + 0.5 ** 2, 0.5)  # MA(1), theta = 0.5
        self.truths = {"ma1": AcvfSeq(ma), "arma11": AcvfSeq(arma)}

    def items(self):
        return [
            Item(key=f"{t}-m{m:02d}", group=0, files={}, args=(t, m))
            for m in self.steps for t in self.truths
        ]

    def run(self, item, workdir, jobs):
        import armatch.estimator

        truth, m = item.args
        fits = []
        t0 = time.perf_counter()
        for p in self.orders:
            model, qstar = armatch.estimator.fit_ideal(self.truths[truth], p, m)
            fits.append({"p": p, "phi": [float(v) for v in model.phi], "sigma2": model.sigma2, "q": qstar})
        latency = time.perf_counter() - t0
        return latency, json.dumps(fits).encode()

    def fields(self, raw):
        return {"q": [fit["q"] for fit in json.loads(raw)]}

    def run_problems(self, results):
        """q*_p must not increase with p, for each truth and m."""
        problems = []
        for key, fields in sorted(results.items()):
            q = fields["q"]
            for p in range(1, len(q)):
                if q[p] > q[p - 1] * (1.0 + 1e-12):
                    problems.append(f"{key}: q* rises from p={p} to p={p + 1}")
        return problems


def workloads():
    return {
        wl.name: wl
        for wl in (
            Select("select_m1", steps=1, bootstrap=100, jobs=1, pools=[
                ("ar2", 1, (0.75, -0.5), (), 500, 6, 12),
                ("wn", 2, (), (), 500, 5, 12),
            ]),
            Select("select_m5", steps=5, bootstrap=20, jobs=2, pools=[
                ("arma11", 3, (0.8,), (-0.5,), 400, 4, 8),
            ]),
            ExperimentTar(),
            IdealSweep(),
        )
    }
