"""Per-layer spans and counts for armatch, taken from outside the package.

``Tracer.install`` wraps each layer's entry points and rebinds every name
under which an armatch module holds them (``selection.fit_match``,
``estimator._q_impl``, ``estimator.minimize`` ...), so calls between
modules are caught without changing the package.  Spans (op, id, parent,
name, start, end) and counts are kept in memory and written when the run
ends.  A span's self time is its duration minus the time its child spans
cover.
"""

import csv
import functools
import gzip
import math
import pickle
import sys
import time
from collections import Counter

# Span names; each is reported as <name>.calls, <name>.s and <name>.self_s.
SPANS = (
    "cli.main",
    "cli.read_series",
    "selection.select_order",
    "selection.log_loss",
    "selection.replicate",
    "selection.simulate_fitted",
    "estimator.fit_match.m1",
    "estimator.fit_match.mk",
    "estimator.fit_ols",
    "estimator.fit_ideal",
    "estimator.minimize.bfgs",
    "estimator.minimize.nelder_mead",
    "loss.q_impl.value",
    "loss.q_impl.grad",
    "loss.empirical_q",
    "loss.population_q",
    "acvf.pacf_to_ar",
    "acvf.levinson_solve",
    "acvf.ar_acvf",
    "companion.spectral_radius",
    "simulation.run_experiment",
    "simulation.replicate",
    "simulation.simulate_tar",
    "parallel.map",
    "seeding.rng_from",
)

# Counts read from arguments and results at the same boundaries.
COUNTS = {
    "selection.replicates_skipped": "count",  # bootstrap replicates that returned None
    "estimator.iterations": "count",  # FitResult.iterations of fit_match
    "estimator.restarts": "count",  # FitResult.restarts
    "estimator.nonconverged": "count",  # fit_match results with converged=False
    "loss.q_impl.elems": "count",  # lag-window elements read: sum_k (n-k-p+1)*p
    "simulation.nan_scores": "count",  # NaN scores in experiment reports
    "simulation.failed": "count",  # failed experiment replicates
    "parallel.pools": "count",  # worker pools started
    "parallel.tasks": "count",  # tasks sent to worker pools
    "parallel.task_bytes": "bytes",  # pickled size of those tasks (computed)
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_fit(counts, args, kwargs, fit):
    counts["estimator.iterations"] += fit.iterations
    counts["estimator.restarts"] += fit.restarts
    counts["estimator.nonconverged"] += not fit.converged


def _count_elems(counts, args, kwargs, result):
    n, p = args[0].shape[0], args[2].shape[0]
    m = _arg(args, kwargs, 3, "m")
    counts["loss.q_impl.elems"] += sum((n - k - p + 1) * p for k in range(1, m + 1))


def _count_skipped(counts, args, kwargs, result):
    counts["selection.replicates_skipped"] += result is None


def _count_experiment(counts, args, kwargs, report):
    counts["simulation.failed"] += report.summary["failed"]
    counts["simulation.nan_scores"] += sum(
        1 for row in report.rows
        if row["estimator"] != "select_order" and math.isnan(row["score"])
    )


class Tracer:
    def __init__(self):
        self.spans = []  # (op, id, parent id or -1, name, start, end, self time)
        self.counts = Counter()
        self.op = 0
        self._stack = []  # [span id, time covered by child spans]
        self._next_id = 0
        self._undo = []

    def _timed(self, name, fn, args, kwargs):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[1] += t1 - t0
            self.spans.append((self.op, frame[0], parent[0] if parent else -1, name, t0, t1, t1 - t0 - frame[1]))

    def _rebind(self, old, new):
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "armatch":
                continue
            for key, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, old))

    def wrap(self, module, attr, name, after=None):
        """Trace ``module.attr``; ``name`` is a span name or a function of
        (args, kwargs) giving one; ``after`` updates counts from the result."""
        orig = getattr(module, attr)
        naming = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            result = self._timed(naming(args, kwargs), orig, args, kwargs)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        self._rebind(orig, traced)

    def count_pools(self, module):
        """Count the pools ``module.ProcessPoolExecutor`` starts and the
        tasks, with their pickled size, sent to them through ``map``."""
        real = module.ProcessPoolExecutor
        counts = self.counts

        class CountingPool:
            def __init__(self, *args, **kwargs):
                counts["parallel.pools"] += 1
                self._pool = real(*args, **kwargs)

            def __enter__(self):
                self._pool.__enter__()
                return self

            def __exit__(self, *exc):
                return self._pool.__exit__(*exc)

            def map(self, fn, items, **kwargs):
                items = list(items)
                counts["parallel.tasks"] += len(items)
                counts["parallel.task_bytes"] += sum(len(pickle.dumps(it)) for it in items)
                return self._pool.map(fn, items, **kwargs)

            def __getattr__(self, attr):
                return getattr(self._pool, attr)

        self._rebind(real, CountingPool)

    def install(self, parallel_only=False):
        """Wrap every layer's entry points (only the pool layer when
        ``parallel_only``, for parent-side tracing at ``--jobs`` > 1)."""
        from armatch import acvf, cli, companion, estimator, loss, parallel, seeding, selection, simulation

        self.wrap(parallel, "parallel_map", "parallel.map")
        self.count_pools(parallel)
        if parallel_only:
            return
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "read_series", "cli.read_series")
        self.wrap(selection, "select_order", "selection.select_order")
        self.wrap(selection, "log_loss", "selection.log_loss")
        self.wrap(selection, "_bootstrap_replicate", "selection.replicate", _count_skipped)
        self.wrap(selection, "_simulate_fitted", "selection.simulate_fitted")
        self.wrap(
            estimator, "fit_match",
            lambda a, k: "estimator.fit_match." + ("m1" if _arg(a, k, 2, "m") == 1 else "mk"),
            _count_fit,
        )
        self.wrap(estimator, "fit_ols", "estimator.fit_ols")
        self.wrap(estimator, "fit_ideal", "estimator.fit_ideal")
        self.wrap(
            estimator, "minimize",
            lambda a, k: "estimator.minimize." + str(k.get("method", "")).lower().replace("-", "_"),
        )
        self.wrap(
            loss, "_q_impl",
            lambda a, k: "loss.q_impl." + ("grad" if _arg(a, k, 4, "want_grad") else "value"),
            _count_elems,
        )
        self.wrap(loss, "empirical_q", "loss.empirical_q")
        self.wrap(loss, "population_q", "loss.population_q")
        self.wrap(acvf, "pacf_to_ar", "acvf.pacf_to_ar")
        self.wrap(acvf, "levinson_solve", "acvf.levinson_solve")
        self.wrap(acvf, "ar_acvf", "acvf.ar_acvf")
        self.wrap(companion, "spectral_radius", "companion.spectral_radius")
        self.wrap(simulation, "run_experiment", "simulation.run_experiment", _count_experiment)
        self.wrap(simulation, "_run_replicate", "simulation.replicate")
        self.wrap(simulation, "simulate_tar", "simulation.simulate_tar")
        self.wrap(seeding, "rng_from", "seeding.rng_from")

    def uninstall(self):
        for mod, key, old in reversed(self._undo):
            setattr(mod, key, old)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self, ops, names=SPANS):
        """Per-op calls, inclusive seconds and self seconds of each span
        name in ``names``, and per-op counts; {metric: (value, unit)}."""
        totals = {name: [0, 0.0, 0.0] for name in names}
        for _, _, _, name, t0, t1, self_s in self.spans:
            if name in totals:
                agg = totals[name]
                agg[0] += 1
                agg[1] += t1 - t0
                agg[2] += self_s
        out = {}
        for name, (calls, s, self_s) in totals.items():
            out[f"{name}.calls"] = (calls / ops, "count")
            out[f"{name}.s"] = (s / ops, "s")
            out[f"{name}.self_s"] = (self_s / ops, "s")
        return out

    def count_metrics(self, ops, names=tuple(COUNTS)):
        return {name: (self.counts[name] / ops, COUNTS[name]) for name in names}

    def write(self, path, origin):
        """Write the spans as gzipped CSV, times in seconds from ``origin``."""
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["op", "span", "parent", "name", "start_s", "end_s", "self_s"])
            for op, sid, parent, name, t0, t1, self_s in self.spans:
                w.writerow([op, sid, parent, name, f"{t0 - origin:.7f}", f"{t1 - origin:.7f}", f"{self_s:.7f}"])
