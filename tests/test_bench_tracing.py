"""The benchmark's tracer (bench/tracing.py) wraps package functions by
name.  A renamed or deleted entry point makes its ``install`` raise, and a
path that stops calling through a traced name records no spans; both fail
here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

from armatch import estimator, simulation
from armatch.simulation import EstimatorSpec, ExperimentPlan, TarSpec

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_records_and_uninstalls():
    originals = (simulation._run_replicate, simulation.simulate_tar, estimator.fit_match, estimator.minimize)
    plan = ExperimentPlan(
        truth=TarSpec([0.6, -0.3], [-0.5], 0.0, 1, 1.0),
        n=80,
        replicates=2,
        estimators=(EstimatorSpec("m1", "match", 1, 1), EstimatorSpec("m3", "match", 2, 3)),
        eval_horizons=(1, 2),
        base_seed=3,
    )
    tracer = _tracer()
    try:
        tracer.install()
        simulation.run_experiment(plan)
    finally:
        tracer.uninstall()
    calls = {name: value for name, (value, _) in tracer.metrics(1).items() if name.endswith(".calls")}
    assert calls["simulation.run_experiment.calls"] == 1
    assert calls["simulation.replicate.calls"] == 2
    assert calls["simulation.simulate_tar.calls"] == 4  # series and held-out path per replicate
    assert calls["estimator.fit_match.m1.calls"] == 2
    assert (simulation._run_replicate, simulation.simulate_tar, estimator.fit_match, estimator.minimize) == originals
