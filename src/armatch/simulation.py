"""Seeded data generators and the replicated experiment runner.

All randomness flows through counter-based generators keyed by
``mix_seed``: replicate r of an experiment simulates with
mix(base_seed, r).  The runner splits the replicates into contiguous
blocks, one task of the worker pool each, and fits each multi-step
estimator on all of a block's series in one batched solve; a series' fit
does not depend on the others in its batch, so results are identical for
any block composition and any worker count.

The TAR simulator steps through Python floats in generated straight-line
code, one function per (order, delay), compiled on first use and cached
(``_tar_kernel``); the ARMA simulator filters with ``loss.ar_filter``.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .acvf import ArmaSpec, _step_down, arma_acvf
from .errors import ArMatchError, NonStationary
from .estimator import _fit_match_stack, fit_match, fit_ols
from .loss import _check_length, _finite_series, ar_filter, empirical_q, population_q
from .parallel import parallel_map
from .seeding import mix_seed, rng_from
from .selection import select_order

__all__ = [
    "TarSpec",
    "EstimatorSpec",
    "SelectionSettings",
    "ExperimentPlan",
    "ExperimentReport",
    "simulate_arma",
    "simulate_tar",
    "run_experiment",
]

REPORT_COLUMNS = ["replicate", "estimator", "p", "m", "score", "converged", "chosen_p"]

# Most replicates in one block: a block holds all its series, and their
# multi-step fits run as one batch, so this bounds the memory of a task.
_BLOCK = 32

# Most lag terms in one statement of a generated TAR step (``_tar_kernel``).
_SUM_TERMS = 100


def _check_count(name, value, least):
    """Raise ValueError unless value is an integer (not a bool) >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class TarSpec:
    """Two-regime threshold AR truth: regime switches on y_{t-delay} vs
    ``threshold``; both regimes must be stationary."""

    phi_low: np.ndarray
    phi_high: np.ndarray
    threshold: float
    delay: int
    sigma2: float

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.phi_low, dtype=float))
        hi = np.atleast_1d(np.asarray(self.phi_high, dtype=float))
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("TAR coefficients must be finite")
        if not (_step_down(lo[None])[1][0] and _step_down(hi[None])[1][0]):
            raise NonStationary("both TAR regimes must be stationary")
        if not np.isfinite(float(self.threshold)):
            raise ValueError("threshold must be finite")
        _check_count("delay", self.delay, 1)
        s2 = float(self.sigma2)
        if not np.isfinite(s2) or s2 <= 0.0:
            raise ValueError("sigma2 must be finite and positive")
        object.__setattr__(self, "phi_low", lo)
        object.__setattr__(self, "phi_high", hi)
        object.__setattr__(self, "sigma2", s2)


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator column of an experiment: feature matching or OLS."""

    name: str
    kind: str  # "match" or "ols"
    p: int
    m: int = 1

    def __post_init__(self):
        if self.kind not in ("match", "ols"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.p < 0 or self.m < 1:
            raise ValueError("need p >= 0 and m >= 1")


@dataclass(frozen=True)
class SelectionSettings:
    p_max: int
    m: int
    B: int


@dataclass(frozen=True)
class ExperimentPlan:
    truth: object  # ArmaSpec or TarSpec
    n: int
    replicates: int
    estimators: tuple
    eval_horizons: tuple
    base_seed: int
    innovations: str = "gaussian"  # or "t"
    t_df: float = 5.0
    selection: SelectionSettings | None = None

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.estimators:
            raise ValueError("at least one estimator is required")
        if not self.eval_horizons or min(self.eval_horizons) < 1:
            raise ValueError("eval_horizons must be nonempty positive integers")
        if self.innovations not in ("gaussian", "t"):
            raise ValueError("innovations must be 'gaussian' or 't'")
        if self.selection is not None and any(e.name == "select_order" for e in self.estimators):
            raise ValueError("estimator name 'select_order' is the selection rows' name")
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "eval_horizons", tuple(int(h) for h in self.eval_horizons))


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple  # dicts with REPORT_COLUMNS keys
    summary: dict


def _innovations(rng, size, sigma2, dist="gaussian", t_df=5.0):
    if dist == "gaussian":
        return rng.standard_normal(size) * math.sqrt(sigma2)
    if dist == "t":
        if t_df <= 2.0:
            raise ValueError("t innovations need df > 2 for a finite variance")
        scale = math.sqrt(sigma2 * (t_df - 2.0) / t_df)
        return rng.standard_t(t_df, size) * scale
    raise ValueError(f"unknown innovation distribution {dist!r}")


def simulate_arma(spec, n, seed, burnin=200, dist="gaussian", t_df=5.0):
    """Simulate a stationary ARMA path, warmed up and truncated.

    Deterministic per (spec, n, seed): innovations come from a Philox
    generator keyed by ``seed``.  The MA part runs first, as a finite
    convolution, then the AR recursion (``ar_filter``), both from a zero
    start.
    """
    _check_count("n", n, 1)
    _check_count("burnin", burnin, 0)
    if not spec.is_stationary:
        raise NonStationary("AR part of the simulation spec is not stationary")
    p, q = spec.ar.shape[0], spec.ma.shape[0]
    warm = burnin + max(p, q)
    rng = rng_from(seed)
    eps = _innovations(rng, warm + n, spec.sigma2, dist, t_df)
    x = np.convolve(eps, np.concatenate(([1.0], spec.ma)))[: eps.shape[0]]
    return ar_filter(spec.ar, x)[warm:]


def simulate_tar(spec, n, seed, burnin=500, dist="gaussian", t_df=5.0):
    """Simulate a two-regime threshold AR path (zero initial history).

    y_t = sum_j phi_j y_{t-j} + eps_t, with phi = ``phi_low`` when
    y_{t-delay} <= ``threshold`` and ``phi_high`` otherwise; both are
    zero-padded to p = max(orders, delay).  Deterministic per
    (spec, n, seed, burnin, dist, t_df).  Stationary regimes do not make
    the switched process stationary: a path that diverges (a non-finite
    value) raises NonStationary.

    The recursion runs over Python floats, and its summation order is part
    of the output's byte-identity contract: each step sums phi_j * y_{t-j}
    for j = 1..p, lag 1 first, left to right, starting from 0.0, then adds
    eps_t.  That is what numpy's dot product did on the reversed lag
    window of earlier versions, so paths are bit-identical to theirs.
    ``sum()`` (compensated since Python 3.12), ``math.fsum`` (correctly
    rounded) and a BLAS dot on a contiguous window (fused multiply-adds,
    other blocking) each round differently and are not used.  The steps
    run in ``_tar_kernel(p, delay)``, straight-line code generated for the
    order and delay, which writes that sum out term by term.
    """
    _check_count("n", n, 1)
    _check_count("burnin", burnin, 0)
    p = max(spec.phi_low.shape[0], spec.phi_high.shape[0], spec.delay)
    rng = rng_from(seed)
    eps = _innovations(rng, burnin + n, spec.sigma2, dist, t_df)
    lo = np.concatenate([spec.phi_low, np.zeros(p - spec.phi_low.shape[0])]).tolist()
    hi = np.concatenate([spec.phi_high, np.zeros(p - spec.phi_high.shape[0])]).tolist()
    path = _tar_kernel(p, spec.delay)(eps.tolist(), lo, hi, spec.threshold)
    y = np.array(path[burnin:], dtype=float)
    if not np.all(np.isfinite(y)):
        raise NonStationary("TAR path diverged: non-finite value")
    return y


@functools.lru_cache(maxsize=32)
def _tar_kernel(p, delay):
    """``kernel(eps, lo, hi, threshold)``: the TAR recursion of order p and
    delay ``delay`` from zero history, driven by the list of floats eps,
    with lo and hi the p coefficients of the two regimes; returns the path
    as a list.

    The source is generated from the integers p and delay alone, as
    ``dataclasses`` generates ``__init__``: the lags live in locals
    y1..yp, the regime test reads y{delay}, and each step is
    ``y = 0.0 + a1 * y1 + ... + ap * yp + e``, the summation order of the
    ``simulate_tar`` contract.  Past 100 lags the sum goes on in further
    statements ``y = y + a101 * y101 + ...``, in the same order, so the
    rounding is the same.  Coefficients and threshold are arguments, so one
    compiled kernel serves every spec of that shape.
    """
    lags = range(1, p + 1)

    def step(coef):
        # At most _SUM_TERMS lags per statement, each later one carrying on
        # from y: one expression of thousands of terms nests too deep to compile.
        terms = [f"{coef}{j} * y{j}" for j in lags]
        sums = [" + ".join(terms[i:i + _SUM_TERMS]) for i in range(0, p, _SUM_TERMS)]
        sums[-1] += " + e"
        return [f"y = 0.0 + {sums[0]}", *(f"y = y + {part}" for part in sums[1:])]

    lines = [
        "def kernel(eps, lo, hi, threshold):",
        f"    {', '.join(f'a{j}' for j in lags)}, = lo",
        f"    {', '.join(f'b{j}' for j in lags)}, = hi",
        f"    {' = '.join(f'y{j}' for j in lags)} = 0.0",
        "    out = []",
        "    append = out.append",
        "    for e in eps:",
        f"        if y{delay} <= threshold:",
        *(f"            {line}" for line in step("a")),
        "        else:",
        *(f"            {line}" for line in step("b")),
        "        append(y)",
        *(f"        y{j} = y{j - 1}" for j in range(p, 1, -1)),
        "        y1 = y",
        "    return out",
    ]
    namespace = {}
    exec(compile("\n".join(lines), f"<tar kernel p={p} delay={delay}>", "exec"), namespace)
    return namespace["kernel"]


def _truth_gamma(plan):
    if isinstance(plan.truth, ArmaSpec):
        max_p = max(e.p for e in plan.estimators)
        return arma_acvf(plan.truth, max_p + max(plan.eval_horizons))
    return None


def _simulate_truth(plan, seed):
    if isinstance(plan.truth, ArmaSpec):
        return simulate_arma(plan.truth, plan.n, seed, dist=plan.innovations, t_df=plan.t_df)
    return simulate_tar(plan.truth, plan.n, seed, dist=plan.innovations, t_df=plan.t_df)


def _run_replicate(args, y=None, fits=None):
    """The report rows of replicate r, for args = (plan, r, gamma).  ``y``
    is its simulated series and ``fits`` its ``fit_match`` results keyed by
    (p, m), where a block has computed them; the rest is computed here."""
    plan, r, gamma = args
    m_eval = max(plan.eval_horizons)
    if y is None:
        y = _simulate_truth(plan, mix_seed(plan.base_seed, r))
    fits = fits or {}
    if gamma is None:
        # TAR truth: no closed-form gamma; score on a long held-out path
        # (seed offset by the replicate count so streams never collide).
        y_eval = simulate_tar(
            plan.truth,
            10 * plan.n,
            mix_seed(plan.base_seed, plan.replicates + r),
            dist=plan.innovations,
            t_df=plan.t_df,
        )
    rows = []
    for est in plan.estimators:
        if est.kind == "ols":
            model = fit_ols(y, est.p)
            converged = model.is_stationary
            m_fit = 1
        else:
            fr = fits.get((est.p, est.m)) or fit_match(y, est.p, est.m)
            model = fr.model
            converged = fr.converged
            m_fit = est.m
        if gamma is None:
            score = empirical_q(y_eval, model, m_eval)
        else:
            score = population_q(gamma, model, est.p, m_eval) if model.is_stationary else float("nan")
        rows.append(dict(zip(REPORT_COLUMNS, (r, est.name, est.p, m_fit, score, converged, ""))))
    if plan.selection is not None:
        p_max, m = plan.selection.p_max, plan.selection.m
        chosen = select_order(y, p_max, m, plan.selection.B, mix_seed(plan.base_seed, r)).chosen_p
        rows.append(dict(zip(REPORT_COLUMNS, (r, "select_order", p_max, m, float("nan"), True, chosen))))
    return rows


def run_experiment(plan, jobs=1):
    """Run every estimator on every replicate and summarize.

    ARMA truths are scored by the population criterion under the true
    autocovariances at the plan's evaluation horizons; TAR truths by the
    empirical criterion on an independent held-out path of length 10n.
    The replicates run in contiguous blocks (see ``_run_block``) as equal
    as possible and at most _BLOCK long; ``jobs`` worker processes share
    the blocks, and a run of one block starts no pool.  The report does
    not depend on ``jobs`` or on the blocks: its rows come by replicate,
    each replicate's in estimator order with its selection row last.
    """
    gamma = _truth_gamma(plan)
    count = -(-plan.replicates // _BLOCK)
    bounds = [plan.replicates * i // count for i in range(count + 1)]
    blocks = [(plan, range(lo, hi), gamma) for lo, hi in zip(bounds, bounds[1:])]
    failures = []
    rows = []
    results = (result for block in parallel_map(_run_block, blocks, jobs) for result in block)
    for r, result in enumerate(results):
        if isinstance(result, str):
            failures.append({"replicate": r, "error": result})
        else:
            rows.extend(result)
    if len(failures) > 0.1 * plan.replicates:
        raise ArMatchError(
            f"{len(failures)}/{plan.replicates} replicates failed: "
            f"{failures[0]['error']}"
        )
    summary = _summarize(plan, rows, failures)
    return ExperimentReport(rows=tuple(rows), summary=summary)


def _run_replicate_safe(args, y=None, fits=None):
    try:
        return _run_replicate(args, y, fits)
    except (ArMatchError, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _run_block(args):
    """``[_run_replicate_safe((plan, r, gamma)) for r in block]`` for
    args = (plan, block, gamma), with the multi-step fits batched.

    The block simulates its replicates' series first; then each ``match``
    estimator with p >= 1 and m > 1 fits all of them in one
    ``_fit_match_stack`` call, which gives each series the result
    ``fit_match`` would.  A replicate whose simulation raises, and every
    replicate of a batched call that raises, is left to ``_run_replicate``
    to simulate or fit on its own, so only the replicate at fault fails,
    with its own message.
    """
    plan, block, gamma = args
    series = {}
    for r in block:
        try:
            series[r] = _simulate_truth(plan, mix_seed(plan.base_seed, r))
        except ArMatchError:
            pass
    fits = {r: {} for r in series}
    orders = dict.fromkeys((e.p, e.m) for e in plan.estimators if e.kind == "match" and e.p and e.m > 1)
    if series:
        Y = np.array(list(series.values()))
        for p, m in orders:
            try:
                _check_length(plan.n, p, m)
                batch = _fit_match_stack(_finite_series(Y), p, m)
            except (ArMatchError, ValueError, np.linalg.LinAlgError):
                continue
            for r, fit in zip(series, batch):
                fits[r][p, m] = fit
    return [_run_replicate_safe((plan, r, gamma), series.get(r), fits.get(r)) for r in block]


def _summarize(plan, rows, failures):
    names = [e.name for e in plan.estimators]
    scores = {
        name: np.array(
            [row["score"] for row in rows if row["estimator"] == name],
            dtype=float,
        )
        for name in names
    }
    summary = {
        "replicates": plan.replicates,
        "failed": len(failures),
        "failures": failures,
        "nan_scores": {name: int(np.isnan(s).sum()) for name, s in scores.items()},
        "eval_horizons": list(plan.eval_horizons),
        "estimators": {
            name: {
                "mean_score": float(np.nanmean(s)) if s.size else float("nan"),
                "median_score": float(np.nanmedian(s)) if s.size else float("nan"),
            }
            for name, s in scores.items()
        },
        "win_rate": {},
    }
    for a in names:
        for b in names:
            if a == b:
                continue
            sa, sb = scores[a], scores[b]
            k = min(sa.size, sb.size)
            if k:
                summary["win_rate"][f"{a}_vs_{b}"] = float(np.mean(sa[:k] < sb[:k]))
    if plan.selection is not None:
        chosen = [row["chosen_p"] for row in rows if row["estimator"] == "select_order"]
        summary["selection"] = {
            "chosen_p_counts": {
                str(v): int(sum(1 for c in chosen if c == v)) for v in sorted(set(chosen))
            }
        }
    return summary
