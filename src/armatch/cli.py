"""Command-line front end: fit, select, simulate, experiment.

Exit codes: 0 success, 1 runtime failure (bad input data, numerical
failure), 2 usage or validation error.  All outputs are deterministic for
fixed flags, including under --jobs > 1.
"""

import argparse
import configparser
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from .acvf import ArmaSpec
from .errors import ArMatchError
from .estimator import fit_match
from .selection import aic_baseline, select_order
from .simulation import (
    REPORT_COLUMNS,
    EstimatorSpec,
    ExperimentPlan,
    SelectionSettings,
    TarSpec,
    run_experiment,
    simulate_arma,
    simulate_tar,
)


class UsageError(Exception):
    pass


def read_series(path):
    """Series file: one finite decimal per line, optional 'value' header."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ArMatchError(f"{path}: not UTF-8 text ({exc.reason})")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower() == "value":
            continue
        try:
            v = float(line)
        except ValueError:
            raise ArMatchError(f"{path}: line {lineno}: not a number: {line!r}")
        if not math.isfinite(v):
            raise ArMatchError(f"{path}: line {lineno}: non-finite value")
        values.append(v)
    if not values:
        raise ArMatchError(f"{path}: no data lines")
    return np.array(values)


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _parse_coeffs(text):
    text = (text or "").strip()
    if not text:
        return np.zeros(0)
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise UsageError(f"cannot parse coefficient list {text!r}")


def _center(y, flag):
    if not flag:
        return y, 0.0
    mean = float(np.mean(y))
    return y - mean, mean


def cmd_fit(args):
    y = read_series(args.input)
    y, mean = _center(y, args.center)
    fr = fit_match(y, args.order, args.steps)
    out = {
        "phi": [float(v) for v in fr.model.phi],
        "sigma2": fr.model.sigma2,
        "q_value": fr.q_value,
        "m": fr.m,
        "p": fr.order,
        "converged": fr.converged,
        "centered_mean": mean,
        "iterations": fr.iterations,
        "restarts": fr.restarts,
        "grad_norm": fr.grad_norm,
    }
    if args.format == "json":
        _write_text(args.output, _json_text(out))
    else:
        header = [
            "p", "m", "q_value", "sigma2", "converged", "centered_mean", "phi",
            "iterations", "restarts", "grad_norm",
        ]
        row = [";".join(repr(v) for v in out["phi"]) if key == "phi" else out[key] for key in header]
        _write_text(args.output, _csv_text(header, [row]))
    return 0


def cmd_select(args):
    if args.bootstrap < 1:
        raise UsageError("--bootstrap must be >= 1")
    y = read_series(args.input)
    y, mean = _center(y, args.center)
    sel = select_order(y, args.max_order, args.steps, args.bootstrap, args.seed)
    aic_p, aic_vals = aic_baseline(y, args.max_order)
    if args.format == "json":
        out = {
            "chosen_p": sel.chosen_p,
            "aic_chosen_p": aic_p,
            "m": sel.m,
            "bootstrap_replicates": sel.bootstrap_replicates,
            "seed": sel.seed,
            "centered_mean": mean,
            "tie_break": sel.tie_break,
            "orders": [
                {
                    "p": row.order,
                    "log_loss": row.log_loss,
                    "bias_estimate": row.bias_estimate,
                    "criterion": row.criterion,
                    "aic": float(aic_vals[row.order]),
                    "converged": row.converged,
                    "replicates_used": row.replicates_used,
                    "bias_se": row.bias_se,
                }
                for row in sel.rows
            ],
        }
        _write_text(args.output, _json_text(out))
    else:
        header = [
            "p", "log_loss", "bias_estimate", "criterion", "aic",
            "converged", "replicates_used", "bias_se", "chosen",
        ]
        rows = [
            [
                row.order,
                row.log_loss,
                row.bias_estimate,
                row.criterion,
                float(aic_vals[row.order]),
                row.converged,
                row.replicates_used,
                row.bias_se,
                row.order == sel.chosen_p,
            ]
            for row in sel.rows
        ]
        _write_text(args.output, _csv_text(header, rows))
    return 0


def cmd_simulate(args):
    if args.model == "arma":
        spec = ArmaSpec(_parse_coeffs(args.ar), _parse_coeffs(args.ma), args.sigma2)
        y = simulate_arma(spec, args.n, args.seed, burnin=args.burnin,
                          dist=args.dist, t_df=args.df)
    else:
        spec = TarSpec(
            _parse_coeffs(args.phi_low),
            _parse_coeffs(args.phi_high),
            args.threshold,
            args.delay,
            args.sigma2,
        )
        y = simulate_tar(spec, args.n, args.seed, burnin=args.burnin,
                         dist=args.dist, t_df=args.df)
    _write_text(args.output, "".join(repr(float(v)) + "\n" for v in y))
    return 0


def _required_int(section, key):
    value = section.getint(key)
    if value is None:
        raise UsageError(f"config missing required key [{section.name}] {key}")
    return value


def _plan_from_config(path):
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ArMatchError(f"cannot read config file {path}")
    try:
        truth_sec = cp["truth"]
        run_sec = cp["run"]
    except KeyError as exc:
        raise UsageError(f"config missing required section {exc}")
    model = truth_sec.get("model", "arma").strip().lower()
    if model == "arma":
        truth = ArmaSpec(
            _parse_coeffs(truth_sec.get("ar", "")),
            _parse_coeffs(truth_sec.get("ma", "")),
            truth_sec.getfloat("sigma2", 1.0),
        )
    elif model == "tar":
        truth = TarSpec(
            _parse_coeffs(truth_sec.get("phi_low", "")),
            _parse_coeffs(truth_sec.get("phi_high", "")),
            truth_sec.getfloat("threshold", 0.0),
            truth_sec.getint("delay", 1),
            truth_sec.getfloat("sigma2", 1.0),
        )
    else:
        raise UsageError(f"unknown truth model {model!r}")
    estimators = []
    if "estimators" not in cp:
        raise UsageError("config missing [estimators] section")
    for name, value in cp["estimators"].items():
        parts = value.split()
        if not parts or parts[0] not in ("match", "ols"):
            raise UsageError(f"estimator {name!r}: expected 'match p=P m=M' or 'ols p=P'")
        kv = {}
        for tok in parts[1:]:
            k, eq, v = tok.partition("=")
            if not eq or k not in ("p", "m"):
                raise UsageError(f"estimator {name!r}: bad token {tok!r} (expected p=P or m=M)")
            kv[k] = int(v)
        estimators.append(
            EstimatorSpec(name=name, kind=parts[0], p=kv.get("p", 1), m=kv.get("m", 1))
        )
    selection = None
    if "selection" in cp:
        sec = cp["selection"]
        selection = SelectionSettings(
            p_max=_required_int(sec, "p_max"), m=sec.getint("m", 1), B=_required_int(sec, "b")
        )
    horizons = [int(h) for h in run_sec.get("horizons", "1").split(",")]
    return ExperimentPlan(
        truth=truth,
        n=_required_int(run_sec, "n"),
        replicates=_required_int(run_sec, "replicates"),
        estimators=tuple(estimators),
        eval_horizons=tuple(horizons),
        base_seed=run_sec.getint("base_seed", 0),
        innovations=run_sec.get("innovations", "gaussian"),
        t_df=run_sec.getfloat("t_df", 5.0),
        selection=selection,
    )


def cmd_experiment(args):
    import os

    plan = _plan_from_config(args.config)
    report = run_experiment(plan, jobs=args.jobs)
    os.makedirs(args.output, exist_ok=True)
    rows = [[row[c] for c in REPORT_COLUMNS] for row in report.rows]
    _write_text(os.path.join(args.output, "report.csv"), _csv_text(REPORT_COLUMNS, rows))
    _write_text(os.path.join(args.output, "summary.json"), _json_text(report.summary))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="armatch",
        description="AR model fitting by multi-step prediction matching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit an AR(p) model by feature matching")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--order", type=int, required=True)
    p_fit.add_argument("--steps", type=int, required=True)
    p_fit.add_argument("--center", action="store_true")
    p_fit.add_argument("--output")
    p_fit.add_argument("--format", choices=["json", "csv"], default="json")
    p_fit.set_defaults(func=cmd_fit)

    p_sel = sub.add_parser("select", help="choose the AR order")
    p_sel.add_argument("--input", required=True)
    p_sel.add_argument("--max-order", type=int, required=True)
    p_sel.add_argument("--steps", type=int, required=True)
    p_sel.add_argument("--bootstrap", type=int, required=True)
    p_sel.add_argument("--seed", type=int, required=True)
    p_sel.add_argument("--center", action="store_true")
    p_sel.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility; select runs in one process, so it has no effect",
    )
    p_sel.add_argument("--output")
    p_sel.add_argument("--format", choices=["json", "csv"], default="json")
    p_sel.set_defaults(func=cmd_select)

    p_sim = sub.add_parser("simulate", help="simulate a truth process")
    p_sim.add_argument("--model", choices=["arma", "tar"], required=True)
    p_sim.add_argument("--ar", default="")
    p_sim.add_argument("--ma", default="")
    p_sim.add_argument("--phi-low", default="")
    p_sim.add_argument("--phi-high", default="")
    p_sim.add_argument("--threshold", type=float, default=0.0)
    p_sim.add_argument("--delay", type=int, default=1)
    p_sim.add_argument("--sigma2", type=float, default=1.0)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--burnin", type=int, default=200)
    p_sim.add_argument("--dist", choices=["gaussian", "t"], default="gaussian")
    p_sim.add_argument("--df", type=float, default=5.0)
    p_sim.add_argument("--output")
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("experiment", help="run a replicated experiment plan")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--jobs", type=int, default=1)
    p_exp.add_argument("--output", required=True)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArMatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
