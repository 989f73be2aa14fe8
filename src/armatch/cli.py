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
import os
import re
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


# The options whose value is a comma-separated coefficient list.
_COEFF_FLAGS = ("--ar", "--ma", "--phi-low", "--phi-high")


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


def _parse_coeffs(text, where):
    """Comma-separated coefficients, or a UsageError naming where."""
    text = (text or "").strip()
    if not text:
        return np.zeros(0)
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise UsageError(f"{where}: cannot parse coefficient list {text!r}")


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
    orders = [
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
    ]
    if args.format == "json":
        out = {
            "chosen_p": sel.chosen_p,
            "aic_chosen_p": aic_p,
            "m": sel.m,
            "bootstrap_replicates": sel.bootstrap_replicates,
            "seed": sel.seed,
            "centered_mean": mean,
            "tie_break": sel.tie_break,
            "orders": orders,
        }
        _write_text(args.output, _json_text(out))
    else:
        # One CSV row per order: its JSON fields in order, then "chosen".
        rows = [[*row.values(), row["p"] == sel.chosen_p] for row in orders]
        _write_text(args.output, _csv_text([*orders[0], "chosen"], rows))
    return 0


def cmd_simulate(args):
    if args.model == "arma":
        spec = ArmaSpec(_parse_coeffs(args.ar, "--ar"), _parse_coeffs(args.ma, "--ma"), args.sigma2)
        y = simulate_arma(spec, args.n, args.seed, burnin=args.burnin,
                          dist=args.dist, t_df=args.df)
    else:
        spec = TarSpec(
            _parse_coeffs(args.phi_low, "--phi-low"),
            _parse_coeffs(args.phi_high, "--phi-high"),
            args.threshold,
            args.delay,
            args.sigma2,
        )
        y = simulate_tar(spec, args.n, args.seed, burnin=args.burnin,
                         dist=args.dist, t_df=args.df)
    _write_text(args.output, "".join(repr(float(v)) + "\n" for v in y))
    return 0


def _number(kind, text, where):
    """text read as kind (int or float), or a UsageError naming where."""
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{where}: expected {'an integer' if kind is int else 'a number'}, got {text!r}")


def _config_number(section, key, kind=int, default=None):
    """[section] key read as kind, or default where absent (required without one)."""
    text = section.get(key)
    if text is None and default is None:
        raise UsageError(f"config missing required key [{section.name}] {key}")
    return default if text is None else _number(kind, text, f"config [{section.name}] {key}")


def _plan_from_config(path):
    cp = configparser.ConfigParser(interpolation=None)
    try:
        if not cp.read(path):
            raise ArMatchError(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise UsageError(f"config file {path}: {exc.message}")
    try:
        truth_sec = cp["truth"]
        run_sec = cp["run"]
    except KeyError as exc:
        raise UsageError(f"config missing required section {exc}")
    model = truth_sec.get("model", "arma").strip().lower()
    if model == "arma":
        truth = ArmaSpec(
            _parse_coeffs(truth_sec.get("ar", ""), "config [truth] ar"),
            _parse_coeffs(truth_sec.get("ma", ""), "config [truth] ma"),
            _config_number(truth_sec, "sigma2", float, 1.0),
        )
    elif model == "tar":
        truth = TarSpec(
            _parse_coeffs(truth_sec.get("phi_low", ""), "config [truth] phi_low"),
            _parse_coeffs(truth_sec.get("phi_high", ""), "config [truth] phi_high"),
            _config_number(truth_sec, "threshold", float, 0.0),
            _config_number(truth_sec, "delay", default=1),
            _config_number(truth_sec, "sigma2", float, 1.0),
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
        keys = ("p", "m") if parts[0] == "match" else ("p",)
        kv = {}
        for tok in parts[1:]:
            k, eq, v = tok.partition("=")
            if not eq or k not in keys or k in kv:
                expected = " ".join(f"{key}={key.upper()}" for key in keys)
                raise UsageError(f"estimator {name!r}: bad token {tok!r} (expected {expected}, each once)")
            kv[k] = _number(int, v, f"estimator {name!r}: {tok}")
        estimators.append(
            EstimatorSpec(name=name, kind=parts[0], p=kv.get("p", 1), m=kv.get("m", 1))
        )
    selection = None
    if "selection" in cp:
        sec = cp["selection"]
        selection = SelectionSettings(
            p_max=_config_number(sec, "p_max"), m=_config_number(sec, "m", default=1), B=_config_number(sec, "b")
        )
    horizons = [_number(int, h, "config [run] horizons") for h in run_sec.get("horizons", "1").split(",")]
    return ExperimentPlan(
        truth=truth,
        n=_config_number(run_sec, "n"),
        replicates=_config_number(run_sec, "replicates"),
        estimators=tuple(estimators),
        eval_horizons=tuple(horizons),
        base_seed=_config_number(run_sec, "base_seed", default=0),
        innovations=run_sec.get("innovations", "gaussian"),
        t_df=_config_number(run_sec, "t_df", float, 5.0),
        selection=selection,
    )


def cmd_experiment(args):
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
    for flag in _COEFF_FLAGS:
        p_sim.add_argument(flag, default="")
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


def _attach_coefficients(argv):
    """argv with a coefficient list that starts with a minus sign attached to
    its flag, or to an abbreviation of it ("--ar -0.5,0.3" -> "--ar=-0.5,0.3"):
    argparse reads a value that starts with "-" and is not one plain number
    as an option."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and any(f.startswith(flag) for f in _COEFF_FLAGS) and re.match(r"-[\d.]", arg):
            arg = out.pop() + "=" + arg
        out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_coefficients(sys.argv[1:] if argv is None else argv))
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
