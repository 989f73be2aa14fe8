import json
import os
import subprocess
import sys
from pathlib import Path

import armatch
import numpy as np
import pytest

from armatch import ArmaSpec, simulate_arma
from armatch.cli import build_parser, main, read_series
from armatch.errors import ArMatchError

Y4 = "1\n0\n2\n1\n"


@pytest.fixture
def series_file(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text(Y4)
    return str(path)


@pytest.fixture
def ar2_file(tmp_path):
    y = simulate_arma(ArmaSpec([0.75, -0.5], [], 1.0), 300, 17)
    path = tmp_path / "ar2.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in y))
    return str(path)


class TestReadSeries:
    def test_plain_values(self, series_file):
        assert read_series(series_file).tolist() == [1.0, 0.0, 2.0, 1.0]

    def test_value_header_skipped(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("value\n1.5\n-2\n")
        assert read_series(str(path)).tolist() == [1.5, -2.0]

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n2\noops\n")
        with pytest.raises(ArMatchError, match="line 3"):
            read_series(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(ArMatchError):
            read_series(str(path))


class TestFit:
    def test_hand_example_json(self, series_file, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(
            ["fit", "--input", series_file, "--order", "1", "--steps", "1",
             "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["phi"][0] == pytest.approx(0.4, abs=1e-4)
        assert doc["p"] == 1 and doc["m"] == 1
        assert doc["centered_mean"] == 0.0

    def test_center_flag_recorded(self, series_file, tmp_path):
        out = tmp_path / "fit.json"
        main(["fit", "--input", series_file, "--order", "1", "--steps", "1",
              "--center", "--output", str(out)])
        assert json.loads(out.read_text())["centered_mean"] == pytest.approx(1.0)

    def test_csv_format(self, series_file, tmp_path):
        out = tmp_path / "fit.csv"
        code = main(["fit", "--input", series_file, "--order", "1", "--steps", "1",
                     "--format", "csv", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("p,m,q_value")
        assert len(lines) == 2

    def test_solver_fields_reported(self, ar2_file, tmp_path):
        args = ["fit", "--input", ar2_file, "--order", "2", "--steps", "3"]
        main([*args, "--output", str(tmp_path / "fit.json")])
        main([*args, "--format", "csv", "--output", str(tmp_path / "fit.csv")])
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["iterations"] > 0 and doc["restarts"] == 1
        assert 0.0 <= doc["grad_norm"] < 1e-6
        header, line = (tmp_path / "fit.csv").read_text().splitlines()
        assert header == "p,m,q_value,sigma2,converged,centered_mean,phi,iterations,restarts,grad_norm"
        values = line.split(",")
        assert [int(values[7]), int(values[8]), float(values[9])] == [
            doc["iterations"], doc["restarts"], doc["grad_norm"]
        ]

    def test_missing_order_usage_error(self, series_file):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", series_file, "--steps", "1"])
        assert exc.value.code == 2

    def test_non_numeric_line_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1\nx\n")
        code = main(["fit", "--input", str(path), "--order", "1", "--steps", "1"])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "nope.txt"),
                     "--order", "1", "--steps", "1"])
        assert code == 1

    def test_too_short_exit_1(self, series_file):
        code = main(["fit", "--input", series_file, "--order", "3", "--steps", "4"])
        assert code == 1

    @pytest.mark.parametrize("order, steps", [("1", "0"), ("-1", "2")])
    def test_bad_orders_exit_2_without_traceback(self, series_file, order, steps):
        env = dict(os.environ, PYTHONPATH=str(Path(armatch.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "armatch.cli", "fit", "--input", series_file,
             "--order", order, "--steps", steps],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["fit", "--order", "1", "--steps", "1"],
                                     ["select", "--max-order", "1", "--steps", "1",
                                      "--bootstrap", "5", "--seed", "1"]])
def test_undecodable_input_exit_1_without_traceback(tmp_path, command):
    # UnicodeDecodeError is a ValueError, which once made this a usage error.
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"1\n\xff\xfe2\n")
    env = dict(os.environ, PYTHONPATH=str(Path(armatch.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "armatch.cli", command[0], "--input", str(path), *command[1:]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {path}: not UTF-8 text (invalid start byte)\n"


class TestSelect:
    def test_table_shape(self, ar2_file, tmp_path):
        out = tmp_path / "sel.json"
        code = main(["select", "--input", ar2_file, "--max-order", "3",
                     "--steps", "1", "--bootstrap", "10", "--seed", "4",
                     "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert [row["p"] for row in doc["orders"]] == [0, 1, 2, 3]
        assert "chosen_p" in doc and "aic_chosen_p" in doc
        for row in doc["orders"]:
            assert row["criterion"] == pytest.approx(
                row["log_loss"] + row["bias_estimate"]
            )

    def test_bias_se_reported(self, ar2_file, tmp_path):
        args = ["select", "--input", ar2_file, "--max-order", "2", "--steps", "1",
                "--bootstrap", "10", "--seed", "4"]
        main([*args, "--output", str(tmp_path / "sel.json")])
        main([*args, "--format", "csv", "--output", str(tmp_path / "sel.csv")])
        rows = json.loads((tmp_path / "sel.json").read_text())["orders"]
        # At p = 0 every replicate difference is log(gamma_hat(0)), so the SE
        # is zero up to rounding.
        assert rows[0]["bias_se"] < 1e-12
        assert all(row["bias_se"] > 0.0 for row in rows[1:])
        header, *lines = (tmp_path / "sel.csv").read_text().splitlines()
        assert header.split(",")[6:8] == ["replicates_used", "bias_se"]
        assert [float(line.split(",")[7]) for line in lines] == [row["bias_se"] for row in rows]

    @pytest.mark.parametrize("name, y", [("t2", np.arange(50.0) ** 2), ("exp", 1.05 ** np.arange(80.0))])
    def test_unit_root_data_fit_exits_1(self, tmp_path, capsys, name, y):
        # An order's data fit sits within rounding of the unit circle, so its
        # autocovariances fail validation: a runtime failure, not a usage error.
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in y))
        code = main(["select", "--input", str(path), "--max-order", "6", "--steps", "5",
                     "--bootstrap", "20", "--seed", "7"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("name, y, singular_from", [
        ("exp", 1.05 ** np.arange(50.0), 2),
        ("trend", np.arange(80.0), 3),
    ])
    def test_singular_aic_orders_score_nan(self, tmp_path, name, y, singular_from):
        # From order singular_from on, the lagged OLS design of these series
        # is singular: the AIC baseline scores those orders NaN, chooses
        # among the rest, and select succeeds.
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in y))
        out = tmp_path / "sel.json"
        code = main(["select", "--input", str(path), "--max-order", "6", "--steps", "1",
                     "--bootstrap", "20", "--seed", "7", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        aic = np.array([row["aic"] for row in doc["orders"]])
        assert np.isnan(aic).tolist() == [p >= singular_from for p in range(7)]
        assert doc["aic_chosen_p"] == int(np.argmin(aic[:singular_from]))

    def test_bootstrap_zero_exit_2(self, ar2_file):
        code = main(["select", "--input", ar2_file, "--max-order", "2",
                     "--steps", "1", "--bootstrap", "0", "--seed", "1"])
        assert code == 2

    def test_byte_identical_repeats_and_jobs(self, ar2_file, tmp_path):
        outs = []
        for i, jobs in enumerate(("1", "3")):
            out = tmp_path / f"sel{i}.csv"
            main(["select", "--input", ar2_file, "--max-order", "2",
                  "--steps", "1", "--bootstrap", "8", "--seed", "4",
                  "--jobs", jobs, "--format", "csv", "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


    def test_multistep_bytes_do_not_depend_on_jobs(self, ar2_file, tmp_path):
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"sel{jobs}.json"
            main(["select", "--input", ar2_file, "--max-order", "3",
                  "--steps", "3", "--bootstrap", "8", "--seed", "4",
                  "--jobs", jobs, "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSimulate:
    def test_line_count_and_reproducible(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            code = main(["simulate", "--model", "arma", "--ar", "0.5",
                         "--sigma2", "1", "--n", "5", "--seed", "7",
                         "--output", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 5

    def test_output_round_trips_through_read_series(self, tmp_path):
        out = tmp_path / "y.txt"
        main(["simulate", "--model", "arma", "--ar", "0.5", "--n", "20",
              "--seed", "3", "--output", str(out)])
        assert read_series(str(out)).shape == (20,)

    def test_tar_model(self, tmp_path):
        out = tmp_path / "tar.txt"
        code = main(["simulate", "--model", "tar", "--phi-low", "0.5",
                     "--phi-high", "-0.3", "--threshold", "0", "--delay", "1",
                     "--n", "10", "--seed", "2", "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 10

    def test_unknown_model_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "foo", "--n", "5", "--seed", "1"])
        assert exc.value.code == 2

    def test_nonstationary_exit_1(self, tmp_path):
        code = main(["simulate", "--model", "arma", "--ar", "1.2",
                     "--n", "5", "--seed", "1", "--output", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("option, value, message", [
        pytest.param("--phi-low", "nan", "TAR coefficients must be finite", id="nan"),
        pytest.param("--phi-low", "nan,0.1", "TAR coefficients must be finite", id="nan,0.1"),
        pytest.param("--sigma2", "nan", "sigma2 must be positive", id="sigma2-nan"),
        pytest.param("--sigma2", "inf", "sigma2 must be positive", id="sigma2-inf"),
        pytest.param("--threshold", "nan", "threshold must be finite", id="threshold-nan"),
    ])
    def test_non_finite_tar_coefficients_exit_2(self, tmp_path, capsys, option, value, message):
        out = tmp_path / "x"
        code = main(["simulate", "--model", "tar", "--phi-low", "0.5", "--phi-high", "-0.3",
                     "--n", "5", "--seed", "1", option, value, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_coefficient_list_exit_2(self, tmp_path):
        code = main(["simulate", "--model", "arma", "--ar", "0.5;0.2",
                     "--n", "5", "--seed", "1", "--output", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("model", [["arma", "--ar", "0.5"],
                                       ["tar", "--phi-low", "0.5", "--phi-high", "-0.3"]])
    @pytest.mark.parametrize("burnin", ["-1", "-600"])
    def test_negative_burnin_exit_2_without_traceback(self, tmp_path, capsys, model, burnin):
        # -1 once wrote the zero pre-sample history as data; -600 failed in numpy.
        out = tmp_path / "x"
        code = main(["simulate", "--model", *model, "--n", "5", "--seed", "1",
                     "--burnin", burnin, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: burnin must be >= 0" in err
        assert "Traceback" not in err
        assert not out.exists()


EXPERIMENT_CONFIG = """\
[truth]
model = arma
ar = 0.8
ma = -0.5
sigma2 = 1.0

[run]
n = 150
replicates = 4
base_seed = 5
horizons = 1,2,3

[estimators]
one_step = match p=1 m=1
multi_step = match p=1 m=3
baseline = ols p=1

[selection]
p_max = 2
m = 1
b = 5
"""


class TestExperiment:
    def test_full_run_outputs(self, tmp_path):
        cfg = tmp_path / "plan.ini"
        cfg.write_text(EXPERIMENT_CONFIG)
        outdir = tmp_path / "out"
        code = main(["experiment", "--config", str(cfg), "--output", str(outdir)])
        assert code == 0
        report = (outdir / "report.csv").read_text().splitlines()
        assert report[0] == "replicate,estimator,p,m,score,converged,chosen_p"
        # 4 replicates x (3 estimators + 1 selection row)
        assert len(report) == 1 + 4 * 4
        summary = json.loads((outdir / "summary.json").read_text())
        assert "win_rate" in summary and "selection" in summary

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = tmp_path / "plan.ini"
        cfg.write_text(EXPERIMENT_CONFIG)
        blobs = []
        for jobs in ("1", "4"):
            outdir = tmp_path / f"out{jobs}"
            main(["experiment", "--config", str(cfg), "--jobs", jobs,
                  "--output", str(outdir)])
            blobs.append(
                (outdir / "report.csv").read_bytes()
                + (outdir / "summary.json").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_missing_section_exit_2(self, tmp_path):
        cfg = tmp_path / "plan.ini"
        cfg.write_text("[truth]\nmodel = arma\nar = 0.5\n")
        code = main(["experiment", "--config", str(cfg),
                     "--output", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "section, key",
        [("[run]", "n"), ("[run]", "replicates"), ("[selection]", "p_max"), ("[selection]", "b")],
    )
    def test_missing_required_key_exit_2_without_traceback(self, tmp_path, capsys, section, key):
        lines = EXPERIMENT_CONFIG.splitlines(keepends=True)
        start = lines.index(section + "\n")
        drop = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key} ="))
        cfg = tmp_path / "plan.ini"
        cfg.write_text("".join(lines[:drop] + lines[drop + 1:]))
        code = main(["experiment", "--config", str(cfg), "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: config missing required key {section} {key}\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", ["M=5", "q=7"])
    def test_unknown_estimator_token_exit_2_without_traceback(self, tmp_path, capsys, token):
        cfg = tmp_path / "plan.ini"
        cfg.write_text(EXPERIMENT_CONFIG.replace("multi_step = match p=1 m=3", f"multi_step = match p=1 {token}"))
        code = main(["experiment", "--config", str(cfg), "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: estimator 'multi_step': bad token {token!r}")
        assert "Traceback" not in err

    def test_diverging_tar_truth_exit_1_without_traceback(self, tmp_path, capsys):
        # Both regimes are stationary, but the switched process diverges:
        # every replicate's held-out path overflows, which is a runtime
        # failure of the replicates, not a usage error.
        cfg = tmp_path / "plan.ini"
        cfg.write_text(
            "[truth]\nmodel = tar\nphi_low = 1.18558561,-0.54277853\n"
            "phi_high = -1.05493674,-0.4191051\nthreshold = 0\ndelay = 2\n\n"
            "[run]\nn = 400\nreplicates = 4\nhorizons = 1,2\n\n"
            "[estimators]\nm2 = match p=2 m=2\n"
        )
        code = main(["experiment", "--config", str(cfg), "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: 4/4 replicates failed: NonStationary: TAR path diverged: non-finite value\n"

    def test_missing_config_exit_1(self, tmp_path):
        code = main(["experiment", "--config", str(tmp_path / "nope.ini"),
                     "--output", str(tmp_path / "o")])
        assert code == 1


def test_parser_built_once():
    assert build_parser() is build_parser()


NUMPY_MODULES = """\
import json, sys
import {}
print(json.dumps(sorted(name for name in sys.modules if name.partition(".")[0] == "numpy")))
"""


def test_import_loads_no_numpy_module_beyond_numpy_itself():
    # numpy.random, in particular, is imported lazily on numpy 2.x; the CLI
    # must not load it (or any other numpy submodule) just by importing.
    src = Path(__file__).resolve().parents[1] / "src"
    loaded = {}
    for target in ("numpy", "armatch.cli"):
        out = subprocess.run(
            [sys.executable, "-c", NUMPY_MODULES.format(target)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120, check=True,
        )
        loaded[target] = set(json.loads(out.stdout))
    assert loaded["armatch.cli"] <= loaded["numpy"], sorted(loaded["armatch.cli"] - loaded["numpy"])


def test_import_leaves_the_worker_pool_unloaded():
    # The pool's modules (multiprocessing, socket ...) cost start-up time
    # and load only when a command starts workers.
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import sys, armatch.cli; print('concurrent.futures.process' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"


RUNTIME_SCRIPT = """\
import sys
import armatch, armatch.cli as cli

d, cfg = sys.argv[1], sys.argv[2]
assert cli.main(["simulate", "--model", "arma", "--ar", "0.5", "--ma", "0.3", "--n", "120",
                 "--seed", "1", "--output", d + "/y.txt"]) == 0
for m in ("1", "2"):
    assert cli.main(["select", "--input", d + "/y.txt", "--max-order", "2", "--steps", m,
                     "--bootstrap", "5", "--seed", "1", "--output", d + "/sel.json"]) == 0
assert cli.main(["experiment", "--config", cfg, "--output", d + "/exp"]) == 0
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_runtime_path_imports_no_scipy(tmp_path):
    # scipy is only a test dependency: the package and every CLI command
    # must run without it (the filter and the Toeplitz solve are numpy).
    cfg = tmp_path / "plan.ini"
    cfg.write_text(EXPERIMENT_CONFIG)
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", RUNTIME_SCRIPT, str(tmp_path), str(cfg)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert out.stdout.strip() == "[]"
