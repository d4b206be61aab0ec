"""Command-line surface: subcommands, formats, and exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import fbbai.cli as cli
import fbbai.harness as harness
from fbbai.errors import EstimationFailureError
from fbbai.harness import CSV_COLUMNS


# sha256 of `fbbai sweep --preset P --replications 10 --seed 3
# --no-wall-time --format csv`, recorded serially with one BLAS thread;
# `logistic` is left out because rounding decides some of its cuts
# (CHANGES.md FOUND, ROADMAP item 2)
GOLDEN_PRESET_DIGESTS = {
    "adaptive": "fb19059fa55c1e15a60cc2104afe8e9a0fc617c2537935ebe0c0cb324f3478df",
    "static": "c4265ecf79b78e95add6bd90f8e0fa158a4b7256aa62c0a5ddbd4bc0f9bd424e",
    "sphere": "66ea84c9b65c90e098a4e9f521f9cccf26d9ef77cc3be55b16059f376da5cbb4",
    "corner": "c4edf6ba8ead42d527f012d01e8574c48e629ffafa87418518e876ff97eba2a8",
}


def run_cli(*argv):
    return cli.main(list(argv))


def write_arms(tmp_path, rows, name="arms.csv"):
    d = len(rows[0])
    path = tmp_path / name
    header = ",".join(f"x{i + 1}" for i in range(d))
    body = "\n".join(",".join(str(v) for v in row) for row in rows)
    path.write_text(f"{header}\n{body}\n")
    return str(path)


class TestRun:
    def test_csv_row_on_stdout(self, capsys):
        rc = run_cli("run", "--family", "static", "--variant", "gse-uniform",
                     "--budget", "40", "--replications", "4", "--seed", "1",
                     "--K", "4", "--sigma2", "0", "--no-wall-time")
        assert rc == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(CSV_COLUMNS[:-1])
        record = dict(zip(rows[0], rows[1]))
        assert record["family"] == "static"
        assert record["accuracy"] == "1"  # noiseless runs never miss
        assert record["R"] == "4"

    def test_json_output(self, capsys):
        rc = run_cli("run", "--family", "static", "--variant", "gse-fwg",
                     "--budget", "40", "--replications", "2", "--K", "4",
                     "--format", "json")
        assert rc == 0
        parsed = json.loads(capsys.readouterr().out)
        assert len(parsed) == 1
        assert set(parsed[0]) == set(CSV_COLUMNS)

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        rc = run_cli("run", "--family", "corner", "--variant", "gse-fwg",
                     "--budget", "40", "--replications", "2", "--out", str(out))
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith(",".join(CSV_COLUMNS[:4]))

    def test_csv_family_needs_both_files(self, capsys):
        rc = run_cli("run", "--family", "csv", "--variant", "gse-fwg",
                     "--budget", "10")
        assert rc == 2
        assert capsys.readouterr().err == (
            "fbbai: --family csv needs --features and --theta\n")

    def test_csv_family_runs_from_files(self, tmp_path, capsys):
        arms = write_arms(tmp_path, [[1, 0], [0, 1], [0.5, 0.5]])
        theta = tmp_path / "theta.txt"
        theta.write_text("1.0 0.2\n")
        rc = run_cli("run", "--family", "csv", "--features", arms,
                     "--theta", str(theta), "--sigma2", "0",
                     "--variant", "gse-fwg", "--budget", "8",
                     "--replications", "2")
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split(",")[6] == "1"

    def test_csv_family_rejects_a_non_numeric_theta(self, tmp_path, capsys):
        arms = write_arms(tmp_path, [[1, 0], [0, 1], [0.5, 0.5]])
        theta = tmp_path / "theta.txt"
        theta.write_text("1.0 a\n")
        rc = run_cli("run", "--family", "csv", "--features", arms,
                     "--theta", str(theta), "--variant", "gse-fwg",
                     "--budget", "8", "--replications", "2")
        assert rc == 2
        assert capsys.readouterr().err == (
            f"fbbai: {theta}: cell is not a number\n")

    def test_stage_budget_at_the_dimension_keeps_every_replication(self,
                                                                  capsys):
        # three arms in R^2 and two pulls per stage: the rounding retry must
        # keep two independent arms instead of dropping the whole design
        rc = run_cli("run", "--family", "sphere", "--K", "3", "--d", "2",
                     "--variant", "gse-fwg", "--budget", "4",
                     "--replications", "200", "--seed", "0", "--no-wall-time")
        assert rc == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert (row["R"], row["aborts"]) == ("200", "0")

    def test_instance_options_follow_the_builders(self):
        assert cli.INSTANCE_OPTIONS == ("d", "omega", "sigma2", "delta", "K",
                                        "features", "theta", "model",
                                        "bernoulli")
        args = cli._build_parser().parse_args(
            ["run", "--family", "static", "--variant", "gse-fwg", "--budget", "1"])
        assert all(hasattr(args, name) for name in cli.INSTANCE_OPTIONS)

    def test_adaptive_family_needs_d(self, capsys):
        rc = run_cli("run", "--family", "adaptive", "--variant", "gse-fwg",
                     "--budget", "40", "--replications", "2")
        assert rc == 2
        assert "--family adaptive needs --d" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [["--budget", "0"],
                                        ["--budget", "40", "--eta", "1"],
                                        ["--budget", "40", "--eta", "0.5"],
                                        ["--budget", "40", "--eta", "inf"],
                                        ["--budget", "40", "--eta", "nan"]])
    def test_invalid_run_configuration_exits_two(self, config, capsys):
        rc = run_cli("run", "--family", "static", "--K", "4",
                     "--variant", "gse-fwg", "--replications", "3", *config)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fbbai: ")

    @pytest.mark.parametrize("family, message", [
        (["--family", "sphere", "--K", "1"], "sphere instance needs K >= 2"),
        (["--family", "corner", "--K", "2"], "corner instance needs K >= 3"),
        (["--family", "logistic", "--K", "6", "--d", "0"],
         "logistic instance needs K >= 2 and d >= 1"),
    ])
    def test_invalid_generator_parameter_exits_two(self, family, message,
                                                   monkeypatch, capsys):
        def no_replications(task):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "_mc_chunk", no_replications)
        rc = run_cli("run", *family, "--variant", "gse-fwg", "--budget", "40",
                     "--replications", "3", "--no-wall-time")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"fbbai: {message}")

    @pytest.mark.parametrize("family, options, named", [
        (["--family", "logistic", "--K", "6", "--d", "4"],
         ["--sigma2", "50"], "--sigma2"),
        (["--family", "logistic", "--K", "6", "--d", "4"],
         ["--omega", "0.5"], "--omega"),
        (["--family", "static", "--K", "4"],
         ["--d", "99", "--model", "glm", "--bernoulli"],
         "--d, --model, --bernoulli"),
        (["--family", "corner"], ["--sigma2", "0", "--d", "0"], "--d"),
        (["--family", "adaptive", "--d", "4"], ["--K", "5"], "--K"),
    ])
    def test_option_the_family_does_not_take_exits_two(self, family, options,
                                                       named, capsys):
        rc = run_cli("run", *family, *options, "--variant", "gse-fwg",
                     "--budget", "120", "--replications", "3")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"fbbai: --family {family[1]} does not take {named}\n")


HEADER = ",".join(CSV_COLUMNS[:-1]) + "\n"


class TestRunGoldenRows:
    """Exact rows without wall time for a fixed family, a generator family
    on two workers, an instance loaded from files, the D-named variant and
    the single-stage baseline."""

    def check(self, capsys, argv, row):
        assert run_cli("run", "--no-wall-time", *argv) == 0
        assert capsys.readouterr().out == HEADER + row + "\n"

    def test_fixed_family(self, capsys):
        self.check(capsys, ["--family", "static", "--K", "6",
                            "--variant", "gse-fwg", "--budget", "120",
                            "--replications", "40", "--seed", "3"],
                   "static,gse-fwg,budget,120,40,24,0.6,0.0774596669241,1,0")

    def test_generator_family_on_two_workers(self, capsys):
        self.check(capsys, ["--family", "corner", "--variant", "gse-uniform",
                            "--budget", "80", "--replications", "40",
                            "--seed", "1", "--workers", "2"],
                   "corner,gse-uniform,budget,80,40,8,0.2,0.0632455532034,,0")

    def test_csv_family(self, tmp_path, capsys):
        arms = write_arms(tmp_path, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                     [0.7, 0.7, 0], [0.2, 0.5, 0.6]])
        theta = tmp_path / "theta.txt"
        theta.write_text("1.0 0.3 0.5\n")
        self.check(capsys, ["--family", "csv", "--features", arms,
                            "--theta", str(theta), "--variant", "gse-fwg",
                            "--budget", "100", "--replications", "50",
                            "--seed", "2", "--eta", "3"],
                   "csv,gse-fwg,budget,100,50,35,0.7,0.0648074069841,1,0")

    def test_d_variant_on_its_own_seeds(self, capsys):
        self.check(capsys, ["--family", "adaptive", "--d", "9",
                            "--variant", "gse-fwd", "--budget", "300",
                            "--replications", "40", "--seed", "5"],
                   "adaptive,gse-fwd,budget,300,40,17,0.425,0.0781624910043,1,0")

    def test_static_baseline(self, capsys):
        self.check(capsys, ["--family", "corner", "--variant", "static-gopt",
                            "--budget", "80", "--replications", "40",
                            "--seed", "2"],
                   "corner,static-gopt,budget,80,40,38,0.95,0.0344601218802,,0")


class TestDesign:
    def test_weights_table(self, tmp_path, capsys):
        arms = write_arms(tmp_path, [[1, 0], [0, 1], [0.9, 0.45]])
        rc = run_cli("design", "--arms", arms)
        assert rc == 0
        captured = capsys.readouterr()
        assert "certified=True" in captured.err
        lines = captured.out.strip().splitlines()
        assert lines[0] == "arm,weight"
        weights = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(weights) == 3
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    def test_budget_adds_counts(self, tmp_path, capsys):
        arms = write_arms(tmp_path, [[1, 0], [0, 1], [0.9, 0.45]])
        rc = run_cli("design", "--arms", arms, "--budget", "10")
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "arm,weight,count"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 10

    def test_rank_deficient_arms_exit_config_error(self, tmp_path, capsys):
        arms = write_arms(tmp_path, [[1, 0], [2, 0]])
        assert run_cli("design", "--arms", arms) == 2

    def test_missing_file_exits_config_error(self, capsys):
        assert run_cli("design", "--arms", "/nonexistent/arms.csv") == 2

    def test_non_finite_cell_exits_config_error(self, tmp_path, capsys):
        arms = write_arms(tmp_path, [[1, 0], ["nan", 1], [0.5, 0.5]])
        assert run_cli("design", "--arms", arms) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fbbai: {arms}, line 3: cell is not finite\n"

    @pytest.mark.parametrize("option, message", [
        (["--tol", "nan"], "tolerance must be finite and positive, not nan"),
        (["--tol", "inf"], "tolerance must be finite and positive, not inf"),
        (["--tol", "0"], "tolerance must be finite and positive, not 0.0"),
        (["--iterations", "-3"],
         "iteration cap must be None or nonnegative, not -3"),
    ])
    def test_invalid_tolerance_or_cap_exits_config_error(self, tmp_path, option,
                                                         message, capsys):
        arms = write_arms(tmp_path, [[1, 0], [0, 1], [0.9, 0.45]])
        assert run_cli("design", "--arms", arms, *option) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fbbai: {message}\n"


class TestBound:
    def test_linear_value(self, capsys):
        rc = run_cli("bound", "--K", "4", "--d", "4", "--sigma2", "1",
                     "--delta-min", "1", "--B", "128")
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out == f"{8.0 * math.exp(-4.0):.12g}"

    def test_glm_value_selected_by_floor(self, capsys):
        rc = run_cli("bound", "--K", "4", "--d", "4", "--sigma2", "1",
                     "--delta-min", "1", "--B", "256", "--c-min", "1")
        assert rc == 0
        assert capsys.readouterr().out.strip() == f"{8.0 * math.exp(-4.0):.12g}"

    def test_general_form_from_norm_terms(self, capsys):
        rc = run_cli("bound", "--K", "4", "--d", "4", "--sigma2", "1",
                     "--delta-min", "4", "--norm-terms", "0.5,0.25")
        assert rc == 0
        assert capsys.readouterr().out.strip() == f"{8.0 * math.exp(-8.0):.12g}"

    def test_missing_budget_is_a_config_error(self, capsys):
        rc = run_cli("bound", "--K", "4", "--d", "4", "--sigma2", "1",
                     "--delta-min", "1")
        assert rc == 2

    @pytest.mark.parametrize("options", [
        ["--delta-min", "1e200", "--B", "128"],
        ["--sigma2", "5e-324", "--delta-min", "1", "--norm-terms", "1e-8"],
    ])
    def test_exponent_past_the_floats_prints_its_limit(self, options, capsys):
        rc = run_cli("bound", "--K", "4", "--d", "4", "--sigma2", "1", *options)
        assert rc == 0
        assert capsys.readouterr().out == "0\n"

    @pytest.mark.parametrize("terms", ["0.5,nan", "nan,0.5", "0.5,-1", "0.5,inf"])
    def test_every_norm_term_is_checked(self, terms, capsys):
        rc = run_cli("bound", "--K", "4", "--d", "4", "--sigma2", "1",
                     "--delta-min", "1", "--norm-terms", terms)
        assert rc == 2
        assert capsys.readouterr().err == (
            "fbbai: norm terms must be finite and positive\n")


class TestSweep:
    def test_preset_written_to_directory(self, tmp_path, capsys):
        rc = run_cli("sweep", "--preset", "corner", "--out", str(tmp_path),
                     "--replications", "2", "--seed", "3", "--workers", "1",
                     "--format", "csv")
        assert rc == 0
        assert "wrote 12 rows" in capsys.readouterr().err
        lines = (tmp_path / "corner.csv").read_text().strip().splitlines()
        assert len(lines) == 13
        assert not (tmp_path / "corner.json").exists()

    def test_preset_writes_both_formats(self, tmp_path, capsys):
        rc = run_cli("sweep", "--preset", "corner", "--out", str(tmp_path),
                     "--replications", "2", "--seed", "3", "--workers", "1",
                     "--format", "both")
        assert rc == 0
        assert "wrote 12 rows" in capsys.readouterr().err
        with open(tmp_path / "corner.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12
        assert list(rows[0]) == list(CSV_COLUMNS)
        parsed = json.loads((tmp_path / "corner.json").read_text())
        assert len(parsed) == 12
        assert parsed[0]["R"] == 2

    @pytest.mark.parametrize("preset, digest", list(GOLDEN_PRESET_DIGESTS.items()))
    def test_golden_preset_digest(self, preset, digest, tmp_path, capsys):
        rc = run_cli("sweep", "--preset", preset, "--out", str(tmp_path),
                     "--replications", "10", "--seed", "3", "--workers", "1",
                     "--no-wall-time", "--format", "csv")
        assert rc == 0
        data = (tmp_path / f"{preset}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_golden_preset_digest_on_three_workers(self, tmp_path, capsys):
        # fresh instances per replication, chunked three ways: each chunk is
        # one lockstep batch, and the bytes must equal the serial ones
        rc = run_cli("sweep", "--preset", "sphere", "--out", str(tmp_path),
                     "--replications", "10", "--seed", "3", "--workers", "3",
                     "--no-wall-time", "--format", "csv")
        assert rc == 0
        data = (tmp_path / "sphere.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_PRESET_DIGESTS["sphere"]

    def test_unknown_preset_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--preset", "galaxy", "--out", "/tmp/x")
        assert exc.value.code == 2


class TestExitCodes:
    def test_non_integer_worker_variable_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("FBBAI_WORKERS", "abc")
        rc = run_cli("run", "--family", "static", "--variant", "gse-fwg",
                     "--budget", "40", "--replications", "2", "--K", "4")
        assert rc == 2
        err = capsys.readouterr().err
        assert "FBBAI_WORKERS" in err and "'abc'" in err

    def test_missing_output_directory_exits_before_any_replication(
            self, monkeypatch, tmp_path, capsys):
        def never(*args, **kwargs):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "mc_accuracy", never)
        out = tmp_path / "missing" / "row.csv"
        rc = run_cli("run", "--family", "static", "--variant", "gse-fwg",
                     "--budget", "40", "--replications", "2000",
                     "--out", str(out))
        assert rc == 2
        assert str(tmp_path / "missing") in capsys.readouterr().err

    @pytest.mark.parametrize("sigma2", ["nan", "inf"])
    def test_non_finite_noise_variance_exits_two(self, capsys, sigma2):
        # NaN rewards tie, the tie goes to arm 0, the best arm: accuracy 1
        rc = run_cli("run", "--family", "static", "--K", "4", "--sigma2",
                     sigma2, "--variant", "gse-fwg", "--budget", "40",
                     "--replications", "20")
        assert rc == 2
        assert "noise_sigma2 must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "4294967296"])
    def test_seed_outside_32_bits_exits_two(self, capsys, seed):
        # masking ran -1 as 4294967295 and 4294967296 as 0
        rc = run_cli("run", "--family", "static", "--K", "4", "--variant",
                     "gse-fwg", "--budget", "40", "--replications", "4",
                     "--seed", seed, "--workers", "1")
        assert rc == 2
        assert f"seed must be in [0, 2**32), not {seed}" in (
            capsys.readouterr().err)

    def test_runtime_abort_maps_to_three(self, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise EstimationFailureError("synthetic failure")

        monkeypatch.setattr(harness, "mc_accuracy", explode)
        rc = run_cli("run", "--family", "static", "--variant", "gse-fwg",
                     "--budget", "40", "--replications", "2", "--K", "4")
        assert rc == 3
        assert "synthetic failure" in capsys.readouterr().err

    def test_running_out_of_memory_maps_to_three(self, monkeypatch, capsys):
        def exhaust(*args, **kwargs):
            raise MemoryError  # raised, never allocated

        monkeypatch.setattr(cli, "run_point", exhaust)
        rc = run_cli("run", "--family", "static", "--variant", "gse-fwg",
                     "--budget", "40", "--replications", "2", "--K", "4")
        assert rc == 3
        assert capsys.readouterr().err == "fbbai: out of memory\n"

    @pytest.mark.parametrize("argv", [
        ["design", "--budget", "9223372036854775807"],
        ["design", "--budget", "9223372036854775808"],
        ["run", "--family", "static", "--variant", "gse-fwg",
         "--budget", "100000000000000000000", "--replications", "1"],
        ["run", "--family", "static", "--variant", "gse-uniform",
         "--budget", "100000000000000000000", "--replications", "1"],
    ], ids=["design-2**63-1", "design-2**63", "run-fwg", "run-uniform"])
    def test_budgets_of_2_53_or_more_exit_two(self, tmp_path, argv):
        """Rounding stepped one pull at a time on overflowing sums, so these
        hung or died with a raw error; a subprocess with a timeout makes a
        hang fail the test."""
        if argv[0] == "design":
            argv += ["--arms", write_arms(tmp_path, [[1, 0], [0, 1], [0.6, 0.8]])]
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        done = subprocess.run([sys.executable, "-m", "fbbai.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("fbbai: budget ")
        assert done.stderr.endswith(" is not below 2**53\n")


# imports fbbai, then blocks SciPy so that any later import of it raises,
# and drives the CLI and the realized-norm bound terms
NO_SCIPY_SCRIPT = """
import sys
import numpy as np
import fbbai
import fbbai.cli
assert "scipy" not in sys.modules, "importing fbbai loaded scipy"
sys.modules["scipy"] = None
from fbbai import GseConfig, gen_static_instance, gse_run, stage_norm_terms
main = fbbai.cli.main
bound = ["bound", "--K", "4", "--d", "4", "--sigma2", "1", "--delta-min", "1"]
assert main(["design", "--arms", sys.argv[1], "--budget", "10"]) == 0
assert main(bound + ["--B", "128"]) == 0
assert main(bound + ["--norm-terms", "0.5,0.25"]) == 0
assert main(["run", "--family", "static", "--variant", "gse-fwg",
             "--budget", "40", "--K", "4", "--replications", "5",
             "--workers", "1"]) == 0
inst = gen_static_instance(1.0, K=4)
result = gse_run(inst, GseConfig(budget=40), np.random.default_rng(0))
for kind in ("difference", "feature"):
    assert len(stage_norm_terms(inst, result, kind=kind)) == len(result.traces)
print("ok")
"""


class TestRuntimeNeedsNoScipy:
    def test_cli_and_bounds_run_with_scipy_blocked(self, tmp_path):
        arms = write_arms(tmp_path, [[1, 0], [0, 1], [0.9, 0.45]])
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, arms],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "ok"
