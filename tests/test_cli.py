"""Command-line surface: subcommands, formats, and exit codes."""

import csv
import hashlib
import io
import json
import math

import pytest

import fbbai.cli as cli
import fbbai.harness as harness
from fbbai.errors import EstimationFailureError
from fbbai.harness import CSV_COLUMNS, read_csv


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

    def test_adaptive_family_needs_d(self, capsys):
        rc = run_cli("run", "--family", "adaptive", "--variant", "gse-fwg",
                     "--budget", "40", "--replications", "2")
        assert rc == 2
        assert "--family adaptive needs --d" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [["--budget", "0"],
                                        ["--budget", "40", "--eta", "1"],
                                        ["--budget", "40", "--eta", "0.5"]])
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
        rows = read_csv(tmp_path / "corner.csv")
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

    def test_runtime_abort_maps_to_three(self, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise EstimationFailureError("synthetic failure")

        monkeypatch.setattr(harness, "mc_accuracy", explode)
        rc = run_cli("run", "--family", "static", "--variant", "gse-fwg",
                     "--budget", "40", "--replications", "2", "--K", "4")
        assert rc == 3
        assert "synthetic failure" in capsys.readouterr().err
