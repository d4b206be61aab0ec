"""Seed derivation, Monte-Carlo tallies, presets, and output formats."""

import csv
import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbbai.bounds import BoundInputs, bound_glm_gopt, bound_linear_gopt, oracle_c_min
import fbbai.harness as harness_mod
from fbbai.errors import ConfigurationError, DegenerateInputError
from fbbai.gse import DesignCache, GseConfig, gse_lockstep
from fbbai.harness import (CSV_COLUMNS, FAMILIES, PRESETS, VARIANTS, McResult,
                           SweepRow, VariantSpec, bound_for_source,
                           family_parameters, family_source, format_csv,
                           format_json, mc_accuracy, rep_seed,
                           run_point, run_preset, write_csv)
from fbbai.instances import (LOGISTIC, BanditInstance, gen_corner_instance,
                             gen_logistic_instance, gen_sphere_instance,
                             gen_static_instance, load_instance_csv, noiseless)


def states(ss):
    return tuple(ss.generate_state(4))


class TestRepSeed:
    def test_stable_for_identical_inputs(self):
        a = rep_seed(7, "static", "gse-fwg", 100, 3)
        b = rep_seed(7, "static", "gse-fwg", 100, 3)
        assert states(a) == states(b)

    def test_entropy_is_the_recorded_one(self):
        # recorded before the token hashes were memoised; any change to the
        # derivation would move every replication's stream
        assert rep_seed(7, "static", "gse-fwg", 100, 3).entropy == [
            7, 18310218109250633667, 9415315121477248423,
            6155877967411435437, 3]
        assert rep_seed(900001, "sphere", "gse-fwg", 1280, 24).entropy == [
            900001, 1582190556888248499, 9415315121477248423,
            10837145441969312623, 24]

    @pytest.mark.parametrize("master", [-1, 2 ** 32])
    def test_seed_outside_32_bits_rejected(self, master):
        # masking aliased 2**32 to 0 and -1 to 2**32 - 1
        with pytest.raises(ConfigurationError, match="seed must be in"):
            rep_seed(master, "static", "gse-fwg", 100, 3)

    @pytest.mark.parametrize("master", [2 ** 32 - 0.5, 3.0, True, "3", None])
    def test_seed_must_be_an_integer(self, master):
        # 2**32 - 0.5 passed the range check and seeded as 2**32 - 1
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            rep_seed(master, "static", "gse-fwg", 100, 3)

    @pytest.mark.parametrize("rep", [-1, 1.5, 3.0, "3", None])
    def test_rep_must_be_a_non_negative_integer(self, rep):
        with pytest.raises(ConfigurationError, match="rep must be"):
            rep_seed(7, "static", "gse-fwg", 100, rep)

    @pytest.mark.parametrize("budget", [10.5, 100.0, "100"])
    def test_budget_must_be_an_integer(self, budget):
        with pytest.raises(ConfigurationError, match="budget must be"):
            rep_seed(7, "static", "gse-fwg", budget, 3)

    def test_numpy_integers_give_the_same_entropy(self):
        assert rep_seed(7, "static", "gse-fwg", np.int64(100),
                        np.uint32(3)).entropy == rep_seed(
                            7, "static", "gse-fwg", 100, 3).entropy

    def test_any_coordinate_changes_the_stream(self):
        base = states(rep_seed(7, "static", "gse-fwg", 100, 3))
        assert states(rep_seed(8, "static", "gse-fwg", 100, 3)) != base
        assert states(rep_seed(7, "sphere", "gse-fwg", 100, 3)) != base
        assert states(rep_seed(7, "static", "gse-fwd", 100, 3)) != base
        assert states(rep_seed(7, "static", "gse-fwg", 101, 3)) != base
        assert states(rep_seed(7, "static", "gse-fwg", 100, 4)) != base


class TestMcResult:
    def test_accuracy_and_stderr(self):
        res = McResult(replications=16, successes=12, aborts=0)
        assert res.accuracy == pytest.approx(0.75)
        assert res.stderr == pytest.approx(math.sqrt(0.75 * 0.25 / 16))


def sometimes_degenerate(rng):
    """A generator source that raises ``DegenerateInputError`` when its
    first uniform is below 0.3, and else returns a noiseless instance, on
    which every run succeeds."""
    if rng.random() < 0.3:
        raise DegenerateInputError("synthetic degenerate draw")
    return noiseless(gen_static_instance(1.0, K=4))


class TestMcAccuracy:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_generator_errors_count_as_aborts(self, workers):
        raising = sum(np.random.default_rng(
            rep_seed(5, "custom", "gse-fwg", 40, r).spawn(2)[0]).random() < 0.3
            for r in range(40))
        assert 0 < raising < 40
        res = mc_accuracy(sometimes_degenerate, "gse-fwg", 40, 40, 5,
                          workers=workers)
        assert (res.aborts, res.successes) == (raising, 40 - raising)

    def test_noiseless_instance_always_succeeds(self):
        inst = noiseless(gen_static_instance(1.0, K=4))
        res = mc_accuracy(inst, "gse-fwg", 40, 8, 0, workers=1)
        assert res.successes == 8 and res.aborts == 0
        assert res.accuracy == 1.0

    def test_same_seed_gives_identical_tallies(self):
        inst = gen_static_instance(1.0, K=4, sigma2=4.0)
        a = mc_accuracy(inst, "gse-uniform", 40, 64, 5, workers=1)
        b = mc_accuracy(inst, "gse-uniform", 40, 64, 5, workers=1)
        assert (a.successes, a.aborts) == (b.successes, b.aborts)

    def test_worker_count_does_not_change_the_tally(self):
        inst = gen_static_instance(0.5, K=4, sigma2=4.0)
        serial = mc_accuracy(inst, "gse-fwg", 40, 40, 9, workers=1)
        pooled3 = mc_accuracy(inst, "gse-fwg", 40, 40, 9, workers=3)
        pooled4 = mc_accuracy(inst, "gse-fwg", 40, 40, 9, workers=4)
        assert serial.successes == pooled3.successes == pooled4.successes
        assert serial.aborts == pooled3.aborts == pooled4.aborts

    @pytest.mark.parametrize("source, variant", [
        (gen_static_instance(0.5, K=8, sigma2=4.0), "gse-fwg"),
        (family_source("sphere", {"K": 6, "d": 3}), "gse-uniform"),
    ])
    def test_lockstep_batches_do_not_change_the_tally(self, monkeypatch,
                                                      source, variant):
        whole = mc_accuracy(source, variant, 60, 40, 3, workers=1)
        monkeypatch.setattr(harness_mod, "LOCKSTEP_BATCH", 7)
        batched = mc_accuracy(source, variant, 60, 40, 3, workers=1)
        assert (batched.successes, batched.aborts) == (whole.successes,
                                                       whole.aborts)

    @pytest.mark.parametrize("value", ["abc", "2.5", ""])
    def test_non_integer_worker_variable_is_a_config_error(self, monkeypatch,
                                                           value):
        monkeypatch.setenv("FBBAI_WORKERS", value)
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError,
                           match=f"FBBAI_WORKERS.*'{value}'"):
            mc_accuracy(inst, "gse-fwg", 40, 2, 0)

    def test_tiny_jobs_skip_the_pool(self):
        inst = noiseless(gen_static_instance(1.0, K=4))
        res = mc_accuracy(inst, "gse-fwg", 40, 4, 0, workers=8)
        assert res.successes == 4

    def test_generator_source_draws_fresh_instances(self):
        src = family_source("logistic", {"K": 4, "d": 2})
        res = mc_accuracy(src, "gse-fwg", 40, 6, 2, family="logistic", workers=1)
        assert res.replications == 6
        assert 0 <= res.successes <= 6

    def test_overwhelming_noise_reduces_to_guessing(self):
        """With variance 1e6 the sixteen arms are exchangeable to the
        estimator, so the hit rate sits at 1/16 up to binomial error."""
        inst = gen_static_instance(1.0, K=16, sigma2=1e6)
        res = mc_accuracy(inst, "gse-uniform", 320, 2000, 4, workers=1)
        p = 1.0 / 16.0
        assert abs(res.accuracy - p) <= 3.0 * math.sqrt(p * (1 - p) / 2000)

    def test_infeasible_budget_counts_as_abort(self):
        inst = gen_static_instance(1.0, K=16)
        res = mc_accuracy(inst, "gse-uniform", 3, 5, 0, workers=1)
        assert res.aborts == 5 and res.successes == 0
        assert res.accuracy == 0.0

    def test_unknown_variant_rejected(self):
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError):
            mc_accuracy(inst, "gse-sgd", 40, 2, 0, workers=1)

    def test_zero_replications_rejected(self):
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError):
            mc_accuracy(inst, "gse-fwg", 40, 0, 0, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", [-1, 2 ** 32])
    def test_seed_outside_32_bits_rejected_before_any_replication(
            self, monkeypatch, seed, workers):
        def never(task):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness_mod, "_mc_chunk", never)
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError, match="seed must be in"):
            mc_accuracy(inst, "gse-fwg", 40, 8, seed, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("seed", [3.5, 3.0, True, "3"])
    def test_non_integer_seed_rejected_before_any_replication(
            self, monkeypatch, seed, workers):
        # 3.5 ran as seed 3 and True as seed 1
        def never(task):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness_mod, "_mc_chunk", never)
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError, match="seed must be an integer"):
            mc_accuracy(inst, "gse-fwg", 40, 8, seed, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("budget, replications, match", [
        (40.5, 8, "budget must be a positive integer"),
        (40, 6.5, "replications must be an integer, not 6.5"),
        (40, 8.0, "replications must be an integer, not 8.0"),
        (40, True, "replications must be an integer, not True"),
    ])
    def test_non_integer_budget_or_replications_rejected_before_any_replication(
            self, monkeypatch, budget, replications, match, workers):
        def never(task):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness_mod, "_mc_chunk", never)
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError, match=match):
            mc_accuracy(inst, "gse-fwg", budget, replications, 0, workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.9])
    def test_non_integer_workers_rejected_before_any_replication(
            self, monkeypatch, workers):
        def never(task):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness_mod, "_mc_chunk", never)
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError,
                           match=f"workers must be an integer, not {workers}"):
            mc_accuracy(inst, "gse-fwg", 40, 8, 0, workers=workers)

    def test_numpy_integer_workers_accepted(self):
        inst = noiseless(gen_static_instance(1.0, K=4))
        res = mc_accuracy(inst, "gse-fwg", 40, 3, 0, workers=np.int64(1))
        assert res.successes == 3

    def test_numpy_integer_budget_and_replications_accepted(self):
        inst = noiseless(gen_static_instance(1.0, K=4))
        res = mc_accuracy(inst, "gse-fwg", np.int64(40), np.int32(3), 0,
                          workers=1)
        assert (res.replications, res.successes) == (3, 3)

    def test_largest_seed_accepted(self):
        inst = noiseless(gen_static_instance(1.0, K=4))
        res = mc_accuracy(inst, "gse-fwg", 40, 3, 2 ** 32 - 1, workers=1)
        assert res.successes == 3

    def test_custom_variant_spec_accepted(self):
        inst = noiseless(gen_static_instance(1.0, K=4))
        spec = VariantSpec("mine", "uniform", "linear")
        res = mc_accuracy(inst, spec, 40, 3, 0, workers=1)
        assert res.successes == 3

    @pytest.mark.parametrize("budget, eta", [(0, 2.0), (40, 1.0), (40, 0.5)])
    def test_invalid_run_configuration_raises(self, budget, eta):
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError):
            mc_accuracy(inst, "gse-fwg", budget, 3, 0, eta=eta, workers=1)

    @pytest.mark.parametrize("spec", [VariantSpec("bad", "sgd"),
                                      VariantSpec("bad", "fw-g", "probit")])
    def test_invalid_custom_variant_raises(self, spec):
        inst = gen_static_instance(1.0, K=4)
        with pytest.raises(ConfigurationError):
            mc_accuracy(inst, spec, 40, 3, 0, workers=1)


def worker_pids():
    """Pids of this process's live multiprocessing children (reaps the dead)."""
    return {p.pid for p in multiprocessing.active_children()}


def gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def exited(pid):
    """True once ``pid`` has ended: gone, or a zombie its new parent has
    not reaped yet."""
    if gone(pid):
        return True
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def die_in_worker(parent_pid, rng):
    """A generator source that kills the worker process running it."""
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("ran in the test process, not in a worker")


POOL_FIXED = gen_static_instance(0.5, K=4, sigma2=4.0)
POOL_SOURCES = [
    pytest.param(POOL_FIXED, id="fixed"),
    pytest.param(family_source("sphere", {"K": 6, "d": 3}), id="generator"),
]


class TestKeptPool:
    """Pooled points share one pool per worker count."""

    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        harness_mod._drop_pool()
        yield
        harness_mod._drop_pool()

    @staticmethod
    def tally(source, workers):
        res = mc_accuracy(source, "gse-fwg", 40, 40, 9, workers=workers)
        return res.successes, res.aborts

    @pytest.mark.parametrize("source", POOL_SOURCES)
    def test_consecutive_calls_reuse_the_workers(self, source):
        serial = self.tally(source, 1)
        assert worker_pids() == set()
        assert self.tally(source, 2) == serial
        pids = worker_pids()
        assert len(pids) == 2
        assert self.tally(source, 2) == serial
        assert worker_pids() == pids

    @pytest.mark.parametrize("source", POOL_SOURCES)
    def test_a_new_worker_count_replaces_the_pool(self, source):
        serial = self.tally(source, 1)
        seen = []
        for workers in (2, 3, 2):
            assert self.tally(source, workers) == serial
            pids = worker_pids()
            assert len(pids) == workers
            for old in seen:
                assert not pids & old
                assert all(gone(pid) for pid in old)
            seen.append(pids)

    def test_a_worker_killed_between_calls_is_replaced(self):
        source = POOL_FIXED
        serial = self.tally(source, 1)
        self.tally(source, 2)
        pids = worker_pids()
        victim = min(pids)
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while victim in worker_pids():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert self.tally(source, 2) == serial
        assert not worker_pids() & pids

    def test_a_worker_killed_during_a_call_raises_then_a_fresh_pool_runs(self):
        source = POOL_FIXED
        serial = self.tally(source, 1)
        with pytest.raises(BrokenProcessPool):
            mc_accuracy(partial(die_in_worker, os.getpid()), "gse-fwg", 40, 8,
                        0, workers=2)
        assert harness_mod._pool is None
        assert self.tally(source, 2) == serial

    def test_a_forked_child_starts_its_own_pool(self):
        source = POOL_FIXED
        serial = self.tally(source, 1)
        self.tally(source, 2)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if self.tally(source, 2) == serial else 2
                harness_mod._drop_pool()
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                pytest.fail("the forked child did not finish")
            time.sleep(0.02)
            done, status = os.waitpid(pid, os.WNOHANG)
        assert os.waitstatus_to_exitcode(status) == 0
        assert self.tally(source, 2) == serial

    def test_only_a_pooled_point_imports_the_pool(self):
        script = (
            "import sys\n"
            "from fbbai.harness import mc_accuracy\n"
            "from fbbai.instances import gen_static_instance\n"
            "pool = ('multiprocessing', 'concurrent.futures')\n"
            "inst = gen_static_instance(0.5, K=4, sigma2=4.0)\n"
            "mc_accuracy(inst, 'gse-fwg', 40, 40, 9, workers=1)\n"
            "print(*[m in sys.modules for m in pool])\n"
            "mc_accuracy(inst, 'gse-fwg', 40, 40, 9, workers=2)\n"
            "print(*[m in sys.modules for m in pool])\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False False", "True True"]

    def test_the_kept_pool_is_closed_at_exit(self):
        # the script's hook is registered before fbbai's, so it runs after
        script = (
            "import atexit\n"
            "def report():\n"
            "    import fbbai.harness\n"
            "    print(fbbai.harness._pool is None)\n"
            "atexit.register(report)\n"
            "from fbbai.harness import mc_accuracy\n"
            "from fbbai.instances import gen_static_instance\n"
            "inst = gen_static_instance(0.5, K=4, sigma2=4.0)\n"
            "mc_accuracy(inst, 'gse-fwg', 40, 40, 9, workers=2)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["True"]
        assert "Exception ignored" not in proc.stderr

    def test_a_process_that_ran_a_pooled_point_exits_cleanly(self):
        script = (
            "import multiprocessing\n"
            "from fbbai.harness import mc_accuracy\n"
            "from fbbai.instances import gen_static_instance\n"
            "inst = gen_static_instance(0.5, K=4, sigma2=4.0)\n"
            "for _ in range(3):\n"
            "    res = mc_accuracy(inst, 'gse-fwg', 40, 40, 9, workers=2)\n"
            "print(res.successes, res.aborts)\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        tally, pids = proc.stdout.splitlines()
        source = POOL_FIXED
        assert tuple(map(int, tally.split())) == self.tally(source, 1)
        pids = [int(pid) for pid in pids.split()]
        assert len(pids) == 2
        assert all(gone(pid) for pid in pids)

    def test_workers_exit_when_their_owner_is_killed(self, tmp_path):
        # the owner runs one pooled point, records its workers and kills
        # itself; the orphaned workers must not outlive it (they would keep
        # its stdout open, so a capture of that output would never end)
        pid_file = tmp_path / "workers"
        script = (
            "import multiprocessing, os, signal, sys\n"
            "from fbbai.harness import mc_accuracy\n"
            "from fbbai.instances import gen_static_instance\n"
            "inst = gen_static_instance(0.5, K=4, sigma2=4.0)\n"
            "mc_accuracy(inst, 'gse-fwg', 40, 40, 9, workers=2)\n"
            "pids = [p.pid for p in multiprocessing.active_children()]\n"
            "with open(sys.argv[1], 'w') as f:\n"
            "    f.write(' '.join(map(str, pids)))\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        owner = subprocess.Popen([sys.executable, "-c", script, str(pid_file)],
                                 env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
        pids = []
        try:
            assert owner.wait(timeout=120) == -signal.SIGKILL
            pids = [int(pid) for pid in pid_file.read_text().split()]
            assert len(pids) == 2
            deadline = time.monotonic() + 10
            while not all(map(exited, pids)):
                assert time.monotonic() < deadline, "workers outlived the owner"
                time.sleep(0.05)
            assert owner.stdout.read() == b""  # every writer has closed it
        finally:
            for pid in pids:
                if not exited(pid):
                    os.kill(pid, signal.SIGKILL)
            owner.stdout.close()


def logistic_grid(K, gap):
    theta = np.zeros(K)
    theta[0] = gap
    return BanditInstance(features=np.eye(K), theta_star=theta, model="glm",
                          mean_fn=LOGISTIC, noise_sigma2=0.25, bernoulli=True)


class TestGoldenTallies:
    """Two fixed-instance points whose every stage is saturated, pinned bit
    for bit: the ``mc_accuracy`` tally, and a digest of the first 60
    replications' runs (every stage's counts, estimate bytes and
    survivors) on the harness's streams in one lockstep batch.  The values
    were recorded with per-job projection, draws and cuts (the logistic
    grid's on lone runs), so they hold the stacked stage kernels to the
    lone ones."""

    @pytest.mark.parametrize("family, make, budget, R, model, tally, digest", [
        ("static", lambda: gen_static_instance(1.0, K=16, sigma2=10.0), 2000,
         400, "linear", 378, "c32f6f247b625cfb"),
        ("grid", lambda: logistic_grid(16, 0.75), 480, 300, "logistic", 226,
         "5d2750755009d14c"),
    ], ids=["static", "logistic-grid"])
    def test_recorded_tally_and_runs(self, family, make, budget, R, model,
                                     tally, digest):
        inst = make()
        res = mc_accuracy(inst, "gse-fwg", budget, R, 7, family=family,
                          workers=1)
        assert (res.successes, res.aborts) == (tally, 0)
        jobs = []
        for r in range(60):
            _, run_ss = rep_seed(7, family, "gse-fwg", budget, r).spawn(2)
            jobs.append((inst, GseConfig(budget, model=model),
                         np.random.default_rng(run_ss)))
        h = hashlib.sha256()
        for run in gse_lockstep(jobs):
            h.update(repr(run.recommended).encode())
            for t in run.traces:
                h.update(t.counts.tobytes())
                h.update(t.mu_hat.tobytes())
                h.update(repr(t.survivors).encode())
        assert h.hexdigest()[:16] == digest

    @pytest.mark.parametrize("family, params, variant, budget, model, tally, digest", [
        ("sphere", {"K": 32, "d": 10}, "gse-fwg", 1280, "linear", 18,
         "71c09f762b12452b"),
        ("sphere", {"K": 32, "d": 10}, "gse-uniform", 100, "linear", 6,
         "52568709122acf27"),
        ("logistic", {"K": 16, "d": 5}, "gse-uniform", 40, "logistic", 18,
         "d60bcbe7cdbb1f7a"),
    ], ids=["sphere-fwg", "sphere-uniform", "logistic-uniform"])
    def test_recorded_generator_points(self, family, params, variant, budget,
                                       model, tally, digest):
        """Generator families: a new instance per replication, fitted
        stages (m > d_t), and under uniform counts of fewer than m pulls,
        arms with no pull.  The tally and a digest of all 50 runs were
        recorded with per-job draws (``sample_rewards``; for Bernoulli
        rewards one ``rng.binomial`` per job and stage, checked against
        lone runs) and each replication's streams spawned from
        ``rep_seed``."""
        source = family_source(family, params)
        res = mc_accuracy(source, variant, budget, 50, 7, family=family,
                          workers=1)
        assert (res.successes, res.aborts) == (tally, 0)
        config = GseConfig(budget, strategy=VARIANTS[variant].strategy,
                           model=model)
        jobs = []
        for r in range(50):
            inst_ss, run_ss = rep_seed(7, family, variant, budget, r).spawn(2)
            jobs.append((source(np.random.default_rng(inst_ss)), config,
                         np.random.default_rng(run_ss)))
        h = hashlib.sha256()
        for run in gse_lockstep(jobs):
            h.update(repr(run.recommended).encode())
            for t in run.traces:
                h.update(t.counts.tobytes())
                h.update(t.mu_hat.tobytes())
                h.update(repr(t.survivors).encode())
        assert h.hexdigest()[:16] == digest

    def test_recorded_logistic_fits(self):
        """A Bernoulli-logistic K = 32, d = 5 point whose stages of 32, 16
        and 8 arms are fitted by IRLS.  The tally and a digest of all 50
        runs, with every stage's fit flags, were recorded with the fits
        made job by job, on lone runs."""
        budget = 100
        source = family_source("logistic", {"K": 32, "d": 5})
        res = mc_accuracy(source, "gse-fwg", budget, 50, 7, family="logistic",
                          workers=1)
        assert (res.successes, res.aborts) == (12, 0)
        config = GseConfig(budget, strategy="fw-g", model="logistic")
        jobs = []
        for r in range(50):
            inst_ss, run_ss = rep_seed(7, "logistic", "gse-fwg", budget, r).spawn(2)
            jobs.append((source(np.random.default_rng(inst_ss)), config,
                         np.random.default_rng(run_ss)))
        h = hashlib.sha256()
        for run in gse_lockstep(jobs):
            h.update(repr(run.recommended).encode())
            for t in run.traces:
                h.update(t.counts.tobytes())
                h.update(t.mu_hat.tobytes())
                h.update(repr(t.survivors).encode())
                h.update(repr((t.estimator_converged, t.estimator_iterations,
                               t.used_fallback)).encode())
        assert h.hexdigest()[:16] == "e44d15f080f87641"


class TestReplicationStreams:
    def test_streams_are_the_spawned_children_of_rep_seed(self, monkeypatch):
        """A replication's instance and run streams are the ``spawn(2)``
        children of its ``rep_seed``, however the harness builds them."""
        seen, runs = [], []

        def source(rng):
            seen.append(rng.bit_generator.state)
            return gen_logistic_instance(4, 2, rng)

        lockstep = harness_mod.gse_lockstep

        def recording(jobs, *args, **kwargs):
            runs.extend(rng.bit_generator.state for _, _, rng in jobs)
            return lockstep(jobs, *args, **kwargs)

        monkeypatch.setattr(harness_mod, "gse_lockstep", recording)
        mc_accuracy(source, "gse-fwg", 40, 5, 11, family="rec", workers=1)
        assert len(seen) == len(runs) == 5
        for r in range(5):
            inst_ss, run_ss = rep_seed(11, "rec", "gse-fwg", 40, r).spawn(2)
            assert seen[r] == np.random.default_rng(inst_ss).bit_generator.state
            assert runs[r] == np.random.default_rng(run_ss).bit_generator.state


    @pytest.mark.parametrize("key", [0, 1])
    def test_multi_word_point_streams_match_seed_sequence_children(self, key):
        # 0 is one word, 2**32 + 5 two and 2**64 three: seven words in all
        point = [0, 2**32 - 1, 2**32 + 5, 2**64]
        reps = [0, 2**32 - 1, 2**32 + 5]
        got = harness_mod._streams(harness_mod._point_pool(point), reps, key)
        for rng, rep in zip(got, reps):
            want = np.random.default_rng(
                np.random.SeedSequence(point + [rep], spawn_key=(key,)))
            assert rng.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("key", [0, 1])
    @pytest.mark.parametrize("rep", [0, 2**32 - 1, 2**32 + 5])
    @pytest.mark.parametrize("master", [0, 2**32 - 1])
    def test_chunk_streams_match_rep_seed_on_edge_entropy(self, master, rep,
                                                          key):
        # 2**32 + 5 is the first index of two words
        point = harness_mod._point_entropy(master, "edge", "gse-fwg", 40)
        (got,) = harness_mod._streams(harness_mod._point_pool(point), [rep],
                                      key)
        child = rep_seed(master, "edge", "gse-fwg", 40, rep).spawn(2)[key]
        assert got.bit_generator.state == \
            np.random.default_rng(child).bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(point=st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=9),
           reps=st.lists(st.sampled_from([0, 1, 2**32 - 1, 2**32 + 5,
                                          2**40 + 3]),
                         min_size=1, max_size=6),
           key=st.sampled_from([0, 1]))
    def test_batch_streams_match_seed_sequence_children(self, point, reps,
                                                        key):
        """Any point words (tokens of one word included), indices of one
        and two words, mixed in one batch, and either key."""
        got = harness_mod._streams(harness_mod._point_pool(point), reps, key)
        assert len(got) == len(reps)
        for rng, rep in zip(got, reps):
            want = np.random.default_rng(
                np.random.SeedSequence(point + [rep], spawn_key=(key,)))
            assert rng.bit_generator.state == want.bit_generator.state
            assert rng.integers(0, 2**63, 4).tolist() == \
                want.integers(0, 2**63, 4).tolist()


class TestBenchTracer:
    """``bench/tracer.py`` patches package functions by name, so a refactor
    that removes one of those names must fail here, not only in the
    benchmark's smoke test."""

    def test_install_run_and_uninstall_around_a_point(self):
        path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer_mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_mod)
        owners = (harness_mod, DesignCache, tracer_mod.gse, tracer_mod.cli)

        def names():
            return [{name: getattr(owner, name) for name in vars(owner)
                     if not name.startswith("__")} for owner in owners]

        before = names()
        design = vars(DesignCache)["design"]
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            res = harness_mod.mc_accuracy(gen_static_instance(1.0, K=4), "gse-fwg",
                                          40, 6, 0, workers=1)
        finally:
            tracer.uninstall()
            DesignCache.design = design  # uninstall restores the bare function
        assert (res.replications, res.aborts) == (6, 0)
        assert tracer.totals().calls["harness.point"] == 1
        assert names() == before


class TestFamilySource:
    def test_fixed_families_return_instances(self):
        assert isinstance(family_source("adaptive", {"d": 4}), BanditInstance)
        assert isinstance(family_source("static", {"delta": 1.0}), BanditInstance)

    def test_randomized_families_return_generators(self):
        src = family_source("sphere", {"K": 6, "d": 3})
        assert callable(src)
        inst = src(np.random.default_rng(0))
        assert inst.n_arms == 6 and inst.dim == 3

    def test_corner_generator_accepts_sigma(self):
        src = family_source("corner", {"K": 5, "sigma2": 2.0})
        assert src(np.random.default_rng(1)).noise_sigma2 == 2.0

    def test_csv_family_loads_the_files(self, tmp_path):
        arms = tmp_path / "arms.csv"
        arms.write_text("x1,x2\n1,0\n0,1\n0.6,0.8\n")
        theta = tmp_path / "theta.txt"
        theta.write_text("0.5 1.0\n")
        params = dict(features_path=str(arms), theta_path=str(theta),
                      model="glm", sigma2=0.5, bernoulli=True)
        got = family_source("csv", params)
        want = load_instance_csv(**params)
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.theta_star, want.theta_star)
        assert (got.model, got.mean_fn.name, got.noise_sigma2, got.bernoulli,
                got.name) == (want.model, want.mean_fn.name,
                              want.noise_sigma2, want.bernoulli, want.name)

    @pytest.mark.parametrize("family, params, message", [
        ("static", {"bogus": 1}, "family 'static' takes no parameter 'bogus'"),
        ("adaptive", {}, "family 'adaptive' needs parameter 'd'"),
        ("sphere", {"K": 4}, "family 'sphere' needs parameter 'd'"),
        ("sphere", {"K": 4, "d": 3, "rng": 1},
         "family 'sphere' takes no parameter 'rng'"),
        ("csv", {}, "family 'csv' needs parameter 'features_path'"),
        ("corner", {"K": 5, "d": 3}, "family 'corner' takes no parameter 'd'"),
    ])
    def test_unknown_or_missing_parameter_rejected(self, family, params,
                                                   message):
        with pytest.raises(ConfigurationError) as excinfo:
            family_source(family, params)
        assert str(excinfo.value) == message

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            family_source("pyramid", {})

    def test_parameters_are_the_builders_less_rng(self):
        assert list(FAMILIES) == ["adaptive", "static", "sphere", "logistic",
                                  "corner", "csv"]
        assert {family: family_parameters(family) for family in FAMILIES} == {
            "adaptive": {"d": True, "omega": False, "sigma2": False},
            "static": {"delta": True, "K": False, "sigma2": False},
            "sphere": {"K": True, "d": True, "sigma2": False},
            "logistic": {"K": True, "d": True},
            "corner": {"K": True, "sigma2": False},
            "csv": {"features_path": True, "theta_path": True,
                    "model": False, "sigma2": False, "bernoulli": False},
        }
        with pytest.raises(ConfigurationError, match="unknown family 'pyramid'"):
            family_parameters("pyramid")

    @pytest.mark.parametrize("family, params, draw", [
        ("sphere", {"K": 6, "d": 3}, lambda rng: gen_sphere_instance(6, 3, rng)),
        ("sphere", {"K": 6, "d": 3, "sigma2": 2.0},
         lambda rng: gen_sphere_instance(6, 3, rng, sigma2=2.0)),
        ("logistic", {"K": 5, "d": 4},
         lambda rng: gen_logistic_instance(5, 4, rng)),
        ("corner", {"K": 5, "sigma2": 2.0},
         lambda rng: gen_corner_instance(5, rng, sigma2=2.0)),
    ])
    def test_generator_survives_pickling_and_draws_as_its_builder(
            self, family, params, draw):
        source = pickle.loads(pickle.dumps(family_source(family, params)))
        got = source(np.random.default_rng(11))
        want = draw(np.random.default_rng(11))
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.theta_star, want.theta_star)
        assert (got.model, got.noise_sigma2, got.bernoulli, got.name) == (
            want.model, want.noise_sigma2, want.bernoulli, want.name)

    def test_generator_calls_the_builder_patched_after_it_was_built(
            self, monkeypatch):
        source = family_source("sphere", {"K": 6, "d": 3})
        calls = []

        def patched(*args, **kwargs):
            calls.append(1)
            return gen_sphere_instance(*args, **kwargs)

        monkeypatch.setattr(harness_mod, "gen_sphere_instance", patched)
        assert source(np.random.default_rng(0)).n_arms == 6
        assert calls == [1]

    def test_generator_does_not_follow_the_callers_dict(self):
        params = {"K": 6, "d": 3}
        source = family_source("sphere", params)
        params["K"] = 1
        assert source(np.random.default_rng(0)).n_arms == 6


class TestBoundForSource:
    def test_linear_instance_uses_the_linear_bound(self):
        inst = gen_static_instance(1.0, K=4)
        expected = bound_linear_gopt(BoundInputs(
            K=4, d=4, eta=2.0, sigma2=10.0, delta_min=1.0, budget=200))
        assert bound_for_source(inst, 200, 2.0) == expected

    def test_glm_instance_uses_the_glm_bound_with_the_oracle_floor(self):
        inst = gen_logistic_instance(6, 3, np.random.default_rng(8))
        expected = bound_glm_gopt(BoundInputs(
            K=6, d=3, eta=2.0, sigma2=0.25,
            delta_min=inst.linear_delta_min, budget=500,
            c_min=oracle_c_min(inst)))
        assert bound_for_source(inst, 500, 2.0) == expected

    def test_recorded_values(self):
        # recorded before the bound forms shared one kernel
        static = gen_static_instance(1.0, K=4)
        logistic = gen_logistic_instance(6, 3, np.random.default_rng(8))
        assert bound_for_source(static, 200, 2.0) == 1.0
        assert bound_for_source(static, 2000, 2.0) == 0.015443633089821674
        assert bound_for_source(static, 4000, 1.5) == 0.006846181313398207
        assert bound_for_source(logistic, 500, 2.0) == 1.0
        assert bound_for_source(logistic, 50000, 2.0) == 1.0804144336357086e-05

    def test_generator_source_has_no_single_bound(self):
        src = family_source("sphere", {"K": 6, "d": 3})
        assert math.isnan(bound_for_source(src, 100, 2.0))

    def test_tied_best_arm_gives_nan(self):
        inst = BanditInstance(features=np.array([[1.0, 0.0], [1.0, 0.0],
                                                 [0.0, 1.0]]),
                              theta_star=np.array([1.0, 0.0]))
        assert math.isnan(bound_for_source(inst, 100, 2.0))


class TestPresets:
    def test_catalog_names(self):
        assert set(PRESETS) == {"adaptive", "static", "sphere", "logistic",
                                "corner"}

    def test_grid_sizes(self):
        sizes = {name: len(p.points) for name, p in PRESETS.items()}
        assert sizes == {"adaptive": 16, "static": 20, "sphere": 12,
                         "logistic": 24, "corner": 12}

    def test_default_replication_count(self):
        assert all(p.default_replications == 1000 for p in PRESETS.values())

    def test_sphere_budget_scales_with_arm_count(self):
        for point in PRESETS["sphere"].points:
            assert point.budget == 40 * point.params["K"]

    def test_logistic_grid_labels_carry_the_dimension(self):
        labels = {p.family_label for p in PRESETS["logistic"].points}
        assert labels == {"logistic-d5", "logistic-d7", "logistic-d10",
                          "logistic-d12"}

    def test_every_variant_name_is_known(self):
        for preset in PRESETS.values():
            for point in preset.points:
                assert point.variant in VARIANTS


class TestRunPointAndPreset:
    def test_run_point_populates_the_row(self):
        point = PRESETS["static"].points[0]
        row = run_point(point, replications=5, seed=2, workers=1)
        assert row.family == "static" and row.variant == point.variant
        assert row.R == 5 and 0 <= row.successes <= 5
        assert row.accuracy == pytest.approx(row.successes / 5)
        assert row.wall_time_s >= 0.0
        assert not math.isnan(row.bound_delta)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            run_preset("galaxy")

    def test_rerun_is_byte_identical_without_wall_time(self):
        a = run_preset("corner", replications=2, seed=3, workers=1)
        b = run_preset("corner", replications=2, seed=3, workers=1)
        assert (format_csv(a.rows, include_wall_time=False)
                == format_csv(b.rows, include_wall_time=False))


def sample_row(**overrides):
    base = dict(family="static", variant="gse-fwg", param_name="budget",
                param_value=40.0, R=3, successes=1, accuracy=1.0 / 3.0,
                stderr=0.27216552697590873, bound_delta=float("nan"),
                aborts=0, wall_time_s=0.125)
    base.update(overrides)
    return SweepRow(**base)


class TestFormats:
    def test_csv_header_and_float_formatting(self):
        text = format_csv([sample_row()])
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        assert cells[6] == "0.333333333333"  # twelve significant digits
        assert cells[8] == ""  # NaN bound renders as an empty cell

    def test_wall_time_column_is_excludable(self):
        text = format_csv([sample_row()], include_wall_time=False)
        lines = text.strip().split("\n")
        assert lines[0].endswith("aborts")
        assert len(lines[1].split(",")) == len(CSV_COLUMNS) - 1

    def test_json_uses_null_for_nan(self):
        parsed = json.loads(format_json([sample_row()]))
        assert parsed[0]["bound_delta"] is None
        assert parsed[0]["successes"] == 1

    def test_csv_roundtrip_through_files(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, [sample_row(bound_delta=0.25)])
        with open(path, newline="", encoding="utf-8") as fh:
            back = list(csv.DictReader(fh))
        assert back[0]["bound_delta"] == "0.25"
        assert back[0]["family"] == "static"
