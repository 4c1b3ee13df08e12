"""parallel.fork_map, the package's one parallel route, and the process count it picks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdee
from mdee import parallel

SRC = str(Path(mdee.__file__).resolve().parents[1])
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def no_child_left():
    with pytest.raises(ChildProcessError):  # no child of this process, running or a zombie
        os.waitpid(-1, os.WNOHANG)
    return True


def test_the_suite_runs_one_thread():
    # tests/conftest.py pins BLAS before numpy loads. A plugin that imported numpy first would leave OpenBLAS's
    # threads running, and every trial and oracle loop of the suite would run in this one process.
    assert parallel._threads() == 1
    assert parallel.process_count(8) == min(parallel.usable_cpus(), 8)


def set_cpus(monkeypatch, count: int) -> None:
    """Give this process `count` usable CPUs and let it fork as a process of one thread would."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: count)
    monkeypatch.setattr(parallel, "_threads", lambda: 1)


class TestForkMap:
    @pytest.mark.parametrize("processes", [1, 2, 3, 8])
    def test_results_come_back_in_job_order(self, processes, monkeypatch):
        set_cpus(monkeypatch, processes)
        results = parallel.fork_map(lambda i: (i * i, os.getpid()), 11)
        assert [value for value, _ in results] == [i * i for i in range(11)]
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid()
        assert all(pids[i] == pids[i % processes] for i in range(11))  # job i runs in process i % processes
        assert len(set(pids)) == processes
        assert no_child_left()

    @pytest.mark.parametrize("processes", [1, 2, 3, 8])
    def test_each_process_runs_its_jobs_in_increasing_order(self, processes, monkeypatch):
        # oracle._population_pass advances one generator per process and relies on this order
        set_cpus(monkeypatch, processes)
        ran = []  # each process appends to its own copy

        def job(i):
            ran.append(i)
            return list(ran)

        results = parallel.fork_map(job, 11)
        for i, seen in enumerate(results):
            assert seen == list(range(i % processes, i + 1, processes))
        assert no_child_left()

    def test_at_most_one_process_per_job(self, monkeypatch):
        set_cpus(monkeypatch, 8)
        pids = parallel.fork_map(lambda i: os.getpid(), 2)
        assert pids[0] == os.getpid() and len(set(pids)) == 2
        assert no_child_left()

    def test_no_jobs_fork_nothing(self, monkeypatch):
        set_cpus(monkeypatch, 8)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for no jobs"))
        assert parallel.fork_map(lambda i: i, 0) == []
        assert no_child_left()

    def test_a_child_stops_once_its_parent_is_gone(self):
        assert parallel._run_share(lambda i: i, range(3), parent=os.getppid()) == ([0, 1, 2], None)
        assert parallel._run_share(lambda i: i, range(3), parent=-1) == ([], None)


class TestProcessCount:
    @pytest.mark.parametrize("cpus, jobs, count", [(1, 5, 1), (2, 5, 2), (8, 5, 5), (3, 0, 1)])
    def test_one_per_cpu_and_at_most_one_per_job(self, cpus, jobs, count, monkeypatch):
        set_cpus(monkeypatch, cpus)
        assert parallel.process_count(jobs) == count


def python(code: str, **env: str) -> str:
    """Run code in a fresh interpreter with the BLAS variables unset but for `env`; its stdout."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**base, **env, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestEntryModule:
    """The `mdee` command pins BLAS to one thread where the caller left it unset; the library does not."""

    PRINT = "import os; from mdee import parallel; print([os.environ.get(v) for v in {!r}], parallel._threads())"

    def test_the_command_pins_unset_variables_and_runs_one_thread(self):
        assert python("import mdee.__main__; " + self.PRINT.format(BLAS_VARIABLES)) == "['1', '1', '1'] 1"

    def test_the_command_keeps_a_value_the_caller_set(self):
        printed = python("import mdee.__main__; " + self.PRINT.format(BLAS_VARIABLES), OMP_NUM_THREADS="2")
        assert printed.startswith("['1', '2', '1'] ")

    def test_the_library_keeps_the_environment(self):
        assert python("import mdee.cli; " + self.PRINT.format(BLAS_VARIABLES)).startswith("[None, None, None] ")

    def test_python_m_mdee_runs_the_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mdee", "oracle", "--theorem", "2", "--d", "0"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["mdee: error: oracle needs 1 <= d < n, got d=0, n=20"]
