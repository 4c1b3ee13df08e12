"""Forked processes: the package's one way to spread work over the CPUs.

`fork_map` runs numbered jobs in this process and forked children and gives
their results back in job order, over as many processes as `process_count`
says. The trials (`harness.run_experiment`) and the oracles' loops run
through it. This module imports neither the harness nor SciPy.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback


def usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads() -> int:
    """This process's thread count, as /proc/self/status reads it; 0 where that cannot be read."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def process_count(jobs: int) -> int:
    """How many processes `fork_map` spreads `jobs` jobs over: one per usable CPU, at most one per job.

    It forks only on Linux and only from a process of one thread: forking a
    threaded process is unsafe, and a BLAS left to start its own threads
    would fight the children for the CPUs. Otherwise the jobs run here.
    """
    if sys.platform != "linux" or not hasattr(os, "fork") or _threads() != 1:
        return 1
    return max(1, min(usable_cpus(), jobs))


def _run_share(job, share: range, parent: int | None = None) -> tuple[list, tuple | None]:
    """job(i) for i in share, in order, until one raises: the results so far and (i, exception) of that one.

    With `parent`, it also stops before any job once that process is gone.
    """
    done = []
    for i in share:
        if parent is not None and os.getppid() != parent:
            break
        try:
            done.append(job(i))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started without the descriptor
            stream.flush()


def _child_share(job, share: range, pipe: int, parent: int) -> None:
    """A forked child's side of `fork_map`: run its share, send one pickle down `pipe`, and leave by os._exit."""
    status = 1
    try:
        done, failed = _run_share(job, share, parent)
        if failed is not None:
            i, exc = failed
            lines = traceback.format_exception(type(exc), exc, exc.__traceback__)  # the traceback does not pickle
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception that cannot make the trip reaches the caller as its text
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            failed = i, exc, lines
        payload = pickle.dumps((done, failed))
        _flush_std_streams()
        with open(pipe, "wb") as out:
            out.write(payload)
        status = 0
    finally:
        os._exit(status)


def fork_map(job, count: int) -> list:
    """[job(i) for i in range(count)], job i run by process i % processes: this one and processes - 1 forked children.

    It picks `processes` itself, as `process_count(count)`. Each child sends
    its results, or those before its first failing job and that job's
    exception, in one pickle down its own pipe, and stops between jobs once
    this process is gone. Every process stops at its first failing job, and
    the exception raised is the lowest job's, the one a serial loop would
    raise. Every child is reaped before this returns or raises, and killed
    first if this process fails on its own or is interrupted.
    """
    processes = process_count(count)
    results = [None] * count
    children = {}  # pid -> (its share's first job, read end of its pipe)
    failures = []  # (job index, exception, traceback lines from a child or None)
    try:
        for k in range(1, processes):
            read_end, write_end = os.pipe()
            _flush_std_streams()  # so a child's flush repeats nothing of ours
            pid = os.fork()
            if pid == 0:
                for fd in [read_end] + [end for _, end in children.values()]:
                    os.close(fd)
                _child_share(job, range(k, count, processes), write_end, os.getppid())
            children[pid] = k, read_end
            os.close(write_end)
        done, failed = _run_share(job, range(0, count, processes))
        results[0 : len(done) * processes : processes] = done
        if failed:
            failures.append(failed + (None,))
        for pid, (k, read_end) in children.items():
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            if not payload:
                raise RuntimeError(f"child process {pid} ended without sending its results")
            done, failed = pickle.loads(payload)
            results[k : k + len(done) * processes : processes] = done
            if failed:
                failures.append(failed)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, (_, read_end) in children.items():
            os.close(read_end)
            os.waitpid(pid, 0)
    if failures:
        _, exc, lines = min(failures, key=lambda failure: failure[0])
        if lines:
            raise exc from RuntimeError("raised in a child process:\n" + "".join(lines))
        raise exc
    return results
