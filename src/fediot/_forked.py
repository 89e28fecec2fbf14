"""Jobs dealt across forked worker processes, results back in job order.

The harness imports this module only when a repetition's cells run on more
than one CPU, so a run that forks nothing does not compile or import it.
"""
from __future__ import annotations

import os
import pickle
import signal
import traceback


class _WorkerTraceback(Exception):
    """The traceback of an error raised in a forked worker, chained to it."""


def deal(run, jobs: list, workers: int) -> list:
    """[run(job) for job in jobs], run by workers processes.

    Worker w runs jobs w, w + workers, w + 2 * workers, ... in order. The
    calling process is worker 0 and runs its share itself; the others are
    forked on entry, read whatever run reads from the memory they share with
    the caller (nothing is pickled on the way in), and send their results
    back pickled through a pipe. Each worker stops at its first failing job,
    and the error of the lowest failing job is raised, as a serial loop
    would raise it. A worker that ends without sending its results raises
    RuntimeError naming its jobs. A child leaves through os._exit, so it
    never unwinds the caller's frames (which would delete a staging bundle),
    and every child is reaped on every path, an interrupt included.
    """

    def share(w: int):
        # Worker w's results in order, and its first failure as (job, error, traceback) or None.
        done = []
        for i in range(w, len(jobs), workers):
            try:
                done.append(run(jobs[i]))
            except Exception as exc:
                return done, (i, exc, None if w == 0 else "".join(traceback.format_exception(exc)))
        return done, None

    outcomes, crashes = {}, []
    children = {}  # pid -> (worker, read end of its pipe), until reaped
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pickle.dump(share(w), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children[pid] = (w, open(read, "rb"))
        outcomes[0] = share(0)
        for pid, (w, pipe) in list(children.items()):
            with pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            try:
                outcomes[w] = pickle.loads(payload)
            except (EOFError, pickle.UnpicklingError):
                how = f"was killed by {signal.Signals(-status).name}" if status < 0 else f"exited with {status}"
                crashes.append(f"cell worker {w} (jobs {list(range(w, len(jobs), workers))}) "
                               f"{how} before it sent its results")
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if crashes:
        raise RuntimeError("; ".join(crashes))
    failures = [failure for _, failure in outcomes.values() if failure is not None]
    if failures:
        _, exc, remote = min(failures, key=lambda failure: failure[0])
        if remote is not None:
            raise exc from _WorkerTraceback(remote)
        raise exc
    results = [None] * len(jobs)
    for w, (done, _) in outcomes.items():
        results[w::workers] = done
    return results
