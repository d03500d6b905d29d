"""The fork pool behind ``--jobs`` above 1; only a run that forks loads it."""

import os
import pickle

from .exact import VerificationFailed

# A task token is a 4-byte run number.  POSIX guarantees that a pipe holds
# PIPE_BUF = 4096 bytes, so up to 1024 tokens go into the task pipe before
# the first fork without blocking; past 1024 cases a run spans several.
_TOKEN_BYTES = 4
_MAX_TOKENS = 1024


def _work_runs(worker, items, bounds, tasks) -> dict:
    """Take tokens from the task pipe until it is empty and run every case of
    each token's run, failed or not: {index: (True, result) or (False, error)}."""
    results = {}
    while len(token := os.read(tasks, _TOKEN_BYTES)) == _TOKEN_BYTES:
        run = int.from_bytes(token, "little")
        for index in reversed(range(bounds[run], bounds[run + 1])):
            try:
                results[index] = (True, worker(items[index]))
            except Exception as error:
                results[index] = (False, error)
    return results


def _run_parallel(worker, items, workers, first=0):
    """``[worker(item) for item in items]`` on ``workers`` processes, at most
    one per item; ``cases.run_cases`` chooses how many and when to fork.

    The parent is one worker and forks the others (the CLI runs no thread
    that a fork would leave behind).  Every process takes tokens from one
    task pipe, largest index first, and runs all the cases it takes, so the
    lowest failing index is always seen.  A child pickles its
    results to its own pipe and ends with ``os._exit``, never flushing the
    parent's stdio buffers.  The results are merged in item order and the
    first failure is raised, as a serial run raises it; a case that no
    process returned (its worker died) fails with the children's wait
    statuses, named by its index over the whole run: ``first`` cases ran
    before these.
    """
    workers = min(workers, len(items))
    runs = min(len(items), _MAX_TOKENS)
    bounds = [run * len(items) // runs for run in range(runs + 1)]
    tasks, feed = os.pipe()
    os.write(feed, b"".join(run.to_bytes(_TOKEN_BYTES, "little")
                            for run in reversed(range(runs))))
    os.close(feed)
    pids, inboxes = [], []
    try:
        for _ in range(workers - 1):
            inbox, outbox = os.pipe()
            inboxes.append(inbox)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in inboxes:
                        os.close(fd)
                    with open(outbox, "wb") as out:
                        pickle.dump(_work_runs(worker, items, bounds, tasks), out,
                                    pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(outbox)
        results = _work_runs(worker, items, bounds, tasks)
        sent = []
        for inbox in inboxes:
            with open(inbox, "rb", closefd=False) as stream:
                sent.append(stream.read())
    finally:
        # on an early exit, take the tokens left so the children stop after
        # their current case, and close the result pipes so none blocks
        while os.read(tasks, _TOKEN_BYTES * _MAX_TOKENS):
            pass
        os.close(tasks)
        for inbox in inboxes:
            os.close(inbox)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for data, status in zip(sent, statuses):
        if status == 0:
            results.update(pickle.loads(data))
    merged = []
    for index in range(len(items)):
        if index not in results:
            raise VerificationFailed(
                f"case {first + index} has no result: worker process wait statuses "
                f"{', '.join(map(str, statuses))}")
        ok, value = results[index]
        if not ok:
            raise value
        merged.append(value)
    return merged
