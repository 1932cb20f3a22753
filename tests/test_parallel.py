import json
import os
import pickle
import re
import time

import pytest

from fundlens.errors import ConfigError, FundlensError, ShapeError
import fundlens.parallel as parallel_module
from fundlens.parallel import parallel_map


def _square(x):
    return x * x


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs, counted by a wrapper round os.fork."""
    pids = []
    real = os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield pids
    for pid in pids:  # every child was reaped
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_parallel_map_keeps_task_order_and_caps_workers(forks, monkeypatch):
    tasks = [3, 1, 4, 1, 5]
    for jobs in (1, 2, 3, 8):
        assert parallel_map(_square, tasks, jobs=jobs) == [9, 1, 16, 1, 25]
    assert parallel_map(_square, [7], jobs=4) == [49]
    assert parallel_map(_square, [], jobs=2) == []
    # This process is one of the min(jobs, len(tasks)) workers: it forks the others, none for one.
    assert len(forks) == 0 + 1 + 2 + 4
    for jobs in (0, -1):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            parallel_map(_square, tasks, jobs=jobs)
    # A platform without os.fork runs the tasks serially.
    monkeypatch.delattr(os, "fork")
    assert parallel_map(_square, tasks, jobs=3) == [9, 1, 16, 1, 25]
    assert len(forks) == 7


def _slow_square(x):
    time.sleep(0.002 * (x % 4))
    return x * x, os.getpid()


def test_parallel_map_shares_tasks_between_processes_in_task_order(forks):
    out = parallel_map(_slow_square, list(range(60)), jobs=3)
    assert [square for square, _ in out] == [x * x for x in range(60)]
    ran = {pid for _, pid in out}
    assert os.getpid() in ran and len(ran) > 1 and ran <= {os.getpid(), *forks}
    # No task or result is stuck behind a full pipe: 20,000 results far exceed its 64 KiB.
    assert parallel_map(_square, range(20_000), jobs=3) == [x * x for x in range(20_000)]


def _fail_at_3_and_7(x):
    time.sleep(0.005)
    if x == 3:
        raise ShapeError("task 3", reason="three")
    if x == 7:
        raise ValueError("task 7")
    return x


def test_parallel_map_raises_the_error_the_serial_loop_raises(forks):
    for jobs in (1, 2, 3):
        with pytest.raises(ShapeError, match="^task 3$") as caught:
            parallel_map(_fail_at_3_and_7, list(range(12)), jobs=jobs)
        assert caught.value.reason == "three"


def _log_then_fail_at_2(x):
    with open(os.environ["FUNDLENS_TEST_STARTED"], "a", encoding="utf-8") as log:
        log.write(f"{x}\n")
    time.sleep(0.005)
    if x == 2:
        raise ValueError("task 2")
    return x


def test_parallel_map_starts_no_task_after_one_failed(forks, monkeypatch, tmp_path):
    started = tmp_path / "started"
    monkeypatch.setenv("FUNDLENS_TEST_STARTED", str(started))
    with pytest.raises(ValueError, match="^task 2$"):
        parallel_map(_log_then_fail_at_2, list(range(40)), jobs=2)
    # Tasks are taken in order, so those after 2 that started were taken before it failed.
    ran = sorted(int(line) for line in started.read_text().splitlines())
    assert ran[:3] == [0, 1, 2] and len(ran) < 10


class _Unreadable(Exception):
    """Pickles, but does not unpickle: its constructor needs two arguments."""

    def __init__(self, a, b):
        super().__init__(a)


def _misbehave_in_child(task):
    """Run by this process, return the index; run by a forked child, misbehave as asked."""
    parent, how, i = task
    time.sleep(0.01)
    if os.getpid() == parent:
        return i
    if how == "exit":
        os._exit(7)
    if how == "result":
        return lambda: i
    if how == "exception":
        raise ValueError(lambda: i)
    raise _Unreadable("a", "b")


@pytest.mark.parametrize("how, problem", [
    ("exit", r"got no result: worker process (\d+) ended early \(exit status 7\)"),
    ("result", r"worker process (\d+) could not send its result back \(PicklingError"),
    ("exception", r"worker process (\d+) could not send its result back \(PicklingError"),
    ("unreadable", r"worker process (\d+) could not send its result back \(TypeError"),
], ids=["exit", "result", "exception", "unreadable"])
def test_parallel_map_names_a_child_that_cannot_return_its_result(forks, how, problem):
    with pytest.raises(FundlensError, match=r"^task \d+:? " + problem) as caught:
        parallel_map(_misbehave_in_child, [(os.getpid(), how, i) for i in range(10)], jobs=2)
    assert int(re.search(problem, str(caught.value)).group(1)) == forks[0]


def test_decode_takes_no_pickle_or_a_cut_one_as_a_child_that_ended_early():
    sent = pickle.dumps([(1, parallel_module._RESULT, pickle.dumps(9)),
                         (2, parallel_module._RESULT, pickle.dumps(16))])
    for received in (b"", sent[:1], sent[:len(sent) // 2], sent[:-1]):
        outcomes = [None] * 3
        assert parallel_module._decode(received, 1234, outcomes) is False
        assert outcomes == [None] * 3
    outcomes = [None] * 3
    assert parallel_module._decode(sent, 1234, outcomes) is True
    assert outcomes == [None, (parallel_module._RESULT, 9), (parallel_module._RESULT, 16)]


def _record_place(cpus, k):
    with open(os.environ["FUNDLENS_TEST_PLACED"], "a", encoding="utf-8") as log:
        log.write(json.dumps([os.getpid(), k, cpus]) + "\n")


def test_parallel_map_places_this_process_first_and_child_k_kth(forks, monkeypatch, tmp_path):
    placed = tmp_path / "placed.jsonl"
    monkeypatch.setenv("FUNDLENS_TEST_PLACED", str(placed))
    monkeypatch.setattr(parallel_module, "_place", _record_place)
    parallel_map(_square, range(9), jobs=3)
    calls = sorted(json.loads(line) for line in placed.read_text().splitlines())
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    assert sorted((k, pid) for pid, k, _ in calls) == [(0, os.getpid()), (1, forks[0]), (2, forks[1])]
    assert all(c == cpus for _, _, c in calls)


@pytest.mark.parametrize("cpus", [[3], [0, 2, 5]])
def test_place_moves_process_k_to_its_cpu_then_gives_all_back(monkeypatch, cpus):
    calls = []
    monkeypatch.setattr(parallel_module.os, "sched_setaffinity", lambda pid, s: calls.append((pid, s)))
    for k in range(7):
        parallel_module._place(cpus, k)
    assert calls == [call for k in range(7)
                     for call in ((0, {cpus[k % len(cpus)]}), (0, cpus))]
    # with no CPU list (no sched_setaffinity on the platform) a process stays where it is
    calls.clear()
    parallel_module._place([], 0)
    assert calls == []


def _cpus(_):
    return os.sched_getaffinity(0)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_pool_workers_run_on_every_cpu_of_the_parent():
    # The move to a worker's own CPU is undone before any task runs.
    assert parallel_map(_cpus, range(6), jobs=2) == [os.sched_getaffinity(0)] * 6
