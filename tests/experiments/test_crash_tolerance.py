"""Worker-crash tolerance of the parallel runner.

Workers are hard-killed (``os._exit``) on command via one-shot ticket
files, so every test is deterministic: a task crashes exactly the
scripted number of times, across any process the pool schedules it on.
cpu_count is patched to 2 so a 1-CPU CI machine still exercises a real
pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import WorkerCrashError
from repro.experiments import parallel as parallel_module
from repro.experiments.parallel import parallel_map_stream


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 2)


def _scripted(item):
    """Crash the hosting worker ``crashes`` times, then compute.

    ``item`` is ``(value, crashes, state_dir)``.  Each crash claims an
    exclusive ticket file, so the budget holds across every process
    that ever picks the task up — exactly the discipline
    :mod:`repro.faults` uses for ``worker.crash``.
    """
    value, crashes, state_dir = item
    for ticket in range(crashes):
        path = os.path.join(state_dir, f"crash-{value}-{ticket}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        os._exit(23)
    return value * 10


def _items(tmp_path, crashes_by_value):
    return [(value, crashes, str(tmp_path))
            for value, crashes in crashes_by_value]


class TestCrashRetry:
    def test_single_crash_is_retried_to_completion(self, tmp_path):
        items = _items(tmp_path, [(0, 0), (1, 1), (2, 0), (3, 0)])
        retried = []
        result = parallel_map_stream(_scripted, items, jobs=2,
                                     chunksize=2,
                                     on_retry=retried.append)
        assert result == [0, 10, 20, 30]
        # At least the crashing task was retried; chunk-mates that
        # were in flight on the dead worker may ride along.
        assert any(item[0] == 1 for item in retried)

    def test_callback_fires_exactly_once_per_task(self, tmp_path):
        items = _items(tmp_path, [(v, 1 if v == 2 else 0)
                                  for v in range(6)])
        seen = []
        result = parallel_map_stream(
            _scripted, items, jobs=2, chunksize=3,
            callback=lambda item, value: seen.append(item[0]))
        assert result == [v * 10 for v in range(6)]
        assert sorted(seen) == list(range(6))

    def test_repeat_offender_is_poisoned_and_rest_completes(self, tmp_path):
        # Value 1 crashes every worker it ever touches (far beyond the
        # retry budget); everything else must still complete.
        items = _items(tmp_path, [(0, 0), (1, 99), (2, 0), (3, 0)])
        poisoned = []
        result = parallel_map_stream(
            _scripted, items, jobs=2, chunksize=1, crash_retries=1,
            on_poison=lambda item, error: poisoned.append((item, error)))
        assert result == [0, None, 20, 30]
        assert [item[0] for item, _ in poisoned] == [1]
        assert isinstance(poisoned[0][1], WorkerCrashError)
        assert "quarantined" in str(poisoned[0][1])

    def test_poison_without_handler_raises(self, tmp_path):
        items = _items(tmp_path, [(0, 0), (1, 99)])
        with pytest.raises(WorkerCrashError):
            parallel_map_stream(_scripted, items, jobs=2, chunksize=1,
                                crash_retries=1)

    def test_innocent_bystander_survives_isolation(self, tmp_path):
        # Two tasks chunked together; only one of them crashes (more
        # rounds than the retry budget).  The bystander shares every
        # suspect round but must be cleared by its isolated run.
        items = _items(tmp_path, [(1, 3), (2, 0)])
        poisoned = []
        result = parallel_map_stream(
            _scripted, items, jobs=2, chunksize=2, crash_retries=1,
            on_poison=lambda item, error: poisoned.append(item[0]))
        assert result[1] == 20  # the bystander's real result
        assert 2 not in poisoned

    def test_task_exception_propagates_not_retried(self, tmp_path):
        with pytest.raises(ValueError, match="task bug"):
            parallel_map_stream(_raiser, [(1, 0, str(tmp_path))], jobs=2)


def _raiser(item):
    raise ValueError("task bug, not a crash")


def _double(value):
    return 2 * value


class _BreaksOnSecondSubmit(ProcessPoolExecutor):
    """A pool that finds itself broken at its second ``submit``, as when
    a worker dies between two submissions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.submits = 0

    def submit(self, *args, **kwargs):
        self.submits += 1
        if self.submits == 2:
            raise BrokenProcessPool("a worker died between submissions")
        return super().submit(*args, **kwargs)


class TestBrokenSubmit:
    def test_broken_submit_is_a_crashed_round(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            _BreaksOnSecondSubmit)
        retried = []
        result = parallel_map_stream(_double, [1, 2, 3, 4], jobs=2,
                                     on_retry=retried.append)
        assert result == [2, 4, 6, 8]
        # Chunks that were never submitted are retried, not suspected.
        assert retried == []
