"""The open-loop driver under a fake clock."""

import pytest

from witbench.openloop import poisson_schedule, run_open_loop


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class InlineExecutor:
    """Runs each submitted arrival at once: one worker, no threads."""

    class _Done:
        def result(self):
            return None

    def submit(self, fn, *args):
        fn(*args)
        return self._Done()


def test_sessions_are_timed_from_their_due_time():
    clock = FakeClock()

    def work(index):
        clock.now += 1.5  # each session takes 1.5 s of service
        return index

    arrivals = run_open_loop(
        [0.0, 1.0, 2.0], work, workers=1, clock=clock, sleep=clock.sleep,
        executor=InlineExecutor(),
    )
    assert [a.value for a in arrivals] == [0, 1, 2]
    # The single worker falls behind: later arrivals queue behind the
    # earlier ones, and that wait is part of their latency.
    assert [a.latency for a in arrivals] == pytest.approx([1.5, 2.0, 2.5])
    assert [a.lateness for a in arrivals] == pytest.approx([0.0, 0.5, 1.0])
    assert [a.started - a.due for a in arrivals] == pytest.approx([0.0, 0.5, 1.0])


def test_an_idle_generator_is_on_time():
    clock = FakeClock()

    def work(_index):
        clock.now += 0.25

    arrivals = run_open_loop(
        [0.5, 1.0, 3.0], work, workers=1, clock=clock, sleep=clock.sleep,
        executor=InlineExecutor(),
    )
    assert [a.lateness for a in arrivals] == pytest.approx([0.0, 0.0, 0.0])
    assert [a.latency for a in arrivals] == pytest.approx([0.25, 0.25, 0.25])


def test_a_crashing_session_is_kept():
    clock = FakeClock()

    def work(index):
        if index == 1:
            raise RuntimeError("boom")
        return index

    arrivals = run_open_loop([0.0, 0.0], work, workers=1, clock=clock,
                             sleep=clock.sleep, executor=InlineExecutor())
    assert arrivals[0].error is None
    assert isinstance(arrivals[1].error, RuntimeError)


def test_threads_run_every_arrival():
    arrivals = run_open_loop([0.0, 0.001, 0.002, 0.003], lambda i: i * i, workers=2)
    assert [a.value for a in arrivals] == [0, 1, 4, 9]
    assert all(a.ended >= a.started >= a.dispatched >= a.due - 1e-9 for a in arrivals)


def test_poisson_schedule_is_seeded_and_spans_count_over_rate():
    a = poisson_schedule(16, 0.5, seed=3)
    assert a == poisson_schedule(16, 0.5, seed=3)
    assert a != poisson_schedule(16, 0.5, seed=4)
    assert len(a) == 16 and a == sorted(a)
    assert 0.0 <= a[0] and a[-1] < 32.0
