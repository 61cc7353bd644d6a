"""The open-loop driver: sessions arrive on a Poisson schedule.

Independent users arrive on their own schedule whether or not the
witness keeps up, so each session is timed from the moment it was *due*,
not from when a worker picked it up: a stall is charged to every session
queued behind it.  The driver also reports its own lateness -- how long
after its due time each arrival was handed to the workers -- so a
generator that cannot keep its schedule shows in the data.

The clock and the sleep function are injectable so the timing rules can
be tested under a fake clock.

No workload of the benchmark drives it yet: the open-loop ``arrivals``
workload was too unsteady at a run length the benchmark can afford (see
``witbench/README.md``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


def poisson_schedule(count: int, rate: float, seed: int) -> list:
    """Due offsets (s) of ``count`` arrivals of a Poisson process at ``rate``.

    The process is conditioned on exactly ``count`` arrivals in
    ``[0, count / rate)``; given that, the arrival times are sorted
    independent uniforms.  Fixing the count and the span keeps the offered
    load of every run the same while the arrival pattern varies by seed.
    """
    if count < 1 or rate <= 0:
        raise ValueError(f"need count >= 1 and rate > 0, got {count}, {rate}")
    rng = np.random.default_rng(seed)
    return sorted(float(t) for t in rng.uniform(0.0, count / rate, size=count))


@dataclass
class Arrival:
    """One scheduled session and what happened to it."""

    index: int
    due: float
    dispatched: float = 0.0
    started: float = 0.0
    ended: float = 0.0
    value: object = None
    error: BaseException | None = None

    @property
    def lateness(self) -> float:
        """How late the generator handed this arrival to the workers."""
        return self.dispatched - self.due

    @property
    def latency(self) -> float:
        """Time from the due time to the session's end."""
        return self.ended - self.due


def run_open_loop(
    schedule: list,
    work,
    *,
    workers: int,
    clock=time.monotonic,
    sleep=time.sleep,
    executor=None,
) -> list:
    """Run ``work(index)`` once per scheduled arrival; returns the arrivals.

    ``schedule`` holds due offsets in seconds from the start.  Each
    arrival is submitted when due to a pool of ``workers`` threads (or to
    ``executor``, any object with ``submit``); work that raises is kept on
    its arrival, never lost.  Returns after every arrival has ended.
    """
    origin = clock()
    arrivals = [Arrival(i, origin + offset) for i, offset in enumerate(schedule)]

    def run(arrival: Arrival) -> None:
        arrival.started = clock()
        try:
            arrival.value = work(arrival.index)
        except Exception as exc:  # noqa: BLE001 - a crash is a result
            arrival.error = exc
        finally:
            arrival.ended = clock()

    own_pool = executor is None
    pool = ThreadPoolExecutor(max_workers=workers) if own_pool else executor
    try:
        futures = []
        for arrival in arrivals:
            wait = arrival.due - clock()
            if wait > 0:
                sleep(wait)
            arrival.dispatched = clock()
            futures.append(pool.submit(run, arrival))
        for future in futures:
            future.result()
    finally:
        if own_pool:
            pool.shutdown(wait=True)
    return arrivals
