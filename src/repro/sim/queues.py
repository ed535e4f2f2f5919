"""FIFO stores, drop-tail channels and analytic FIFO stations.

:class:`Store` is the workhorse for inter-process communication: an
optionally capacity-bounded FIFO whose ``get()``/``put()`` return events
a process can ``yield`` on. Sockets and application inboxes are Stores.

:class:`Channel` adds a non-blocking drop-on-full put — the semantics of a
drop-tail router queue.

:class:`FifoStation` is the data plane's single server: a FIFO queue, a
per-job service time and a fixed delay after it, computed analytically at
enqueue so that each job costs exactly one calendar entry (its hand-off).
Link serializers, the tap's read/write loops and IPOP's packet CPU are
stations.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Optional

from repro.sim.engine import Event, SimulationError, Simulator

__all__ = ["Channel", "FifoStation", "QueueFull", "StationJob", "Store"]

_NEVER = float("-inf")


class QueueFull(Exception):
    """Raised by :meth:`Store.put_nowait` when a bounded store is full."""


class Store:
    """FIFO of items with blocking get/put via events.

    ``capacity=None`` means unbounded. Waiters are served strictly FIFO.
    """

    def __init__(self, sim: Simulator, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    # -- blocking interface --------------------------------------------
    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` is enqueued (immediately unless full)."""
        ev = Event(self.sim)
        if not self.is_full:
            self._deliver(item)
            ev.succeed(item)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Event that fires with the next item."""
        ev = Event(self.sim)
        if self.items:
            ev.succeed(self.items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    # -- non-blocking interface ------------------------------------------
    def put_nowait(self, item: Any) -> None:
        """Enqueue or raise :class:`QueueFull`."""
        if self.is_full:
            raise QueueFull()
        self._deliver(item)

    def try_put(self, item: Any) -> bool:
        """Enqueue and return True, or return False when full (drop-tail)."""
        if self.is_full:
            return False
        self._deliver(item)
        return True

    def get_nowait(self) -> Any:
        """Dequeue or raise :class:`SimulationError` when empty."""
        if not self.items:
            raise SimulationError("get_nowait on empty store")
        item = self.items.popleft()
        self._admit_putter()
        return item

    # -- internals -------------------------------------------------------
    def _deliver(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            ev, item = self._putters.popleft()
            self._deliver(item)
            ev.succeed(item)


class Channel(Store):
    """Bounded FIFO with drop-tail put — a router queue.

    :meth:`offer` is the datapath entry point; it never blocks and reports
    drops via its return value so callers can count them.
    """

    def __init__(self, sim: Simulator, capacity: int) -> None:
        super().__init__(sim, capacity=capacity)
        self.drops = 0

    def offer(self, item: Any) -> bool:
        # Hot path for every queued frame: inline the bound/deliver logic
        # (capacity is always an int for a Channel) instead of paying the
        # is_full property plus two method calls of ``try_put``.
        if len(self.items) < self.capacity:
            if self._getters:
                self._getters.popleft().succeed(item)
            else:
                self.items.append(item)
            return True
        self.drops += 1
        return False


class StationJob:
    """One job of a :class:`FifoStation`: its arrival, service start and
    finish times. Subclasses carry the payload and define ``__call__``,
    the hand-off the station schedules at ``finish + latency``."""

    __slots__ = ("arrival", "start", "finish")

    def __call__(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class FifoStation:
    """Analytic FIFO single server followed by a fixed delay.

    A job arriving at ``arrival`` starts at ``max(arrival, busy_until)``
    and finishes ``service`` later; :meth:`serve` computes both at enqueue
    and schedules **only** the job's hand-off, at ``finish + latency``, as
    one fast-lane calendar entry (the job is the callable). There is no
    per-job service-start or service-end event.

    ``arrival`` may lie ahead of ``now``: an upstream stage of constant
    delay (a switch's forwarding cost) folds its delay into the arrival
    instead of scheduling its own entry. Constant delay keeps FIFO order,
    so each station still sees its arrivals in time order.

    Jobs stay in :attr:`jobs` (FIFO, finish times nondecreasing) until a
    later enqueue finds them finished, so drop-tail, re-timing and
    accounting can read what is still in the system. ``capacity`` bounds
    the jobs in the system — waiting plus in service — at the arrival
    instant; ``None`` is unbounded.
    """

    __slots__ = ("sim", "capacity", "latency", "busy_until", "jobs")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 latency: float = 0.0) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"station capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.latency = latency
        self.busy_until = _NEVER
        self.jobs: deque[StationJob] = deque()

    def admits(self, arrival: float) -> bool:
        """True when a job arriving at ``arrival`` finds room (drop-tail).
        Forgets jobs that finished by ``now`` as a side effect."""
        jobs = self.jobs
        if not jobs:
            return True
        now = self.sim.now
        while jobs and jobs[0].finish <= now:
            jobs.popleft()
        cap = self.capacity
        if cap is None or len(jobs) < cap:
            return True
        # Full now; jobs finishing before a folded arrival have left by then.
        gone = 0
        for job in jobs:
            if job.finish > arrival:
                break
            gone += 1
        return len(jobs) - gone < cap

    def serve(self, job: StationJob, arrival: float, service: float) -> None:
        """Enqueue an admitted ``job`` and schedule its hand-off."""
        start = self.busy_until
        if arrival > start:
            start = arrival
        job.arrival = arrival
        job.start = start
        job.finish = finish = start + service
        self.busy_until = finish
        self.jobs.append(job)
        # The kernel's fast lane (Simulator.call_at) without its past-time
        # check: finish + latency >= arrival >= now by construction.
        sim = self.sim
        sim._seq += 1
        heappush(sim._calendar, (finish + self.latency, sim._seq, None, job))

    def offer(self, job: StationJob, arrival: float, service: float) -> bool:
        """:meth:`admits` then :meth:`serve`; False when dropped."""
        if not self.admits(arrival):
            return False
        self.serve(job, arrival, service)
        return True

    def retime(self, latency: float,
               service_of: Optional[Callable[[Any], float]] = None) -> None:
        """Reconfigure at ``now``: the hand-off delay becomes ``latency``
        for every job not finished yet, and with ``service_of`` every job
        still waiting (start > now) gets ``service_of(job)`` as its new
        service time; the job in service keeps its finish. Jobs whose
        hand-off moves are rescheduled in FIFO order."""
        sim = self.sim
        now = sim.now
        old_latency = self.latency
        self.latency = latency
        moved = []
        busy = _NEVER
        for job in self.jobs:
            if job.finish <= now:  # finished: already on its way
                busy = job.finish
                continue
            due = job.finish + old_latency
            if service_of is not None and job.start > now:
                start = job.arrival if job.arrival > busy else busy
                job.start = start
                job.finish = start + service_of(job)
            busy = job.finish
            if job.finish + latency != due:
                moved.append(job)
        if self.jobs:
            self.busy_until = self.jobs[-1].finish
        sim.retract(moved)
        for job in moved:
            sim.call_at(job.finish + latency, job)

    def withdraw_after(self, t: float) -> list:
        """Remove and return the jobs that have not arrived by ``t`` (the
        tail of the queue), cancelling their hand-offs."""
        jobs = self.jobs
        gone = []
        while jobs and jobs[-1].arrival > t:
            gone.append(jobs.pop())
        if gone:
            gone.reverse()
            self.sim.retract(gone)
            self.busy_until = jobs[-1].finish if jobs else _NEVER
        return gone
