"""Seeded request generation and the closed-/open-loop senders.

Everything a client sends is derived from ``random.Random(seed)`` here;
the senders themselves know nothing about HTTP — they call ``send(item,
index)`` and record when it was due, when it started and when it ended.

Closed loop: each client takes its next item only after its previous
reply arrived (callers that wait for a reply — harnesses, CI scripts).
Open loop: items are due on a fixed schedule regardless of replies;
latency is counted from the *due* time, so a stall is charged to every
request it delays, and how late the sender itself ran is reported.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Sample:
    index: int
    kind: str
    due: float
    start: float
    end: float
    ok: bool
    info: object = None

    @property
    def latency_ms(self) -> float:
        """Reply time as the caller sees it: from when it was due."""
        return (self.end - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        """How long after its due time the sender got to it."""
        return (self.start - self.due) * 1e3


# -- seeded inputs ----------------------------------------------------------

def scan_block(seed: int, keys: list) -> list:
    """One block of churn traffic: a scan with short-term reuse.

    The keys are visited in a seeded order, two at a time, each pair as
    ``A A B B A B``.  With fewer keys resident than the scan is long,
    LRU has always evicted a key before the scan returns to it, so every
    block does the same work whatever came before it: per key one fill,
    one request that arrives while the fill is in flight (with two
    clients) and one plain hit — a hit rate of two in three.
    """
    order = list(keys)
    random.Random(seed).shuffle(order)
    block = []
    for first, second in zip(order[::2], order[1::2]):
        block += [first, first, second, second, first, second]
    return block


def request_cycle(rng: random.Random, texts: int, job_every: int) -> list:
    """One cycle of warm traffic as ``(kind, text_index)`` items: every
    text evaluated once, and every ``job_every``-th text also run as a
    durable job, in an order drawn from ``rng``.  Every cycle carries
    the same work; only the order differs."""
    items = [("evaluate", index) for index in range(texts)]
    items += [("job", index) for index in range(0, texts, job_every)]
    rng.shuffle(items)
    return items


# -- senders ----------------------------------------------------------------

class _Cursor:
    """Hands out item indexes 0, 1, 2, ... to competing sender threads."""

    def __init__(self):
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
            return index


def _run_threads(count: int, target) -> None:
    errors: list[BaseException] = []

    def guarded(worker: int) -> None:
        try:
            target(worker)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(worker,))
               for worker in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def run_closed_loop(items: list, clients: int, send, first_index: int = 0,
                    clock=time.perf_counter) -> tuple[list[Sample], float]:
    """``clients`` threads work through ``items`` in order, each taking
    its next item only when its previous reply has arrived;
    ``send(worker, item, index)`` returns ``(kind, ok, info)`` and item
    ``k`` is sent with index ``first_index + k``.  Returns the samples
    and the time from the start to the last reply."""
    cursor = _Cursor()
    samples: list[list[Sample]] = [[] for _ in range(clients)]
    started = clock()

    def client(worker: int) -> None:
        while True:
            position = cursor.take()
            if position >= len(items):
                return
            start = clock()
            kind, ok, info = send(worker, items[position],
                                  first_index + position)
            samples[worker].append(Sample(
                first_index + position, kind, start, start, clock(), ok, info))

    if clients == 1:
        client(0)
    else:
        _run_threads(clients, client)
    merged = sorted((s for part in samples for s in part),
                    key=lambda s: s.index)
    elapsed = max((s.end for s in merged), default=started) - started
    return merged, elapsed


def run_open_loop(items: list, rate: float, count: int, senders: int, send,
                  clock=time.perf_counter, sleep=time.sleep) -> list[Sample]:
    """Send ``count`` items, item ``k`` due at ``k / rate`` seconds.

    A sender that is free before an item is due sleeps until then; one
    that is not sends as soon as it can, and the sample keeps the due
    time, so the wait shows up as latency and as ``late_ms``.  With
    ``senders=1`` it runs on the calling thread (the fake-clock test).
    """
    cursor = _Cursor()
    samples: list[list[Sample]] = [[] for _ in range(senders)]
    origin = clock()

    def sender(worker: int) -> None:
        while True:
            index = cursor.take()
            if index >= count:
                return
            due = origin + index / rate
            now = clock()
            if now < due:
                sleep(due - now)
            start = clock()
            kind, ok, info = send(worker, items[index % len(items)], index)
            samples[worker].append(
                Sample(index, kind, due, start, clock(), ok, info))

    if senders == 1:
        sender(0)
    else:
        _run_threads(senders, sender)
    return sorted((s for part in samples for s in part),
                  key=lambda s: s.index)
