"""``map`` in forked worker processes, at most one per CPU this process may use."""

from __future__ import annotations

import os
import threading
from itertools import chain, islice
from typing import Callable, Iterable, Iterator


def worker_count() -> int:
    """The CPUs this process may run on (every CPU where the platform cannot
    tell)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(func: Callable, items: Iterable) -> Iterator:
    """``map(func, items)``: the same results, and the same exception at the
    same place, whether an item raised in ``func`` or the iteration of
    ``items`` raised.  With two or more CPUs, two or more items, ``fork``
    and no other thread in this process (a fork copies only the calling
    thread, so a lock another thread held would stay held in the worker),
    ``func`` runs in forked worker processes, at most one per CPU;
    otherwise it runs in this process (on one CPU, or beside another
    thread, with no item read ahead).
    ``func`` is inherited by the fork, not pickled (it may be a closure);
    the items and results are pickled.  Once the results end, or the caller
    closes the iterator, no worker is left running."""
    workers = worker_count()
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        yield from map(func, items)
        return
    failed: list[Exception] = []

    def pulled():
        try:
            yield from items
        except Exception as exc:  # raised after the results of the items before it
            failed.append(exc)

    rest = pulled()
    head = list(islice(rest, 2))
    if len(head) < 2:
        yield from map(func, head)
    else:
        yield from _forked(func, chain(head, rest), workers)
    if failed:
        raise failed[0]


def _serve(link, func: Callable) -> None:
    """A worker: ``func`` of each item received, sent back as (raised, value)."""
    while True:
        try:
            item = link.recv()
        except EOFError:  # the caller is gone
            return
        try:
            outcome = (False, func(item))
        except Exception as exc:  # noqa: BLE001 - raised in the caller
            outcome = (True, exc)
        link.send(outcome)


def _value(outcome: tuple[bool, object]):
    raised, value = outcome
    if raised:
        raise value
    return value


def _forked(func: Callable, items: Iterator, workers: int) -> Iterator:
    """:func:`ordered_map` in up to ``workers`` forked processes.  A worker
    is forked only when an item is ready and every worker forked so far has
    one.  Each worker has at most one item: this process writes an item
    only to a worker that is waiting for one, so neither side can block
    writing to the other.  It pickles and unpickles in its own thread, so
    the memory of the results it keeps is allocated where that of the items
    it frees was.  A result done ahead of an earlier one waits here."""
    import multiprocessing  # here: the stages that never fork do not load it
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    idle, processes = [], []  # the links to the workers waiting for an item; every worker
    busy: dict = {}  # link -> the index of the item its worker has
    done: dict = {}  # index -> (raised, value)
    sent = out = 0

    def collect(timeout=None):
        for link in wait(list(busy), timeout):
            done[busy.pop(link)] = link.recv()
            idle.append(link)

    try:
        for item in items:
            collect(0)
            if not idle and len(processes) < workers:
                link, theirs = context.Pipe()
                processes.append(context.Process(target=_serve, args=(theirs, func), daemon=True))
                processes[-1].start()
                theirs.close()
                idle.append(link)
            while not idle:
                collect()
            link = idle.pop()
            link.send(item)
            busy[link] = sent
            sent += 1
            while out in done:
                yield _value(done.pop(out))
                out += 1
        while out < sent:
            while out not in done:
                collect()
            yield _value(done.pop(out))
            out += 1
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            process.join()
        for link in [*idle, *busy]:
            link.close()
