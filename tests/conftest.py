import os

import pytest


@pytest.fixture()
def cpus(monkeypatch):
    """``cpus(n)`` lets the process run on n CPUs: its affinity and os.cpu_count() say n."""

    def set_cpus(n):
        monkeypatch.setattr(os, "cpu_count", lambda: n)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n or 0)), raising=False)

    return set_cpus


@pytest.fixture()
def forks(monkeypatch, cpus):
    """The os.fork calls made by a process that may run on two CPUs, one entry each.

    A ``drs-sim run`` of at least ``engine.FORK_STEPS`` steps forks one trajectory
    producer here, before its first step.
    """
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    cpus(2)
    return calls
