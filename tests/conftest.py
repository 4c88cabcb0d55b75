import os

import pytest


@pytest.fixture()
def forks(monkeypatch):
    """The os.fork calls made on a two-core machine, one entry each.

    A ``drs-sim run`` that serves a step forks one steps.csv writer here.
    """
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return calls
