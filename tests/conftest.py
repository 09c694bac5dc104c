"""Fixtures shared by the simulator and CLI tests: fake the usable CPUs and
count the worker processes the simulator forks."""

import os

import pytest


@pytest.fixture
def fake_cpus(monkeypatch):
    """Call with ``count`` to make the simulator see that many usable CPUs,
    whatever the host has."""

    def fake(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return fake


@pytest.fixture
def record_forks(monkeypatch):
    """Call to wrap ``os.fork``: the returned list gets each fork's child pid,
    as the parent sees it, and ``child``, if given, runs first in each child."""

    def install(child=None) -> list[int]:
        forks, real_fork = [], os.fork

        def recording_fork():
            pid = real_fork()
            if pid == 0:
                if child is not None:
                    child()
            else:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return forks

    return install
