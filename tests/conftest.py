"""Fixtures shared by the simulator and CLI tests: fake the usable CPUs,
count the worker processes the simulator forks or make a fork fail, and run
the CLI in-process."""

import contextlib
import errno
import io
import itertools
import os

import pytest


def main_in_process(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``erlab.cli.main(argv)``, run in this
    process; an exit through argparse (``--version``) gives its exit code."""
    from erlab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def run_main():
    """``main_in_process``: erlab reads no environment variable, so an
    in-process run prints what a fresh ``python -m erlab`` would."""
    return main_in_process


@pytest.fixture
def fake_cpus(monkeypatch):
    """Call with ``count`` to make the simulator see that many usable CPUs,
    whatever the host has: an affinity set of ``count`` CPUs and no CPU quota."""

    def fake(count: int) -> None:
        from erlab import spinsim

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        monkeypatch.setattr(spinsim, "_CPU_QUOTA_FILES", ())

    return fake


@pytest.fixture
def record_forks(monkeypatch):
    """Call to wrap ``os.fork``: the returned list gets each fork's child pid,
    as the parent sees it, ``child``, if given, runs first in each child, and
    the ``fail_at``-th call, if given (1 for the first), raises OSError(EAGAIN)
    and forks nothing."""

    def install(child=None, fail_at=None) -> list[int]:
        forks, real_fork, calls = [], os.fork, itertools.count(1)

        def recording_fork():
            if next(calls) == fail_at:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
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
