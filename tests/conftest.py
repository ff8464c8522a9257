from __future__ import annotations

import glob
import os
import subprocess

import pytest

from cfobench.acceptance import _package_first_on_pythonpath


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_checkout():
    """Tests spawn `python -m cfobench.external` children. pyproject's pytest
    pythonpath setting reaches only this process, so hand the same package
    to the children through PYTHONPATH."""
    with _package_first_on_pythonpath():
        yield


def _running_children():
    """Pids of this process's children that have not exited, zombies not
    counted; None where /proc has no per-thread children lists."""
    lists = glob.glob(f"/proc/{os.getpid()}/task/*/children")
    if not lists:
        return None
    pids = set()
    for path in lists:
        try:
            with open(path, encoding="ascii") as fh:
                pids.update(int(pid) for pid in fh.read().split())
        except OSError:  # the thread ended after the glob
            pass
    running = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):  # reaped after the listing
            continue
        if state != "Z":
            running.add(pid)
    return running


@pytest.fixture(autouse=True)
def _no_leaked_children():
    """Fail a test that leaves a child process of the test process running."""
    before = _running_children()
    yield
    if before is None:
        return
    leaked = _running_children() - before
    if leaked:
        pytest.fail(f"test left child processes running: {sorted(leaked)}")


@pytest.fixture
def spawned(monkeypatch):
    """Every subprocess.Popen the test starts, so it can check they exited."""
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return started
