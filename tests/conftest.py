import os
from functools import cache

import pytest

from latcount import formulas, oracle, reduction, search

# One flat F4 lattice sum takes about 2 s at n = 30, and several tests in
# different modules read the same lattice and block values.  Each memo keeps
# the values of one sum for the whole test run.
_MEMOS = {
    name: cache(getattr(formulas, name))
    for name in (
        "b1_blocks", "b3_blocks", "b4_blocks",
        "l1_lattices", "l3_lattices", "l4_lattices",
    )
}


@pytest.fixture
def memoized_sums(monkeypatch):
    """Route the costly sums of ``formulas`` through the shared memos while
    one test runs.  The sums that call them by name (``b2_blocks``,
    ``l2_lattices``, ``three_reducible_lattices``) reuse the values too, so
    tests must call them as ``formulas.<name>``."""
    for name, memo in _MEMOS.items():
        monkeypatch.setattr(formulas, name, memo)


@pytest.fixture
def fresh_tables(monkeypatch):
    """Start one test from the process-wide caches a new process starts
    with: empty block tables, the search's two seed levels alone and an
    empty memo of fundamental basic block classes.  The caches built before
    the test come back after it."""
    monkeypatch.setattr(oracle, "_BLOCKS", {})
    monkeypatch.setattr(search, "_LEVELS", {k: search._LEVELS[k] for k in (0, 1)})
    monkeypatch.setattr(reduction, "_FBB_CLASSES", {})


@pytest.fixture
def two_cpus(monkeypatch):
    """Let this process see two CPUs, so that two workers may fork.  After
    the test, the process must have no child left: a test whose run leaks
    a block table worker fails here, where it leaked."""
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def eager_split(monkeypatch, two_cpus):
    """Let a run with two or more workers split its tables over two
    processes whatever their size, so that the split stays tested on tables
    far below ``oracle.SPLIT_BREAK_EVEN``.  ``two_cpus`` checks after the
    test that no worker is left."""
    monkeypatch.setattr(oracle, "SPLIT_BREAK_EVEN", 0)


@pytest.fixture
def split_keys(monkeypatch) -> list:
    """The (m, r) keys of the tables that ``oracle._build_tables`` adds to
    the block tables from now on in a call that forks, in the order it adds
    them: the tables a split builds.  With one worker or below the
    break-even it forks nothing, and none of its keys are listed."""
    built, forks = [], []
    build, fork = oracle._build_tables, oracle.os.fork

    def recorded(keys, workers):
        before, forked = set(oracle._BLOCKS), len(forks)
        build(keys, workers)
        if len(forks) > forked:
            built.extend(key for key in oracle._BLOCKS if key not in before)

    monkeypatch.setattr(oracle.os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(oracle, "_build_tables", recorded)
    return built
