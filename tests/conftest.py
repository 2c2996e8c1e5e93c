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
    """Let this process see two CPUs, so that two workers may fork."""
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def eager_pool(monkeypatch, two_cpus):
    """Let a run with two or more workers fork a pool of two whatever the
    size of its tables, so that the pool stays tested on tables far below
    ``oracle.POOL_BREAK_EVEN``."""
    monkeypatch.setattr(oracle, "POOL_BREAK_EVEN", 0)
