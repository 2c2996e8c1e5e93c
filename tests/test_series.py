"""The generating-function series against the published sums in ``formulas``
and against the constructive oracle."""

import hashlib

import pytest

from latcount import cli, formulas, oracle, series
from latcount.oracle import SizeLimitExceeded
from latcount.reduction import FbbClass

# Looked up by name when called, so that ``memoized_sums`` can route them.
BLOCK_FORMULAS = {
    "two_reducible": "two_reducible_blocks",
    "b1": "b1_blocks",
    "b2": "b2_blocks",
    "b3": "b3_blocks",
    "b4": "b4_blocks",
}
FIBER_COLUMNS = {
    FbbClass.F1: "b1",
    FbbClass.F2: "b2",
    FbbClass.F3: "b3",
    FbbClass.F4: "b4",
}


def stdout_sha256(argv, capsys):
    """sha256 of the CLI's stdout.  The digests below were recorded at commit
    8404830, where the published sums, then evaluated through a cached
    regrouping, were tested equal to ``series`` on every row to n = m = 60.
    The flat sums reach n = 26 (classes) and m = 30 (strata) here in seconds;
    the digests pin the rows beyond."""
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


class TestAgainstPublishedSums:
    def test_lattice_classes_up_to_60(self, capsys, memoized_sums):
        three = series.lattice_counts(3, 60)
        two = series.lattice_counts(2, 60)["total"]
        assert list(three) == ["l1", "l2", "l3", "l4", "total"]
        for n in range(27):
            assert three["l1"][n] == formulas.l1_lattices(n)
            assert three["l2"][n] == formulas.l2_lattices(n)
            assert three["l3"][n] == formulas.l3_lattices(n)
            assert three["l4"][n] == formulas.l4_lattices(n)
            assert three["total"][n] == formulas.three_reducible_lattices(n)
        for n in range(61):
            assert two[n] == formulas.two_reducible_lattices(n, "block_first")
            assert two[n] == formulas.two_reducible_lattices(n, "thakare")
        assert stdout_sha256(
            ["table", "--reducible", "3", "--n-from", "1", "--n-to", "60"], capsys
        ) == "afb205a785510ecac834b11560107ad4a168b5a1ae302e126c4c950e30bb3eeb"

    def test_block_strata_up_to_30(self, memoized_sums):
        for k in range(-1, 32):
            strata = series.block_counts(30, k)
            assert list(strata) == list(BLOCK_FORMULAS)
            for m in range(max(k - 1, 0), 31):
                for name, func in BLOCK_FORMULAS.items():
                    assert strata[name][m] == getattr(formulas, func)(m, k), (name, m, k)

    def test_block_totals_up_to_60(self, capsys, memoized_sums):
        totals = series.block_counts(30)
        for m in range(31):
            for name, func in BLOCK_FORMULAS.items():
                cell = getattr(formulas, func)
                assert totals[name][m] == sum(cell(m, k) for k in range(-1, m + 2)), (name, m)
        assert stdout_sha256(
            ["blocks", "--m-from", "1", "--m-to", "60"], capsys
        ) == "1c04d9d00e3de41d7433fc14a967c0208a4f0c5d2c18765ce1d9dba4b34c76fc"


class TestAgainstOracle:
    def test_three_reducible_strata(self):
        for m in range(10):
            fibers = oracle.three_block_fibers(m)
            for k in range(-1, m + 2):
                strata = series.block_counts(m, k)
                for tag, name in FIBER_COLUMNS.items():
                    assert strata[name][m] == fibers.get((tag, k), 0), (tag, m, k)

    def test_two_reducible_strata(self):
        for m in range(10):
            census = oracle.block_census(m, 2)
            for k in range(-1, m + 2):
                assert series.block_counts(m, k)["two_reducible"][m] == len(
                    census.get(k, {})
                ), (m, k)


class TestSizes:
    def test_negative_sizes_are_empty(self):
        assert series.lattice_counts(3, -4) == {
            name: [] for name in ("l1", "l2", "l3", "l4", "total")
        }
        assert series.block_counts(-1, 2) == {name: [] for name in BLOCK_FORMULAS}

    def test_far_strata_are_empty(self):
        for k in (-(10**12), 10**12):
            assert series.block_counts(10, k) == {name: [0] * 11 for name in BLOCK_FORMULAS}

    def test_limit(self):
        with pytest.raises(SizeLimitExceeded):
            series.block_counts(series.LIMIT + 1)
        with pytest.raises(SizeLimitExceeded):
            series.lattice_counts(2, series.LIMIT + 1)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            series.lattice_counts(4, 10)
