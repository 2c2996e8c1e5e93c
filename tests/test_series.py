"""The generating-function series against the published sums in ``formulas``
and against the constructive oracle."""

import hashlib

import pytest

from latcount import cli, formulas, oracle, series
from latcount.oracle import SizeLimitExceeded
from latcount.partitions import partition_count
from latcount.reduction import FbbClass
from class_reference import three_block_fibers

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
    """sha256 of the CLI's stdout.  The digests in ``TestAgainstPublishedSums``
    were recorded at commit 8404830, where the published sums, then evaluated
    through a cached regrouping, were tested equal to ``series`` on every row
    to n = m = 60.  The flat sums reach n = 26 (classes) and m = 30 (strata)
    here in seconds; the digests pin the rows beyond."""
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


# sha256 of the stdout of `blocks --m-from 1 --m-to 330 --k K`, recorded at
# commit 192290a, where each stratum multiplied the y-rows of P term by term
STRATA_TO_330 = {
    0: "ba4699d02a1ee61304a3941ffc5ed2c7d9a26f4be04a0c4d14153d5ef44c4f46",
    1: "8b9e55cbd703b9579bbcec21321ca107f21eafcea936abcfa36c2434bc2491f0",
    2: "a0ce1f0742efb341320e8e18130b8b56e8829c7a5b7b923d53d6c36886090166",
    7: "54e93db105d70571bd25394b81d8915fd6b807a515da9af132d4e6776dcd8f6c",
    50: "5863f35b0d8365879fb2081b224b093ba31d70d4a8b09b114496048b6301fc34",
    155: "93ae731e0ed399a42520320e15a3b4d2cd2ee72783bc174db99950f336924414",
    300: "a77e13ba84ed4b83e2a9785e10963152f813fd6f01d854e443f1424a7a14126a",
    326: "0f43e23a8fe2b141e8f1d416fcb5e48abc870e80f2de9cadec06415e1ad69dbf",
}


@pytest.mark.parametrize("k", sorted(STRATA_TO_330))
def test_strata_to_330_are_pinned(k, capsys):
    argv = ["blocks", "--m-from", "1", "--m-to", "330", "--k", str(k)]
    assert stdout_sha256(argv, capsys) == STRATA_TO_330[k]


def strata_totals(m_max):
    """Each block column of ``series.block_counts(m_max)``, summed over its
    edge-surplus strata k = -1..m_max + 1."""
    totals = {name: [0] * (m_max + 1) for name in BLOCK_FORMULAS}
    for k in range(-1, m_max + 2):
        for name, column in series.block_counts(m_max, k).items():
            totals[name] = [a + b for a, b in zip(totals[name], column)]
    return totals


def padded(block):
    """L(n) = sum_j (j + 1) B(n - j): j padding elements split below and
    above the block in j + 1 ways."""
    return [sum((j + 1) * block[n - j] for j in range(n + 1)) for n in range(len(block))]


@pytest.mark.parametrize(
    "m_max", [120, pytest.param(series.LIMIT, marks=pytest.mark.slow)]
)
def test_strata_rederive_every_count(m_max):
    """A second derivation of every value ``count``, ``table`` and ``blocks``
    print.  The strata come from Euler's shift identity, not from the P and M
    products behind the totals, and the padding here is summed directly, not
    by ``series._padded``.  Both routes share ``_divide`` and the partition
    numbers, which ``TestRecurrence`` checks against ``partition_count``."""
    totals = strata_totals(m_max)
    assert totals == series.block_counts(m_max)
    two = {"total": padded(totals["two_reducible"])}
    assert two == series.lattice_counts(2, m_max)
    three = {f"l{i}": padded(totals[f"b{i}"]) for i in range(1, 5)}
    three["total"] = [sum(row) for row in zip(*three.values())]
    assert three == series.lattice_counts(3, m_max)


class TestRecurrence:
    """The series' own tables against the partition table."""

    def test_route_rows_are_row_convolutions(self):
        size = 13
        base = [[partition_count(j + e, j) for e in range(size)] for j in range(size)]

        def times(a, b):
            """a · b for two series in x and y given by their y-rows."""
            return [
                [
                    sum(a[i][s] * b[j - i][e - s] for i in range(j + 1) for s in range(e + 1))
                    for e in range(size)
                ]
                for j in range(size)
            ]

        square = times(base, base)
        assert series._route_rows(size - 1, size) == [base, square, times(square, base)]

    def test_partition_numbers(self):
        assert series._partitions(101) == [
            sum(partition_count(n, j) for j in range(n + 1)) for n in range(101)
        ]
        assert series._partitions(0) == []


class TestAgainstOracle:
    def test_three_reducible_strata(self):
        for m in range(10):
            fibers = three_block_fibers(m)
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
