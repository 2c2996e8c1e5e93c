import re
from pathlib import Path

import pytest

from latcount import formulas

VERIFY_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "verify-n9.txt"


class TestTwoReducible:
    def test_block_examples(self):
        assert formulas.two_reducible_blocks(4, 0) == 1  # the diamond
        assert formulas.two_reducible_blocks(6, 2) == 1
        assert formulas.two_reducible_blocks(5, 2) == 0  # k beyond m - 4

    def test_lattice_spot_values(self):
        assert formulas.two_reducible_lattices(4) == 1
        assert formulas.two_reducible_lattices(5) == 4
        assert formulas.two_reducible_lattices(6) == 11

    def test_below_threshold(self):
        for n in range(0, 4):
            assert formulas.two_reducible_lattices(n) == 0
            assert formulas.two_reducible_lattices(n, "thakare") == 0

    def test_forms_agree_up_to_60(self):
        for n in range(4, 61):
            assert formulas.two_reducible_lattices(
                n, "thakare"
            ) == formulas.two_reducible_lattices(n, "block_first")

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            formulas.two_reducible_lattices(6, "fastest")


class TestBlockFamilies:
    def test_b1_spot_values(self):
        assert formulas.b1_blocks(6, 1) == 1  # F1 itself
        assert formulas.b1_blocks(7, 1) == 3
        assert formulas.b1_blocks(7, 2) == 2

    def test_b2_mirrors_b1(self):
        for m in range(6, 12):
            for k in range(0, m):
                assert formulas.b2_blocks(m, k) == formulas.b1_blocks(m, k)

    def test_b3_spot_values(self):
        assert formulas.b3_blocks(7, 1) == 1  # F3 itself
        assert formulas.b3_blocks(7, 2) == 0  # k beyond m - 6

    def test_b4_spot_values(self):
        assert formulas.b4_blocks(8, 2) == 1  # F4 itself
        assert formulas.b4_blocks(8, 1) == 0  # k below the family minimum

    def test_out_of_range_zero(self):
        assert formulas.b1_blocks(5, 1) == 0
        assert formulas.b3_blocks(6, 1) == 0
        assert formulas.b4_blocks(7, 2) == 0
        for m in range(6, 11):
            assert formulas.b1_blocks(m, 0) == 0
            assert formulas.b1_blocks(m, m - 4) == 0


class TestThreeReducibleClasses:
    def test_minimality_rows(self):
        assert formulas.l1_lattices(6) == 1
        assert formulas.l1_lattices(7) == 7
        assert formulas.l3_lattices(7) == 1
        assert formulas.l4_lattices(7) == 0
        assert formulas.l4_lattices(8) == 1

    def test_zeros_below_thresholds(self):
        assert formulas.l1_lattices(5) == 0
        assert formulas.l3_lattices(6) == 0
        assert formulas.l4_lattices(7) == 0

    def test_duality_pairing(self, memoized_sums):
        for n in range(6, 30):
            assert formulas.l2_lattices(n) == formulas.l1_lattices(n)

    def test_headline_values(self):
        assert formulas.three_reducible_lattices(5) == 0
        assert formulas.three_reducible_lattices(6) == 2
        assert formulas.three_reducible_lattices(7) == 15


class TestLatticeFromBlockIdentities:
    """Each lattice count is the padding-weighted sum of its block counts."""

    def check(self, lattices, blocks, smallest, sizes=None):
        for n in sizes or range(smallest, 31):
            assert lattices(n) == sum(
                (j + 1) * blocks(n - j, k)
                for j in range(0, n - smallest + 1)
                for k in range(0, n)
            ), n

    def test_l1(self, memoized_sums):
        self.check(formulas.l1_lattices, formulas.b1_blocks, 6)

    def test_l3(self, memoized_sums):
        self.check(formulas.l3_lattices, formulas.b3_blocks, 7)

    def test_l4(self, memoized_sums):
        # the flat F4 sums past 26 take seconds each: see test_l4_past_26
        self.check(formulas.l4_lattices, formulas.b4_blocks, 8, range(8, 27))

    @pytest.mark.slow
    def test_l4_past_26(self, memoized_sums):
        self.check(formulas.l4_lattices, formulas.b4_blocks, 8, range(27, 31))

    def test_two_reducible(self):
        self.check(formulas.two_reducible_lattices, formulas.two_reducible_blocks, 4)


def test_counts_are_nonnegative_and_grow(memoized_sums):
    values = [formulas.three_reducible_lattices(n) for n in range(1, 27)]
    assert all(v >= 0 for v in values)
    assert values == sorted(values)


@pytest.mark.slow
def test_counts_grow_past_26(memoized_sums):
    """The tail of ``test_counts_are_nonnegative_and_grow``, from its last
    size on, where the flat F4 sums take seconds each."""
    values = [formulas.three_reducible_lattices(n) for n in range(26, 30)]
    assert values == sorted(values)


def test_recorded_verify_formula_column():
    """Every ``formula=`` cell of the recorded ``verify --n-max 9`` stdout is
    the value of its sum, without running the oracle."""
    cells = {
        "two_reducible": formulas.two_reducible_lattices,
        "two_reducible_thakare": lambda n: formulas.two_reducible_lattices(n, "thakare"),
        "three_reducible": formulas.three_reducible_lattices,
        "f1": formulas.l1_lattices,
        "f2": formulas.l2_lattices,
        "f3": formulas.l3_lattices,
        "f4": formulas.l4_lattices,
        "chains": lambda n: 1,  # one chain on every n
    }
    strata = {
        "two_reducible_blocks": formulas.two_reducible_blocks,
        "b1_blocks": formulas.b1_blocks,
        "b2_blocks": formulas.b2_blocks,
        "b3_blocks": formulas.b3_blocks,
        "b4_blocks": formulas.b4_blocks,
    }
    checked = set()
    for line in VERIFY_EXPECTED.read_text().splitlines():
        cell = re.fullmatch(r"n=(\d+) (\w+)(?:\[k=(\d+)\])?: formula=(\d+) .*", line)
        if cell is None:
            assert "formula=-" in line or line == "verify: all cells agree", line
            continue
        n, name, k, value = cell.groups()
        if k is None:
            assert cells[name](int(n)) == int(value), line
        else:
            assert strata[name](int(n), int(k)) == int(value), line
        checked.add(name)
    assert checked == set(cells) | set(strata)
