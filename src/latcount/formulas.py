"""Closed-form counts of lattices and maximal blocks with 2 or 3 reducible
elements, stratified by edge surplus and by fundamental basic block.

Every sum keeps its published index bounds and factors, so a disagreement
with the enumeration oracle would implicate the formula cell itself, not the
transcription.  The inner sums repeat across cells, so they are split into
cached helpers (pure regrouping; the tests compare against flat one-shot
transcriptions).  All arithmetic is exact.

These published sums are the "formula" column of ``verify`` and the
reference the tests hold ``series`` to; the CLI's ``count --reducible 3``,
``table`` and ``blocks`` read the generating functions in ``series``, and
``count --reducible 2`` evaluates the sum its ``--form`` names.

Conventions: blocks on ``m`` elements with ``m + k`` edges form the
``k``-stratum; ``j`` counts chain padding below/above a maximal block.
"""

from __future__ import annotations

from functools import cache

from .partitions import partition_count as P


def two_reducible_blocks(m: int, k: int) -> int:
    """Blocks on m elements, exactly two reducible elements, m + k edges."""
    if m < 4 or k < 0 or k > m - 4:
        return 0
    return P(m - 2, k + 2)


def two_reducible_lattices(n: int, form: str = "block_first") -> int:
    """Lattices on n elements with exactly two reducible elements.

    ``form`` selects one of two published but equivalent double sums:
    ``"thakare"`` distributes chain padding first, ``"block_first"`` sums the
    block strata first.
    """
    if n < 4:
        return 0
    if form == "thakare":
        return sum(
            j * P(n - j - 1, k)
            for k in range(2, n - 1)
            for j in range(1, n - k)
        )
    if form == "block_first":
        return sum(
            (i + 1) * P(n - i - 2, k + 2)
            for i in range(0, n - 3)
            for k in range(0, n - i - 3)
        )
    raise ValueError(f"unknown form {form!r}")


# -- shared inner sums -------------------------------------------------------


@cache
def _one_bundle_cell(m: int, k: int) -> int:
    """Sum(l=1..m-5) Sum(i=1..m-l-4) P(m-l-i-2, k+1)."""
    return sum(
        P(m - l - i - 2, k + 1)
        for l in range(1, m - 4)
        for i in range(1, m - l - 3)
    )


@cache
def _upper_part_choices(r: int, s: int) -> int:
    """Sum(i=1..r-4) P(r-i-2, s+1)."""
    return sum(P(r - i - 2, s + 1) for i in range(1, r - 3))


@cache
def _two_bundle_cell(m: int, k: int) -> int:
    """Sum(r=5..m-2) Sum(s=1..k-1) [Sum(i=1..r-4) P(r-i-2, s+1)] P(m-r, k-s+1)."""
    return sum(
        _upper_part_choices(r, s) * P(m - r, k - s + 1)
        for r in range(5, m - 1)
        for s in range(1, k)
    )


@cache
def _stacked_bundles_cell(w: int, q: int) -> int:
    """Sum(l=4..w-3) Sum(t=1..q) P(l-2, t+1) P(w-l-1, q-t+2)."""
    return sum(
        P(l - 2, t + 1) * P(w - l - 1, q - t + 2)
        for l in range(4, w - 2)
        for t in range(1, q + 1)
    )


# -- block strata ------------------------------------------------------------


def b1_blocks(m: int, k: int) -> int:
    """k-stratum of 3-reducible blocks whose fundamental basic block is F1."""
    if m < 6 or k < 1 or k > m - 5:
        return 0
    return _one_bundle_cell(m, k) + _two_bundle_cell(m, k)


def b2_blocks(m: int, k: int) -> int:
    """F2 blocks are the duals of F1 blocks, so the strata have equal sizes."""
    return b1_blocks(m, k)


def b3_blocks(m: int, k: int) -> int:
    """k-stratum of 3-reducible blocks whose fundamental basic block is F3."""
    if m < 7 or k < 1 or k > m - 6:
        return 0
    return _stacked_bundles_cell(m, k)


def b4_blocks(m: int, k: int) -> int:
    """k-stratum of 3-reducible blocks whose fundamental basic block is F4.

    First addend: one outer chain (r = 1..m-7 outer elements), shifting the
    stacked-bundle surplus down by one.  Second: several outer chains,
    P(r, s) ways to shape them.
    """
    if m < 8 or k < 2 or k > m - 6:
        return 0
    one_outer = sum(_stacked_bundles_cell(m - r, k - 1) for r in range(1, m - 6))
    more_outer = sum(
        _stacked_bundles_cell(m - r, k - s) * P(r, s)
        for r in range(2, m - 6)
        for s in range(2, k)
    )
    return one_outer + more_outer


# -- per-block-size totals, reused by the lattice-level sums -----------------


@cache
def _f1_family_total(m: int) -> int:
    """Sum(k=1..m-5) of the F1 one-bundle cells."""
    return sum(_one_bundle_cell(m, k) for k in range(1, m - 4))


@cache
def _f1_split_total(m: int) -> int:
    """Sum(k=2..m-5) of the F1 two-bundle cells."""
    return sum(_two_bundle_cell(m, k) for k in range(2, m - 4))


@cache
def _f3_family_total(m: int) -> int:
    """Sum(k=1..m-6) of the F3 cells."""
    return sum(_stacked_bundles_cell(m, k) for k in range(1, m - 5))


@cache
def _f4_one_outer_total(m: int) -> int:
    """Sum(k=2..m-6) Sum(r=1..m-7) of the single-outer-chain F4 cells."""
    return sum(
        _stacked_bundles_cell(m - r, k - 1)
        for k in range(2, m - 5)
        for r in range(1, m - 6)
    )


@cache
def _f4_more_outer_total(m: int) -> int:
    """Sum(k=3..m-6) Sum(r=2..m-7) Sum(s=2..k-1) of the multi-outer F4 cells."""
    return sum(
        _stacked_bundles_cell(m - r, k - s) * P(r, s)
        for k in range(3, m - 5)
        for r in range(2, m - 6)
        for s in range(2, k)
    )


# -- lattice-level counts ----------------------------------------------------


def l1_lattices(n: int) -> int:
    """Lattices on n elements, 3 reducible elements, fundamental basic block F1."""
    if n < 6:
        return 0
    return sum(
        (j + 1) * (_f1_family_total(n - j) + _f1_split_total(n - j))
        for j in range(0, n - 5)
    )


def l2_lattices(n: int) -> int:
    """The F2 class mirrors the F1 class under duality."""
    return l1_lattices(n)


def l3_lattices(n: int) -> int:
    """Lattices on n elements, 3 reducible elements, fundamental basic block F3."""
    if n < 7:
        return 0
    return sum((j + 1) * _f3_family_total(n - j) for j in range(0, n - 6))


def l4_lattices(n: int) -> int:
    """Lattices on n elements, 3 reducible elements, fundamental basic block F4."""
    if n < 8:
        return 0
    return sum(
        (j + 1) * (_f4_one_outer_total(n - j) + _f4_more_outer_total(n - j))
        for j in range(0, n - 7)
    )


def three_reducible_lattices(n: int) -> int:
    """Lattices on n elements with exactly three reducible elements.

    The published five-sum: the two F1 sums doubled (covering F2 by duality)
    plus the F3 sum and the two F4 sums.
    """
    if n < 6:
        return 0
    return (
        sum(2 * (j + 1) * _f1_family_total(n - j) for j in range(0, n - 5))
        + sum(2 * (j + 1) * _f1_split_total(n - j) for j in range(0, n - 5))
        + sum((j + 1) * _f3_family_total(n - j) for j in range(0, n - 6))
        + sum((j + 1) * _f4_one_outer_total(n - j) for j in range(0, n - 7))
        + sum((j + 1) * _f4_more_outer_total(n - j) for j in range(0, n - 7))
    )
