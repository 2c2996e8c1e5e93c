"""Closed-form counts of lattices and maximal blocks with 2 or 3 reducible
elements, stratified by edge surplus and by fundamental basic block.

The module holds one flat transcription of each published sum, with its
published index bounds and factors, so a disagreement with the enumeration
oracle would implicate the formula cell itself, not the transcription.  All
arithmetic is exact.

These sums are the "formula" column of ``verify`` and the reference the
tests hold ``series`` to.  The CLI's ``count`` and ``table`` read
``series.lattice_counts`` and its ``blocks`` reads ``series.block_counts``,
so no CLI count evaluates these sums.

Conventions: blocks on ``m`` elements with ``m + k`` edges form the
``k``-stratum; ``j`` counts chain padding below/above a maximal block.
"""

from __future__ import annotations

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
    if form not in ("thakare", "block_first"):
        raise ValueError(f"unknown form {form!r}")
    if n < 4:
        return 0
    if form == "thakare":
        return sum(
            j * P(n - j - 1, k)
            for k in range(2, n - 1)
            for j in range(1, n - k)
        )
    return sum(
        (i + 1) * P(n - i - 2, k + 2)
        for i in range(0, n - 3)
        for k in range(0, n - i - 3)
    )


# -- block strata ------------------------------------------------------------


def b1_blocks(m: int, k: int) -> int:
    """k-stratum of 3-reducible blocks whose fundamental basic block is F1.

    The two addends are the published one-bundle and two-bundle sums.
    """
    if m < 6 or k < 1 or k > m - 5:
        return 0
    first = sum(
        P(m - l - i - 2, k + 1)
        for l in range(1, m - 4)
        for i in range(1, m - l - 3)
    )
    second = sum(
        P(r - i - 2, s + 1) * P(m - r, k - s + 1)
        for r in range(5, m - 1)
        for s in range(1, k)
        for i in range(1, r - 3)
    )
    return first + second


def b2_blocks(m: int, k: int) -> int:
    """F2 blocks are the duals of F1 blocks, so the strata have equal sizes."""
    return b1_blocks(m, k)


def b3_blocks(m: int, k: int) -> int:
    """k-stratum of 3-reducible blocks whose fundamental basic block is F3."""
    if m < 7 or k < 1 or k > m - 6:
        return 0
    return sum(
        P(l - 2, t + 1) * P(m - l - 1, k - t + 2)
        for l in range(4, m - 2)
        for t in range(1, k + 1)
    )


def b4_blocks(m: int, k: int) -> int:
    """k-stratum of 3-reducible blocks whose fundamental basic block is F4.

    First addend: one outer chain (r = 1..m-7 outer elements), shifting the
    stacked-bundle surplus down by one.  Second: several outer chains,
    P(r, s) ways to shape them.
    """
    if m < 8 or k < 2 or k > m - 6:
        return 0
    first = sum(
        P(l - 2, t + 1) * P(m - r - l - 1, k - t + 1)
        for r in range(1, m - 6)
        for l in range(4, m - r - 2)
        for t in range(1, k)
    )
    second = sum(
        P(l - 2, t + 1) * P(m - r - l - 1, k - s - t + 2) * P(r, s)
        for r in range(2, m - 6)
        for s in range(2, k)
        for l in range(4, m - r - 2)
        for t in range(1, k - s + 1)
    )
    return first + second


# -- lattice-level counts ----------------------------------------------------


def l1_lattices(n: int) -> int:
    """Lattices on n elements, 3 reducible elements, fundamental basic block F1."""
    if n < 6:
        return 0
    first = sum(
        (j + 1) * P(n - j - l - i - 2, k + 1)
        for j in range(0, n - 5)
        for k in range(1, n - j - 4)
        for l in range(1, n - j - 4)
        for i in range(1, n - j - l - 3)
    )
    second = sum(
        (j + 1) * P(r - i - 2, s + 1) * P(n - j - r, k - s + 1)
        for j in range(0, n - 5)
        for k in range(2, n - j - 4)
        for r in range(5, n - j - 1)
        for s in range(1, k)
        for i in range(1, r - 3)
    )
    return first + second


def l2_lattices(n: int) -> int:
    """The F2 class mirrors the F1 class under duality."""
    return l1_lattices(n)


def l3_lattices(n: int) -> int:
    """Lattices on n elements, 3 reducible elements, fundamental basic block F3."""
    if n < 7:
        return 0
    return sum(
        (j + 1) * P(l - 2, t + 1) * P(n - j - l - 1, k - t + 2)
        for j in range(0, n - 6)
        for k in range(1, n - j - 5)
        for l in range(4, n - j - 2)
        for t in range(1, k + 1)
    )


def l4_lattices(n: int) -> int:
    """Lattices on n elements, 3 reducible elements, fundamental basic block F4."""
    if n < 8:
        return 0
    first = sum(
        (j + 1) * P(l - 2, t + 1) * P(n - j - r - l - 1, k - t + 1)
        for j in range(0, n - 7)
        for k in range(2, n - j - 5)
        for r in range(1, n - j - 6)
        for l in range(4, n - j - r - 2)
        for t in range(1, k)
    )
    second = sum(
        (j + 1) * P(l - 2, t + 1) * P(n - j - r - l - 1, k - s - t + 2) * P(r, s)
        for j in range(0, n - 7)
        for k in range(3, n - j - 5)
        for r in range(2, n - j - 6)
        for s in range(2, k)
        for l in range(4, n - j - r - 2)
        for t in range(1, k - s + 1)
    )
    return first + second


def three_reducible_lattices(n: int) -> int:
    """Lattices on n elements with exactly three reducible elements.

    The published five-sum is exactly 2·l1 + l3 + l4: the two F1 sums of
    ``l1_lattices`` doubled (covering F2 by duality), the F3 sum of
    ``l3_lattices`` and the two F4 sums of ``l4_lattices``.
    """
    return 2 * l1_lattices(n) + l3_lattices(n) + l4_lattices(n)
