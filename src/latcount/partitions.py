"""Counting and listing integer partitions into exactly k positive parts.

Counts are exact Python integers and come from the recurrence
``count(n, k) = count(n - 1, k - 1) + count(n - k, k)`` (split on whether the
smallest part equals 1).  One shared table of rows backs the counts: row ``n``
holds ``count(n, k)`` for ``k = 0..n`` and is built from the rows below it, so
the table grows one row at a time up to the largest ``n`` asked for.
"""

from __future__ import annotations

_TABLE: list[list[int]] = [[1]]


def partition_count(n: int, k: int) -> int:
    """Number of non-decreasing positive k-tuples summing to n (0 out of range)."""
    if not 0 <= k <= n:
        return 0
    while len(_TABLE) <= n:
        m = len(_TABLE)
        _TABLE.append(
            [0]
            + [
                _TABLE[m - 1][j - 1] + (_TABLE[m - j][j] if 2 * j <= m else 0)
                for j in range(1, m + 1)
            ]
        )
    return _TABLE[n][k]


def enumerate_partitions(n: int, k: int) -> list[tuple[int, ...]]:
    """All non-decreasing positive k-tuples summing to n, in lexicographic order."""
    if k <= 0:
        return [()] if n == k == 0 else []
    out: list[tuple[int, ...]] = []
    parts: list[int] = []

    def extend(remaining: int, slots: int, minimum: int) -> None:
        if slots == 1:
            if remaining >= minimum:
                out.append(tuple(parts + [remaining]))
            return
        first = minimum
        while first * slots <= remaining:
            parts.append(first)
            extend(remaining - first, slots - 1, first)
            parts.pop()
            first += 1

    extend(n, k, 1)
    return out
