"""Generating functions for the lattice and block counts, as exact integer
power series.

A series is a list of Python integers, the coefficients of x⁰, x¹, ... up to
the largest size asked for.  x marks an element.  For the edge-surplus
strata a second variable y marks a route, one chain of a bundle; such a
series is a list of x-series, its coefficients of y⁰, y¹, ...

The factors follow the recipes of ``oracle._three_reducible_block_reps``.
A 3-reducible block has its reducibles on a spine bottom < mid < top
(the factor x³) and three bundles of parallel chains: ``low`` between bottom
and mid, ``high`` between mid and top, ``outer`` from bottom to top.

* P = Σ partition_count(n, j) xⁿ yʲ: a bundle of j non-empty routes with
  n elements in all, j ≥ 0.
* P − 1: at least one route; the ``outer`` bundle when it is present.
* M = P − 1 − yx/(1−x): two or more parallel routes, the bundle that makes
  its ends reducible.  With y = 1 it is P − 1/(1−x).
* y/(1−x): a single route, possibly a bare cover; the ``low`` bundle of an
  F1 block (F2 mirrors it in ``high``).

So the blocks on m elements with m + k edges, which have k + 3 routes, are
counted by

* F1 (and F2): [y^(k+3)] x³ · y/(1−x) · M · (P−1), low single, high M;
* F3: [y^(k+3)] x³ · M · M, outer empty;
* F4: [y^(k+3)] x³ · M · M · (P−1);

and a 2-reducible block, one bundle between bottom and top with k + 2
routes, by [y^(k+2)] x² · M.  Setting y = 1 sums the strata.  A lattice is a
maximal block padded by j chain elements split between below and above in
j + 1 ways, so its series is L(B) = B/(1−x)².  In all

    L2 = x² M / (1−x)²,
    L3 = x³/(1−x)² · [2 M (P−1)/(1−x) + M² P].

These are a third derivation of the counts, next to the published sums in
``formulas`` and the enumerations in ``oracle``.  Every series is built on
demand, sized to the largest n asked for, from the one partition table.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul

from .oracle import SizeLimitExceeded
from .partitions import partition_count

# Largest lattice or block size the series are built for.  A stratum costs
# about (k (m - k))² / 8 integer products, so the slowest query at this size is
# `blocks --m-to 330 --k` with k near m / 2: 8.6 s on a 2-core x86 host with
# Python 3.11, where `table --reducible 3 --n-to 330` takes 0.26 s.
LIMIT = 330


def check_size(n: int) -> None:
    """Raise ``SizeLimitExceeded`` when ``n`` is above ``LIMIT``."""
    if n > LIMIT:
        raise SizeLimitExceeded(f"series capped at {LIMIT} elements")


def lattice_counts(reducible: int, n_max: int) -> dict[str, list[int]]:
    """Lattice counts for n = 0..n_max (empty lists for n_max < 0).

    Keys: ``total`` for ``reducible == 2``; ``l1``, ``l2``, ``l3``, ``l4``
    (one per fundamental basic block) and ``total`` for ``reducible == 3``.
    """
    if reducible not in (2, 3):
        raise ValueError(f"reducible count must be 2 or 3, got {reducible}")
    blocks = block_counts(n_max)
    if reducible == 2:
        return {"total": _padded(blocks["two_reducible"])}
    out = {f"l{i}": _padded(blocks[f"b{i}"]) for i in range(1, 5)}
    out["total"] = [sum(row) for row in zip(*out.values())]
    return out


def block_counts(m_max: int, k: int | None = None) -> dict[str, list[int]]:
    """Maximal block counts for m = 0..m_max (empty lists for m_max < 0).

    Keys: ``two_reducible``, ``b1``, ``b2``, ``b3``, ``b4``.  Without ``k``
    each count sums every edge surplus; with ``k`` it is the stratum of
    blocks with m + k edges.
    """
    check_size(m_max)
    length = max(m_max + 1, 0)
    if k is None:
        p = [sum(partition_count(n, j) for j in range(n + 1)) for n in range(length)]
        many = [c - 1 for c in p]
        some = [c - (n == 0) for n, c in enumerate(p)]
        m2 = many
        f1 = _mul(many, some)
        f3 = _mul(many, many)
        f4 = _mul(f3, some)
        # x-degree of index 0: the reducibles on the spine
        starts = (2, 3, 3)
    else:
        # y-rows up to y^(k+3) in excess coordinates: row j holds the
        # coefficient of x^(j+e) at index e.  A block of the stratum with at
        # most m_max elements has excess at most m_max - k - 4.
        excess = max(min(m_max, m_max - k - 4) + 1, 0)
        p = [
            [partition_count(j + e, j) for e in range(excess)]
            for j in range(k + 4 if excess else 0)
        ]
        zero = [0] * excess
        many = [row if j >= 2 else zero for j, row in enumerate(p)]
        some = [row if j >= 1 else zero for j, row in enumerate(p)]
        squares = [_square_row(many, d, excess) for d in range(len(p))]
        m2 = _row(many, k + 2, excess)
        f1 = _product_row(many, some, k + 2, excess)
        f3 = _row(squares, k + 3, excess)
        f4 = _product_row(squares, some, k + 3, excess)
        # the reducibles on the spine plus one element per route of the row
        starts = (k + 4, k + 5, k + 6)
    b1 = _shifted(list(accumulate(f1)), starts[1], length)
    return {
        "two_reducible": _shifted(m2, starts[0], length),
        "b1": b1,
        "b2": b1,
        "b3": _shifted(f3, starts[2], length),
        "b4": _shifted(f4, starts[2], length),
    }


def _padded(block: list[int]) -> list[int]:
    """B/(1−x)²: j padding elements split below and above in j + 1 ways."""
    return list(accumulate(accumulate(block)))


def _shifted(a: list[int], s: int, length: int) -> list[int]:
    """The coefficients of xˢ · a at x⁰ .. x^(length−1)."""
    return [a[n - s] if 0 <= n - s < len(a) else 0 for n in range(length)]


def _order(a: list[int]) -> int:
    """Index of the first non-zero coefficient (the length if there is none)."""
    return next((i for i, c in enumerate(a) if c), len(a))


def _mul(a: list[int], b: list[int]) -> list[int]:
    """a · b for two series of one length, truncated to that length."""
    n = len(a)
    i0, j0 = _order(a), _order(b)
    rb = b[::-1]
    out = [0] * n
    for d in range(i0 + j0, n):
        # pairs a[i] · b[d - i] for i = i0 .. d - j0
        out[d] = sum(map(mul, a[i0 : d - j0 + 1], rb[n - 1 - d + i0 : n - j0]))
    return out


def _row(rows: list[list[int]], d: int, length: int) -> list[int]:
    """The y^d coefficient of a series given by its y-rows."""
    return rows[d] if 0 <= d < len(rows) else [0] * length


def _product_row(a: list[list[int]], b: list[list[int]], d: int, length: int) -> list[int]:
    """The y^d coefficient of a · b, both given by their y-rows."""
    out = [0] * length
    for i, row in enumerate(a):
        if 0 <= d - i < len(b):
            out = list(map(add, out, _mul(row, b[d - i])))
    return out


def _square_row(a: list[list[int]], d: int, length: int) -> list[int]:
    """The y^d coefficient of a · a: each pair of distinct rows once, doubled."""
    out = [0] * length
    for i in range(max(0, d - len(a) + 1), (d + 1) // 2):
        out = list(map(add, out, _mul(a[i], a[d - i])))
    out = [2 * c for c in out]
    if d % 2 == 0 and d // 2 < len(a):
        out = list(map(add, out, _mul(a[d // 2], a[d // 2])))
    return out
