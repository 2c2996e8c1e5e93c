"""Generating functions for the lattice and block counts, as exact integer
power series.

A series is a list of Python integers, the coefficients of x⁰, x¹, ... up to
the largest size asked for; x marks an element.  Series are built on
demand, and P and every y-row below come from one primitive, ``_divide``:
dividing by 1 − xʲ in place.

The factors follow the recipes of ``oracle._block_reps``.
A 3-reducible block has its reducibles on a spine bottom < mid < top
(the factor x³) and three bundles of parallel chains, or routes: ``low``
between bottom and mid, ``high`` between mid and top, ``outer`` from bottom
to top.  P = ∏_{i≥1} 1/(1 − xⁱ) counts a bundle of non-empty routes, P − 1
one with at least one route (``outer``), M = P − 1/(1−x) one with two or more
(the bundle that makes its ends reducible), and 1/(1−x) a single route,
possibly a bare cover (``low`` of F1; F2 mirrors it in ``high``).  So the
maximal blocks are x² M (two reducibles), x³ M (P−1)/(1−x) (F1, and F2),
x³ M² (F3) and x³ M² (P−1) (F4).  A lattice is a maximal block padded by
j chain elements split between below and above in j + 1 ways, so
L(B) = B/(1−x)², and

    L2 = x² M / (1−x)²,
    L3 = x³/(1−x)² · [2 M (P−1)/(1−x) + M² P].

A route of c elements brings c + 1 edges, so a block on m elements with
m + k edges has d = k + 3 routes (d − 1 with two reducibles).  For one such
stratum y marks a route, and a series in x and y is kept as its y-rows in
excess coordinates, where xᵉyʲ is j non-empty routes with j + e elements.
There P is R = ∏_{i≥0} 1/(1 − y xⁱ), M is R − 1 − yu, and u = 1/(1−x) is
row 1 of R.  Euler's shift identity R(x, xy) = (1 − y) R gives
Rᵖ(x, xy) = (1 − y)ᵖ Rᵖ, so row j of Rᵖ times 1 − xʲ is
Σ_{i=1..p} (−1)^{i+1} C(p, i) · row (j − i), with row 0 equal to 1.  Six
rows of R, R² and R³ then give every stratum, multiplying by u being a
running sum; F1 takes its single low route, which may be a bare cover, as
the separate factor y/(1−x):

    two reducibles  [y^(d−1)] M      = R[d−1]
    F1 (and F2)     [y^(d−1)] M(R−1) = R²[d−1] − 2R[d−1] − u R[d−2]
    F3              [y^d] M²         = R²[d] − 2R[d] − 2u R[d−1]
    F4              [y^d] M²(R−1)    = R³[d] − 2R²[d] − 2u R²[d−1] + R[d]
                                       + 2u R[d−1] + u² R[d−2] − [y^d] M²

A third derivation of the counts, next to the published sums in ``formulas``
and the enumerations in ``oracle``, sharing no table with either.  Which
derivation backs which range of the printed counts:

- to n = 12, the oracles: ``verify`` compares their members with
  ``formulas``;
- to n = 26 (classes) and m = 30 (strata), the flat sums in ``formulas``,
  which the tests hold the series to;
- to ``LIMIT``, the strata: summed over k = −1..m + 1, ``block_counts(m, k)``
  gives every block total, and padding by L(n) = Σ_j (j + 1) B(n − j) every
  lattice class (``tests/test_series.py``, to 120 by default and to
  ``LIMIT`` under ``slow``).  The strata come from the shift identity, the
  totals from the products of P and M; both rest on ``_divide`` and the
  partition numbers, which the tests check against
  ``partitions.partition_count``.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul

from .errors import SizeLimitExceeded

# Largest size the series are built for (exit 3 above it).  The slowest query
# at this size, `blocks --m-to 330 --k K` with K near m / 2, takes 0.05 s
# in-process and 0.18 s cold on a 2-core x86 host with Python 3.11.
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
        p = _partitions(length)
        many = [c - 1 for c in p]
        some = [c - (n == 0) for n, c in enumerate(p)]
        m2 = many
        f1 = _mul(many, some)
        f3 = _mul(many, many)
        f4 = _mul(f3, some)
        # x-degree of index 0: the reducibles on the spine
        starts = (2, 3, 3)
    else:
        # A block of the stratum with at most m_max elements has excess at
        # most m_max - k - 4; there is none for k < 0.
        d, excess = k + 3, m_max - k - 3
        if k < 0 or excess <= 0:
            m2 = f1 = f3 = f4 = []
        else:
            r1, r2, r3 = _route_rows(d, excess)
            u1, u2 = (list(accumulate(r1[d - i])) for i in (1, 2))
            m2 = r1[d - 1]
            f1 = _combine((1, -2, -1), (r2[d - 1], r1[d - 1], u2))
            f3 = _combine((1, -2, -2), (r2[d], r1[d], u1))
            f4 = _combine(
                (1, -2, -2, 1, 2, 1, -1),
                (r3[d], r2[d], accumulate(r2[d - 1]), r1[d], u1, accumulate(u2), f3),
            )
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


def _divide(a: list[int], j: int) -> None:
    """a / (1 − xʲ) in place, truncated to the length of ``a``."""
    for e in range(j, len(a)):
        a[e] += a[e - j]


def _partitions(length: int) -> list[int]:
    """P = ∏_{i≥1} 1/(1 − xⁱ), the partition numbers."""
    p = ([1] + [0] * length)[:length]
    for i in range(1, length):
        _divide(p, i)
    return p


def _route_rows(d: int, length: int) -> list[list[list[int]]]:
    """Rows 0..d of R, R² and R³, each a series of ``length`` coefficients."""
    powers = []
    # (−1)^(i+1) C(p, i) for i = 1..p, p = 1, 2, 3
    for signs in ((1,), (2, -1), (3, -3, 1)):
        rows = [[1] + [0] * (length - 1)]
        for j in range(1, d + 1):
            # rows j − 1, j − 2, ..., one per sign, none below row 0
            row = _combine(signs, rows[: -len(signs) - 1 : -1])
            _divide(row, j)
            rows.append(row)
        powers.append(rows)
    return powers


def _combine(coefficients, series) -> list[int]:
    """Σ coefficients[i] · series[i], for series of one length."""
    return [sum(map(mul, coefficients, column)) for column in zip(*series)]


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
