"""Adjunct sums, direct sums, and the normal form of lattices whose
reducible elements form a chain.

An adjunct sum glues a lattice into the gap of a strictly comparable non-cover
pair ``(a, b)``, adding exactly the covers ``a < bottom`` and ``top < b`` of
the glued part.  A dismantlable lattice is exactly an adjunct of chains.
When the reducible elements form a chain b0 < ... < b(r-1), one recipe
layout (:func:`_spine_recipe`) fixes the lattice up to isomorphism: the
padding below b0 and above b(r-1) and, for each pair of b's, the sizes of
the chains between them.  ``oracle._block_reps`` lists the blocks in that
layout, and :func:`decompose` reads it off a lattice's cover rows.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import NamedTuple

from .poset import (
    CoverDigraph,
    Lattice,
    LatticeError,
    _bits,
    _cover_rows,
    _joined,
    _reducibles,
    as_lattice,
    build_poset,
    maximal_chains_in_interval,
)


class PairIsCover(LatticeError):
    pass


class PairNotComparable(LatticeError):
    pass


class IncomparableReducibles(LatticeError):
    pass


class AdjunctPair(NamedTuple):
    """A glue pair ``a < b`` with ``b`` not covering ``a``."""

    a: int
    b: int


class _AdjunctRepFields(NamedTuple):
    """The fields of :class:`AdjunctRep`, which checks them at construction."""

    chains: tuple[int, ...]
    pairs: tuple[AdjunctPair, ...]


class AdjunctRep(_AdjunctRepFields):
    """An adjunct-of-chains recipe.

    ``chains[0]`` is the spine length; attachment ``i`` glues a fresh chain of
    ``chains[i + 1]`` elements at ``pairs[i]``.  Pair labels refer to the
    partial lattice realized so far; chain ``i`` occupies the next block of
    labels, bottom to top.  Elements total ``sum(chains)`` and the edge count
    is ``sum(chains) + len(chains) - 2``.
    """

    __slots__ = ()

    def __new__(cls, chains: tuple[int, ...], pairs: tuple[AdjunctPair, ...]):
        if len(chains) != len(pairs) + 1:
            raise ValueError("need exactly one pair per attached chain")
        if any(c < 1 for c in chains):
            raise ValueError("chain lengths must be positive")
        return super().__new__(cls, chains, pairs)

    @classmethod
    def _make(cls, iterable) -> AdjunctRep:
        # the inherited ``_make``, which ``_replace`` calls, skips ``__new__``
        return cls(*iterable)


def adjunct_sum(l1: Lattice, l2: Lattice, a: int, b: int) -> Lattice:
    """Glue ``l2`` (relabeled past ``l1``) into the gap of pair ``(a, b)`` of ``l1``."""
    if not (0 <= a < l1.n and 0 <= b < l1.n):
        raise PairNotComparable(f"pair ({a}, {b}) outside of the host lattice")
    if a == b or not l1.le(a, b):
        raise PairNotComparable(f"need a < b, got ({a}, {b})")
    if (a, b) in l1.covers:
        raise PairIsCover(f"({a}, {b}) is a cover; nothing fits in between")
    shift = l1.n
    covers = list(l1.covers)
    covers.extend((x + shift, y + shift) for x, y in l2.covers)
    covers.append((a, l2.bottom + shift))
    covers.append((l2.top + shift, b))
    return as_lattice(CoverDigraph(l1.n + l2.n, tuple(sorted(covers))))


def direct_sum(m: CoverDigraph, p: CoverDigraph) -> CoverDigraph:
    """Ordered sum: all of ``p`` (relabeled past ``m``) above all of ``m``."""
    m_up = m.up_adjacency()
    p_dn = p.down_adjacency()
    maximal = [v for v in range(m.n) if m_up[v] == 0]
    minimal = [v for v in range(p.n) if p_dn[v] == 0]
    covers = list(m.covers)
    covers.extend((x + m.n, y + m.n) for x, y in p.covers)
    covers.extend((x, y + m.n) for x in maximal for y in minimal)
    return build_poset(m.n + p.n, covers)


def realize(rep: AdjunctRep) -> Lattice:
    """Fold the adjunct sums of ``rep`` into a lattice.

    Only a bitmask row of upper covers per element is kept while the chains
    are glued, each pair checked against the covers built so far.  The rows
    emit the covers in sorted order, and :func:`as_lattice` works out the
    order and checks it once at the end: an adjunct sum of lattices at a
    non-cover pair is a lattice.
    """
    n = rep.chains[0]
    rows = [1 << (v + 1) for v in range(n - 1)] + [0]
    for i, (length, pair) in enumerate(zip(rep.chains[1:], rep.pairs)):
        a, b = pair.a, pair.b
        if not (0 <= a < n and 0 <= b < n):
            raise PairNotComparable(f"attachment {i}: pair ({a}, {b}) not realized yet")
        if not _joined(rows, a, b, 0):
            raise PairNotComparable(f"attachment {i}: need a < b, got ({a}, {b})")
        if rows[a] >> b & 1:
            raise PairIsCover(
                f"attachment {i}: ({a}, {b}) is a cover; nothing fits in between"
            )
        # the chain n < ... < n + length - 1 glued between a and b
        rows[a] |= 1 << n
        rows.extend(1 << (v + 1) for v in range(n, n + length - 1))
        rows.append(1 << b)
        n += length
    covers = [(a, b) for a in range(n) for b in _bits(rows[a])]
    return as_lattice(CoverDigraph(n, tuple(covers)))


def pair_multiplicity(l: Lattice, a: int, b: int) -> int:
    """How often ``(a, b)`` occurs as a glue pair in any adjunct representation.

    Counts the largest family of maximal chains of [a, b] whose interiors
    pairwise meet at ``a`` and join at ``b``; the pair occurs one time fewer
    than that family is large.  Two interiors do so exactly when their top
    elements meet at ``a`` and their bottom elements join at ``b``, since
    each interior lies between its bottom and its top.
    """
    chains = maximal_chains_in_interval(l, a, b)
    k = len(chains)
    compatible = [[False] * k for _ in range(k)]
    # with two or more chains, b covers no a, so every interior is non-empty
    for (i, c), (j, d) in combinations(enumerate(chains), 2):
        ok = (
            l.down[c[-2]] & l.down[d[-2]] == l.down[a]
            and l.up[c[1]] & l.up[d[1]] == l.up[b]
        )
        compatible[i][j] = compatible[j][i] = ok
    return _max_clique(k, compatible) - 1


def _max_clique(k: int, adj: list[list[bool]]) -> int:
    best = 0

    def grow(clique: int, candidates: list[int]) -> None:
        nonlocal best
        if clique + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, clique)
            return
        head, *rest = candidates
        grow(clique + 1, [v for v in rest if adj[head][v]])
        grow(clique, rest)

    grow(0, list(range(k)))
    return best


def decompose(l: Lattice) -> AdjunctRep:
    """The normal form of a lattice whose reducible elements form a chain
    b0 < ... < b(r-1), which does not depend on labels: the recipe that
    ``oracle._block_reps`` lists for its maximal block, padded on the spine.

    Each element that is no b and not in the padding below b0 or above
    b(r-1) lies on one path between two b's, which the walk up from an
    upper cover of b0..b(r-2) follows through elements of one upper cover.
    ``l.down[b0]`` and ``l.up[b(r-1)]`` hold the b itself.  Raises
    :class:`IncomparableReducibles` naming the first two reducibles,
    ordered by up-set size, that are not comparable.
    """
    # by up-set size, largest first: lowest first where they form a chain
    up, down = _cover_rows(l.digraph)
    red = _reducibles(up, down)
    red.sort(key=lambda v: -l.up[v].bit_count())
    for x, y in zip(red, red[1:]):
        if not l.up[x] >> y & 1:
            raise IncomparableReducibles(f"reducible elements {x} and {y}")
    if not red:
        return AdjunctRep((l.n,), ())
    index = {v: i for i, v in enumerate(red)}
    lengths: dict = {pair: [] for pair in _spine_pairs(len(red))}
    for i, b in enumerate(red[:-1]):
        for v in _bits(up[b]):
            k = 0
            while v not in index:
                v, k = up[v].bit_length() - 1, k + 1
            lengths[i, index[v]].append(k)
    bundles = [sorted(paths) for paths in lengths.values()]
    below, above = l.down[red[0]].bit_count() - 1, l.up[red[-1]].bit_count() - 1
    return _spine_recipe(len(red), bundles, below, above)


@cache
def _spine_pairs(r: int) -> tuple[tuple[int, int], ...]:
    """The pairs i < j of the spine: consecutive first, then those that skip a b."""
    return tuple(sorted(combinations(range(r), 2), key=lambda p: (p[1] > p[0] + 1, p)))


def _spine_recipe(r: int, bundles, below: int = 0, above: int = 0) -> AdjunctRep:
    """The recipe with ``bundles[k]``, ascending, the sizes of the chains
    between the ends of the k-th :func:`_spine_pairs` pair, and ``below``
    and ``above`` elements of padding.  The spine, chain 0, runs through
    the first chain of each consecutive pair's bundle; a size of 0 there
    is a bare cover.  The other chains follow in pair order."""
    b = [below]  # the spine label of each b
    chains, glue = [0], []  # the spine's length goes first, once b is known
    for (i, j), bundle in zip(_spine_pairs(r), bundles):
        if j == i + 1:
            b.append(b[i] + bundle[0] + 1)
            bundle = bundle[1:]
        chains += bundle
        glue += [AdjunctPair(b[i], b[j])] * len(bundle)
    chains[0] = b[-1] + 1 + above
    return AdjunctRep(tuple(chains), tuple(glue))
