"""Adjunct sums, direct sums, and chain decompositions of dismantlable lattices.

An adjunct sum glues a lattice into the gap of a strictly comparable non-cover
pair ``(a, b)``, adding exactly the covers ``a < bottom`` and ``top < b`` of
the glued part.  A dismantlable lattice is exactly an adjunct of chains, and
:func:`decompose` recovers such a representation when all reducible elements
are pairwise comparable.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .poset import (
    CoverDigraph,
    Lattice,
    LatticeError,
    _bits,
    as_lattice,
    build_poset,
    classify_elements,
    is_dismantlable,
    maximal_chains_in_interval,
    meet_join,
)


class PairIsCover(LatticeError):
    pass


class PairNotComparable(LatticeError):
    pass


class NotDismantlable(LatticeError):
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

    The covers of every attachment go into one list, each pair checked
    against the order built so far, and :func:`as_lattice` checks the
    sorted list once at the end: an adjunct sum of lattices at a non-cover
    pair is a lattice.
    """
    n = rep.chains[0]
    covers = [(v, v + 1) for v in range(n - 1)]
    # strict up-set masks of the order built so far
    up = [(1 << n) - (2 << v) for v in range(n)]
    for i, (length, pair) in enumerate(zip(rep.chains[1:], rep.pairs)):
        a, b = pair.a, pair.b
        if not (0 <= a < n and 0 <= b < n):
            raise PairNotComparable(f"attachment {i}: pair ({a}, {b}) not realized yet")
        if not up[a] >> b & 1:
            raise PairNotComparable(f"attachment {i}: need a < b, got ({a}, {b})")
        if (a, b) in covers:
            raise PairIsCover(
                f"attachment {i}: ({a}, {b}) is a cover; nothing fits in between"
            )
        # the chain n < ... < n + length - 1 glued between a and b
        covers.append((a, n))
        covers.extend((v, v + 1) for v in range(n, n + length - 1))
        covers.append((n + length - 1, b))
        glued = (1 << (n + length)) - (1 << n)
        above_b = up[b] | 1 << b
        for v in range(n):
            if v == a or up[v] >> a & 1:
                up[v] |= glued
        up.extend(((1 << (n + length)) - (2 << v)) | above_b for v in range(n, n + length))
        n += length
    return as_lattice(CoverDigraph(n, tuple(sorted(covers))))


def pair_multiplicity(l: Lattice, a: int, b: int) -> int:
    """How often ``(a, b)`` occurs as a glue pair in any adjunct representation.

    Counts the largest family of maximal chains of [a, b] whose interiors
    pairwise meet at ``a`` and join at ``b``; the pair occurs one time fewer
    than that family is large.
    """
    chains = maximal_chains_in_interval(l, a, b)
    interiors = [c[1:-1] for c in chains]
    k = len(chains)
    compatible = [[False] * k for _ in range(k)]
    for i, j in combinations(range(k), 2):
        ok = all(
            meet_join(l, x, y) == (a, b)
            for x in interiors[i]
            for y in interiors[j]
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
    """Write ``l`` as an adjunct of chains over a spine through its reducibles.

    The spine is the lexicographically smallest maximal chain containing every
    reducible element; the remaining elements fall apart into pendant-free
    chains, each glued at a pair of reducible spine elements.  Requires ``l``
    dismantlable with pairwise comparable reducibles.
    """
    spine, components = spine_and_components(l)
    return AdjunctRep(
        chains=(len(spine), *(len(elems) for _, _, elems in components)),
        pairs=tuple(AdjunctPair(a, b) for a, b, _ in components),
    )


def spine_and_components(
    l: Lattice,
) -> tuple[tuple[int, ...], list[tuple[int, int, tuple[int, ...]]]]:
    """Spine labels plus the off-spine chains, each with its glue pair.

    Components come back as ``(a_pos, b_pos, elements)`` with positions along
    the spine and elements listed bottom to top, sorted by pair then length.
    Raises :class:`NotDismantlable` or :class:`IncomparableReducibles` when
    no such decomposition exists.
    """
    cls = classify_elements(l)
    for x, y in combinations(sorted(cls.red), 2):
        if not (l.le(x, y) or l.le(y, x)):
            raise IncomparableReducibles(f"reducible elements {x} and {y}")
    if not is_dismantlable(l):
        raise NotDismantlable("lattice contains a crown")
    if l.n == 1:
        return (l.bottom,), []
    spine = min(
        c
        for c in maximal_chains_in_interval(l, l.bottom, l.top)
        if cls.red <= set(c)
    )
    spine_pos = {v: i for i, v in enumerate(spine)}
    up = l.digraph.up_adjacency()
    dn = l.digraph.down_adjacency()
    components: list[tuple[int, int, tuple[int, ...]]] = []
    seen: set[int] = set()
    for v in range(l.n):
        if v in spine_pos or v in seen:
            continue
        elems = _offspine_chain(v, up, dn, spine_pos)
        seen.update(elems)
        low = _bits(dn[elems[0]])[0]
        high = _bits(up[elems[-1]])[0]
        components.append((spine_pos[low], spine_pos[high], tuple(elems)))
    components.sort(key=lambda t: (t[0], t[1], len(t[2])))
    return spine, components


def _offspine_chain(start, up, dn, spine_pos) -> list[int]:
    """The off-spine cover-path through ``start``, listed bottom to top."""
    component = [start]
    while True:
        nxt = [w for w in _bits(up[component[-1]]) if w not in spine_pos]
        if not nxt:
            break
        component.append(nxt[0])
    while True:
        prev = [w for w in _bits(dn[component[0]]) if w not in spine_pos]
        if not prev:
            break
        component.insert(0, prev[0])
    return component
