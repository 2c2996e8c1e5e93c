"""Brute-force references for the extension search in ``search``, shared by
the test modules.

``reference_level`` rebuilds each search level the slow way and keeps the
first child found per certificate, the states the search kept before it
chose each class's state by canonical augmentation.  The pins that hash
labels of search states read these states, so they stay fixed whichever
representative the search keeps.  ``automorphisms`` lists every
automorphism of a cover digraph, without the canonizer.
``search_lattices`` builds the census lattices as ``Lattice`` values, which
the census itself keeps as certificates.
"""

from functools import cache
from itertools import permutations, product

from latcount import search
from latcount.canon import Certificate, canonical_certificate, decode_certificate
from latcount.poset import Lattice, NotALattice, as_lattice, build_poset


def top_adjoined(downs) -> list[tuple[int, int]]:
    """Cover pairs of a state's order with a top above everything, by
    transitive reduction of the down-sets."""
    k = len(downs)
    below = [*downs, (1 << k) - 1]
    return [
        (j, i)
        for i in range(k + 1)
        for j in range(k + 1)
        if below[i] >> j & 1
        and not any(below[i] >> l & 1 and below[l] >> j & 1 for l in range(k + 1))
    ]


@cache
def reference_level(k: int) -> dict[Certificate, tuple[int, ...]]:
    """The states of search level k, by the certificate of the lattice each
    becomes.  Level k + 1 tries, for every state of level k in order, every
    down-closed mask with the bottom in ascending order as the down-set of
    a new element; ``as_lattice`` decides whether the child with a top
    adjoined is a lattice, and each certificate keeps the first child."""
    if k == 1:
        return {canonical_certificate(build_poset(2, [(0, 1)])): (0,)}
    level = {}
    for downs in reference_level(k - 1).values():
        for mask in range(1, 1 << (k - 1), 2):
            if any(mask >> j & 1 and downs[j] & ~mask for j in range(k - 1)):
                continue
            child = (*downs, mask)
            try:
                lat = as_lattice(build_poset(k + 1, top_adjoined(child)))
            except NotALattice:
                continue
            level.setdefault(canonical_certificate(lat.digraph), child)
    return level


def reference_lattices(n: int) -> dict[Certificate, Lattice]:
    """Every n-element lattice, built from the state of ``reference_level``
    it adds a top to, in the labels of that state."""
    if n == 1:
        lat = as_lattice(build_poset(1, []))
        return {canonical_certificate(lat.digraph): lat}
    return {
        cert: as_lattice(build_poset(n, top_adjoined(downs)))
        for cert, downs in reference_level(n - 1).items()
    }


def search_lattices(n: int) -> dict[Certificate, Lattice]:
    """Every n-element lattice of the exhaustive search (n <=
    ``search.FULL_SEARCH_LIMIT``), by certificate in sorted order, decoded
    into the canonical labels its certificate encodes and checked by
    ``as_lattice``."""
    return {
        cert: as_lattice(decode_certificate(cert))
        for cert in sorted(search.enumerate_all_lattices(n))
    }


def automorphisms(n: int, up) -> list[tuple[int, ...]]:
    """Every permutation of ``0..n-1`` that keeps the cover rows ``up`` and
    maps each vertex onto one with the same (height, lower covers, upper
    covers, depth): all automorphisms, tried cell by cell."""
    down = [sum(1 << v for v in range(n) if up[v] >> w & 1) for w in range(n)]

    @cache
    def height(v):
        return max((height(w) + 1 for w in range(n) if down[v] >> w & 1), default=0)

    @cache
    def depth(v):
        return max((depth(w) + 1 for w in range(n) if up[v] >> w & 1), default=0)

    cells: dict[tuple, list[int]] = {}
    for v in range(n):
        seed = (height(v), down[v].bit_count(), up[v].bit_count(), depth(v))
        cells.setdefault(seed, []).append(v)
    found = []
    for images in product(*(permutations(cell) for cell in cells.values())):
        g = [0] * n
        for cell, image in zip(cells.values(), images):
            for v, w in zip(cell, image):
                g[v] = w
        if all(
            sum(1 << g[w] for w in range(n) if up[v] >> w & 1) == up[g[v]]
            for v in range(n)
        ):
            found.append(tuple(g))
    return found


def orbits(n: int, gens) -> list[frozenset[int]]:
    """The vertex orbits, sorted, of the group the permutations ``gens``
    generate."""
    out = []
    seen: set[int] = set()
    for v in range(n):
        if v in seen:
            continue
        orbit = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for g in gens:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    stack.append(g[x])
        seen |= orbit
        out.append(frozenset(orbit))
    return out
