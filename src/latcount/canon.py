"""Canonical forms for cover digraphs, up to isomorphism.

The canonizer refines a vertex colouring seeded with (in-degree, out-degree,
height, depth), then backtracks over the remaining colour classes by
individualize-and-refine; the certificate is the lexicographically smallest
cover-adjacency encoding over all colour-respecting labelings, and the
labeling is the first leaf, in search order, that attains it.  Sizes stay at
desk scale, so no external dependency is warranted.  The up and down
neighbour lists are built once per call; the seeds, every refinement round
and every leaf read the same lists.  A refinement round signs only the
vertices of colour cells with two or more members: a vertex alone in its
cell cannot split, and its new colour is the next index in colour order.

Symmetric branches are pruned (McKay and Piperno, "Practical graph
isomorphism, II", 2014).  Two leaves with equal rows differ by an
automorphism, which is kept for the rest of the call.  A node that has
individualized a prefix of vertices skips a target-cell vertex lying in the
orbit of an earlier vertex of the cell, under the automorphisms found so far
that fix the prefix pointwise.  Such an automorphism maps the subtree of the
earlier vertex onto the skipped one, leaf for leaf with equal rows, and every
leaf it maps to comes later in search order.  So the smallest rows, and the
first leaf that attains them, lie outside every skipped subtree: certificates
and canonical labelings are exactly those of the unpruned search.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .poset import CoverDigraph, _bits


class Certificate(NamedTuple):
    """Canonical byte string; equal exactly for isomorphic cover digraphs."""

    data: bytes


def canonical_certificate(p: CoverDigraph) -> Certificate:
    return _certificate(p.n, p.up_adjacency())[0]


def _certificate(
    n: int, up: Sequence[int]
) -> tuple[Certificate, tuple[int, ...], list[list[int]]]:
    """The certificate of the cover digraph whose up-cover rows are ``up``,
    its canonical labeling (position i holds the old label), and the
    automorphisms the search found on the way: ``g[v]`` is the image of
    vertex ``v``.

    They generate the whole automorphism group.  An automorphism maps the
    unpruned search tree onto itself, and a leaf onto a leaf with equal
    rows, so the leaves with the smallest rows are the images of the first
    one under the group, one leaf per automorphism.  Every such leaf that
    the search visits after the first is compared with it and yields its
    automorphism.  Every pruned subtree is the image of a searched one
    under automorphisms already found, so every leaf of the unpruned tree
    is the image of a visited leaf under the group they generate, and so is
    every automorphism."""
    rows, labeling, automorphisms = _canonical(n, up)
    return Certificate(_encode(n, rows)), labeling, automorphisms


def canonical_labeling(p: CoverDigraph) -> tuple[int, ...]:
    """The labeling witnessing the certificate: position i holds the old label."""
    return _canonical(p.n, p.up_adjacency())[1]


def canonical_rank(p: CoverDigraph) -> tuple[int, ...]:
    """rank[old_label] = position of that element in the canonical order."""
    perm = canonical_labeling(p)
    rank = [0] * p.n
    for pos, old in enumerate(perm):
        rank[old] = pos
    return tuple(rank)


def canonical_digraph(p: CoverDigraph) -> CoverDigraph:
    """``p`` relabeled into its canonical form."""
    return decode_certificate(canonical_certificate(p))


def _encode(n: int, rows) -> bytes:
    width = (n + 7) // 8
    return n.to_bytes(2, "big") + b"".join(r.to_bytes(width, "big") for r in rows)


def _decode(cert: Certificate) -> tuple[int, list[int]]:
    """The size and the canonical up-cover rows that ``cert`` encodes."""
    n = int.from_bytes(cert.data[:2], "big")
    width = (n + 7) // 8
    rows = [
        int.from_bytes(cert.data[2 + i * width : 2 + (i + 1) * width], "big")
        for i in range(n)
    ]
    return n, rows


def decode_certificate(cert: Certificate) -> CoverDigraph:
    """Rebuild the canonical cover digraph from its certificate bytes."""
    n, rows = _decode(cert)
    covers = [(i, j) for i in range(n) for j in _bits(rows[i])]
    return CoverDigraph(n, tuple(sorted(covers)))


def padded_certificate(cert: Certificate, below: int, above: int) -> Certificate:
    """Certificate of ``chain(below) + L + chain(above)`` (ordered sums), read
    off the certificate ``cert`` of a lattice ``L`` without a search.

    The seeds are height-major, so every padding vertex has a height no
    vertex of ``L`` shares: each is a singleton colour cell, ordered before
    (below) or after (above) all of ``L``.  The bottom and top of ``L`` are
    singletons too, the only vertices of their heights, so their changed
    degrees reorder nothing.  Every colour of ``L`` shifts by ``below``,
    refinement splits the cells of ``L`` exactly as it does alone, and the
    search visits the same leaves in the same order.  In each leaf the rows
    of ``L`` shift left by ``below`` bits, and its top, always last, gains
    the first chain-above vertex; shifts and that fixed row keep the order
    of leaves, so the smallest rows are those of ``L``, padded.
    """
    m, rows = _decode(cert)
    n = below + m + above
    padded = [1 << (i + 1) for i in range(below)] + [row << below for row in rows]
    if above:
        padded[-1] = 1 << (below + m)  # the top, covered by the chain above
        padded += [1 << (i + 1) for i in range(below + m, n - 1)] + [0]
    return Certificate(_encode(n, padded))


def _canonical(
    n: int, up: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], list[list[int]]]:
    """The smallest rows, the first labeling that attains them, and the
    automorphisms found between equal leaves."""
    if n == 1:
        return (0,), (0,), []
    ups, dns = _neighbours(up)
    height = _longest_paths(n, ups, dns)
    depth = _longest_paths(n, dns, ups)
    # height-major seeds make every canonical labeling a linear extension
    seeds = [(height[v], len(dns[v]), len(ups[v]), depth[v]) for v in range(n)]
    ranking = {s: i for i, s in enumerate(sorted(set(seeds)))}
    colors = _refine(n, ups, dns, [ranking[s] for s in seeds])

    best_rows: tuple[int, ...] | None = None
    best_perm: tuple[int, ...] | None = None
    automorphisms: list[list[int]] = []

    def leaf(order: list[int]) -> None:
        nonlocal best_rows, best_perm
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        rows = tuple(sum(1 << pos[w] for w in ups[v]) for v in order)
        if best_rows is None or rows < best_rows:
            best_rows = rows
            best_perm = tuple(order)
        elif rows == best_rows:
            # two labelings with equal rows: best_perm[i] -> order[i] is an
            # automorphism
            image = [0] * n
            for a, b in zip(best_perm, order):
                image[a] = b
            automorphisms.append(image)

    def descend(colors: list[int], fixed: tuple[int, ...]) -> None:
        # refined colours are 0..k-1, so every cell is non-empty
        ordered: list[list[int]] = [[] for _ in range(max(colors) + 1)]
        for v, c in enumerate(colors):
            ordered[c].append(v)
        target = next((cell for cell in ordered if len(cell) > 1), None)
        if target is None:
            leaf([cell[0] for cell in ordered])
            return
        for v in target:
            # re-read per vertex: earlier subtrees may have found more
            stabilizer = [
                g for g in automorphisms if all(g[x] == x for x in fixed)
            ]
            if _orbit_min(v, stabilizer) < v:
                continue  # an automorphic image of an earlier subtree
            # v gets its own colour, just below the rest of its cell; all
            # colours stay non-negative, as ``_refine`` needs
            split = [2 * c + 1 for c in colors]
            split[v] -= 1
            descend(_refine(n, ups, dns, split), fixed + (v,))

    descend(colors, ())
    assert best_rows is not None and best_perm is not None
    return best_rows, best_perm, automorphisms


def _neighbours(up) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Upper and lower cover lists, ascending, of the bitmask rows ``up`` of
    upper covers."""
    ups = [_bits(row) for row in up]
    dns: list[list[int]] = [[] for _ in up]
    for v, row in enumerate(ups):
        for w in row:
            dns[w].append(v)
    return ups, dns


def _orbit_min(v: int, generators: list[list[int]]) -> int:
    """Smallest vertex in the orbit of ``v`` under the group the
    ``generators`` generate."""
    orbit = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for g in generators:
            if g[x] not in orbit:
                orbit.add(g[x])
                stack.append(g[x])
    return min(orbit)


def _refine(n: int, ups, dns, colors: list[int]) -> list[int]:
    """Iterate neighbourhood-multiset colour refinement to a fixed point;
    ``ups[v]`` and ``dns[v]`` list the upper and lower covers of ``v``, and
    the ``colors`` are non-negative, with gaps allowed.

    Each round ranks the vertices by (colour, sorted upper-cover colours,
    sorted lower-cover colours).  The old colour is the primary key, so the
    cells are walked in colour order and only the members of a cell with
    two or more vertices are ranked by their neighbour colours; a singleton
    takes the next colour.  The fixed point is a round in which no cell
    splits.
    """
    while True:
        cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        refined = [0] * n
        nxt = distinct = 0
        for cell in cells:
            if not cell:
                continue
            distinct += 1
            if len(cell) == 1:
                refined[cell[0]] = nxt
                nxt += 1
                continue
            sigs = [
                (
                    tuple(sorted([colors[w] for w in ups[v]])),
                    tuple(sorted([colors[w] for w in dns[v]])),
                )
                for v in cell
            ]
            ranking = {s: i for i, s in enumerate(sorted(set(sigs)), nxt)}
            for v, s in zip(cell, sigs):
                refined[v] = ranking[s]
            nxt += len(ranking)
        if nxt == distinct:
            return refined
        colors = refined


def _longest_paths(n: int, ups, dns) -> list[int]:
    """Longest cover-path length ending at each vertex, walking along the
    neighbour lists ``ups``; ``dns`` lists the reverse neighbours."""
    indeg = [len(dns[v]) for v in range(n)]
    queue = [v for v in range(n) if indeg[v] == 0]
    dist = [0] * n
    while queue:
        v = queue.pop()
        for w in ups[v]:
            if dist[v] + 1 > dist[w]:
                dist[w] = dist[v] + 1
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return dist
