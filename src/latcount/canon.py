"""Canonical forms for cover digraphs, up to isomorphism.

The canonizer refines a vertex colouring seeded with (in-degree, out-degree,
height, depth), then backtracks over the remaining colour classes by
individualize-and-refine; the certificate is the lexicographically smallest
cover-adjacency encoding over all colour-respecting labelings, and the
labeling is the first leaf, in search order, that attains it.  Sizes stay at
desk scale, so no external dependency is warranted.  The up and down
neighbour lists are built once per call; the seeds, every refinement round
and every leaf read the same lists, and heights and depths come from one
linear extension.  A refinement round signs only the vertices of colour
cells with two or more members: a vertex alone in its cell cannot split,
and its new colour is the next index in colour order.

Three shortcuts skip work that cannot change a result; the third is told
after the pruning it rests on.  A seed colouring that refines to a discrete
one is the search's only leaf: its rows and order are returned at once,
with no automorphism, since refined colours are invariant under
automorphisms, so a discrete colouring admits none but the identity (and
no chain swap).  An individualization whose vertex has
every cover alone in its cell is ranked without a refinement round: only
the covers of the vertex see its new colour, and a singleton cannot split,
while every other signature changes by the same monotone map of colours,
so the first round would split no cell.  The lower covers are always
alone: the search individualizes in the first cell with two or more
members, and colour order is height-major.

Symmetric branches are pruned (McKay and Piperno, "Practical graph
isomorphism, II", 2014).  The search starts from the swaps of
interchangeable chains (:func:`_chain_swaps`), the symmetries of the
bundles of equal parallel chains that every adjunct of chains is made of.
Two leaves with equal rows differ by one more automorphism, which is kept
for the rest of the call.  A node that has individualized a prefix of
vertices skips a target-cell vertex lying in the orbit of an earlier vertex
of the cell, under the automorphisms known so far that fix the prefix
pointwise.  Such an automorphism maps the subtree of the earlier vertex onto
the skipped one, leaf for leaf with equal rows, and every leaf it maps to
comes later in search order.  So the smallest rows, and the first leaf that
attains them, lie outside every skipped subtree: certificates and canonical
labelings are exactly those of the unpruned search.  The argument needs only
that each is an automorphism, not how it became known, so the swaps read off
before the search prune as soundly as the automorphisms found at leaves.

The third shortcut reads a bundle's one leaf off its swaps
(:func:`_swap_leaf`).  When every colour cell of the refined seed colouring
with two or more vertices is one orbit of the chain swaps, each such cell is
the set of vertices at one position of the equal chains of one bundle, and
the search visits a single leaf.  Colour order is height-major, so each cell
the search individualizes in holds the bottoms of a bundle's chains; it
descends into the smallest label of the cell, the bottom of the first chain
in the order :func:`_chain_swaps` collects them, and the swaps of the
chains not yet individualized fix every earlier vertex and move that bottom
onto every other, so the rest of the cell is pruned.  Refinement puts the
individualized chain first in every cell it meets, and splits no other
cell: its vertices see the chain only through the bundle's two ends, each
alone in its cell.  So the leaf orders each cell by chain rank, with the
bottoms in ascending label, and its rows, its labeling and the swaps, with
no automorphism found at a second leaf, are what the search returns.
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
    automorphisms the search started from (the chain swaps) or found on the
    way: ``g[v]`` is the image of vertex ``v``.

    They generate the whole automorphism group.  An automorphism maps the
    unpruned search tree onto itself, and a leaf onto a leaf with equal
    rows, so the leaves with the smallest rows are the images of the first
    one under the group, one leaf per automorphism.  Every such leaf that
    the search visits after the first is compared with it and yields its
    automorphism.  Every pruned subtree is the image of a searched one
    under automorphisms already known, swaps or found, and all of them are
    returned, so every leaf of the unpruned tree is the image of a visited
    leaf under the group they generate, and so is every automorphism."""
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
    data = cert.data
    n = int.from_bytes(data[:2], "big")
    width = (n + 7) // 8
    if width <= 1:
        return n, list(data[2:])
    end = 2 + n * width
    return n, [int.from_bytes(data[i : i + width], "big") for i in range(2, end, width)]


def decode_certificate(cert: Certificate) -> CoverDigraph:
    """Rebuild the canonical cover digraph from its certificate bytes.  Its
    covers come out sorted: row by row, and ascending within each row."""
    n, rows = _decode(cert)
    return CoverDigraph(n, tuple((i, j) for i in range(n) for j in _bits(rows[i])))


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
    of leaves, so the smallest rows are those of ``L``, padded.  A negative
    ``below`` or ``above`` raises :class:`ValueError`.
    """
    if below < 0 or above < 0:
        name, size = ("below", below) if below < 0 else ("above", above)
        raise ValueError(f"{name} must be non-negative, got {size}")
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
    chain swaps followed by the automorphisms found between equal leaves."""
    if n == 0:
        return (), (), []  # the empty digraph: one empty leaf
    ups, dns = _neighbours(up)
    height, depth = _height_depth(n, ups, dns)
    # height-major seeds make every canonical labeling a linear extension
    seeds = [(height[v], len(dns[v]), len(ups[v]), depth[v]) for v in range(n)]
    ranking = {s: i for i, s in enumerate(sorted(set(seeds)))}
    colors = _refine(n, ups, dns, [ranking[s] for s in seeds])
    if max(colors) == n - 1:
        # discrete already: one leaf, and no automorphism but the identity
        order = [0] * n
        for v, c in enumerate(colors):
            order[c] = v
        return _rows(ups, order, colors), tuple(order), []

    automorphisms = _chain_swaps(n, ups, dns)
    leaf = _swap_leaf(n, dns, colors, automorphisms)
    if leaf is not None:
        # the swaps prune every branch but one: no second leaf is reached
        order, pos = leaf
        return _rows(ups, order, pos), tuple(order), automorphisms

    best_rows: tuple[int, ...] | None = None
    best_perm: tuple[int, ...] | None = None

    def descend(colors: list[int], fixed: tuple[int, ...]) -> None:
        nonlocal best_rows, best_perm
        # refined colours are 0..k-1, so every cell is non-empty
        ordered: list[list[int]] = [[] for _ in range(max(colors) + 1)]
        for v, c in enumerate(colors):
            ordered[c].append(v)
        target = next((cell for cell in ordered if len(cell) > 1), None)
        if target is None:
            # a leaf: the discrete colouring is each vertex's position
            order = [cell[0] for cell in ordered]
            rows = _rows(ups, order, colors)
            if best_rows is None or rows < best_rows:
                best_rows = rows
                best_perm = tuple(order)
            elif rows == best_rows:
                # two labelings with equal rows: best_perm[i] -> order[i] is
                # an automorphism
                image = [0] * n
                for a, b in zip(best_perm, order):
                    image[a] = b
                automorphisms.append(image)
            return
        stabilizer: list[list[int]] = []
        known = 0  # how many automorphisms ``stabilizer`` has read
        for v in target:
            if len(automorphisms) > known:
                # earlier subtrees found more
                stabilizer += [
                    g for g in automorphisms[known:] if all(g[x] == x for x in fixed)
                ]
                known = len(automorphisms)
            if _orbit_min(v, stabilizer) < v:
                continue  # an automorphic image of an earlier subtree
            descend(_individualize(n, ups, dns, colors, ordered, v), fixed + (v,))

    descend(colors, ())
    assert best_rows is not None and best_perm is not None
    return best_rows, best_perm, automorphisms


def _rows(ups, order: list[int], pos: list[int]) -> tuple[int, ...]:
    """The up-cover rows of the labeling that puts vertex ``order[i]`` at
    position ``i``; ``pos`` is its inverse."""
    return tuple(sum(1 << pos[w] for w in ups[v]) for v in order)


def _individualize(
    n: int, ups, dns, colors: list[int], cells: list[list[int]], v: int
) -> list[int]:
    """The equitable colouring that refines ``colors``, an equitable one
    with ``cells[c]`` the vertices of colour ``c``, once ``v`` takes a colour
    of its own, just below the rest of its cell.

    ``v`` lies in the first cell with two or more members, and colour order
    is height-major, so every lower cover of ``v`` is alone in its cell.
    When every upper cover is too, no round of refinement splits a cell,
    and the colours are ranked without one.
    """
    cv = colors[v]
    if all(len(cells[colors[w]]) == 1 for w in ups[v]):
        split = [c if c < cv else c + 1 for c in colors]
        split[v] = cv
        return split
    # all colours stay non-negative, as ``_refine`` needs
    split = [2 * c + 1 for c in colors]
    split[v] -= 1
    return _refine(n, ups, dns, split)


def _neighbours(up) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Upper and lower cover lists, ascending, of the bitmask rows ``up`` of
    upper covers."""
    ups = [_bits(row) for row in up]
    dns: list[list[int]] = [[] for _ in up]
    for v, row in enumerate(ups):
        for w in row:
            dns[w].append(v)
    return ups, dns


def _chain_swaps(n: int, ups, dns) -> list[list[int]]:
    """Automorphisms that swap two interchangeable chains, as image lists.

    A chain is a maximal run of vertices that each have exactly one upper
    and one lower cover.  Two chains of one length whose bottoms share
    their lower cover and whose tops share their upper cover can be
    swapped, vertex by vertex, and no cover changes.  Each bundle of such
    chains, in the order of their bottom vertices, gives the swaps of
    neighbouring chains, which generate every permutation of the bundle.
    """
    inner = [len(ups[v]) == 1 and len(dns[v]) == 1 for v in range(n)]
    bundles: dict[tuple[int, int, int], list[list[int]]] = {}
    for v in range(n):
        if inner[v] and not inner[dns[v][0]]:
            run = [v]
            while inner[ups[run[-1]][0]]:
                run.append(ups[run[-1]][0])
            key = (dns[v][0], ups[run[-1]][0], len(run))
            bundles.setdefault(key, []).append(run)
    swaps = []
    for runs in bundles.values():
        for a, b in zip(runs, runs[1:]):
            g = list(range(n))
            for x, y in zip(a, b):
                g[x], g[y] = y, x
            swaps.append(g)
    return swaps


def _swap_leaf(
    n: int, dns, colors: list[int], swaps: list[list[int]]
) -> tuple[list[int], list[int]] | None:
    """The search's one leaf, as the order of its vertices and their
    positions, when every colour cell of ``colors`` with two or more
    vertices is one orbit of the chain ``swaps``; otherwise ``None``.

    Such a cell holds the vertices at one position of the equal chains of
    one bundle.  The leaf puts each such cell in chain rank: the bottoms in
    ascending label, which is the order :func:`_chain_swaps` collects the
    chains in, and every other vertex in the order of its lower cover.
    """
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    order: list[int] = []
    pos = [0] * n
    for cell in cells:
        if len(cell) > 1:
            if len(_orbit(cell[0], swaps)) < len(cell):
                return None
            # a lower cover lies lower in colour order, so it has a position
            cell.sort(key=lambda x: (pos[dns[x][0]], x))
        for v in cell:
            pos[v] = len(order)
            order.append(v)
    return order, pos


def _orbit(v: int, generators: list[list[int]]) -> set[int]:
    """The orbit of ``v`` under the group the ``generators`` generate."""
    orbit = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for g in generators:
            if g[x] not in orbit:
                orbit.add(g[x])
                stack.append(g[x])
    return orbit


def _orbit_min(v: int, generators: list[list[int]]) -> int:
    """Smallest vertex in the orbit of ``v``."""
    return min(_orbit(v, generators))


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


def _height_depth(n: int, ups, dns) -> tuple[list[int], list[int]]:
    """The longest cover-path length ending at (height) and starting from
    (depth) each vertex of the acyclic digraph whose upper and lower cover
    lists are ``ups`` and ``dns``.  Both are read along one linear extension
    (Kahn's algorithm); longest paths do not depend on which."""
    indeg = [len(d) for d in dns]
    order = [v for v in range(n) if not indeg[v]]
    height = [0] * n
    for v in order:  # the list grows as vertices lose their last lower cover
        h = height[v] + 1
        for w in ups[v]:
            if h > height[w]:
                height[w] = h
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    depth = [0] * n
    for v in reversed(order):
        for w in ups[v]:
            if depth[w] >= depth[v]:
                depth[v] = depth[w] + 1
    return height, depth
