"""The canonizer of ``canon`` as it was before its two exact shortcuts (a
discrete seed colouring, an individualization that splits nothing) and its
single pass for heights and depths: the reference for ``canon._canonical``.

``_canonical``, ``_refine`` and ``_longest_paths`` are copied unchanged;
the helpers that the shortcuts left as they were come from ``canon``.
"""

from __future__ import annotations

from collections.abc import Sequence

from latcount.canon import _chain_swaps, _neighbours, _orbit_min


def _canonical(
    n: int, up: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], list[list[int]]]:
    """The smallest rows, the first labeling that attains them, and the
    chain swaps followed by the automorphisms found between equal leaves."""
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
    automorphisms = _chain_swaps(n, ups, dns)

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
            # v gets its own colour, just below the rest of its cell; all
            # colours stay non-negative, as ``_refine`` needs
            split = [2 * c + 1 for c in colors]
            split[v] -= 1
            descend(_refine(n, ups, dns, split), fixed + (v,))

    descend(colors, ())
    assert best_rows is not None and best_perm is not None
    return best_rows, best_perm, automorphisms


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
