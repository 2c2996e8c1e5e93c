"""Finite posets and lattices represented by their cover (Hasse) relation.

Elements are dense integer labels ``0..n-1``.  A :class:`CoverDigraph` is an
irredundant cover relation; a :class:`Lattice` additionally carries the full
order relation as bitmask rows, plus its bottom and top.  One helper checks
cover relations for both :func:`build_poset` and :func:`as_lattice`, so
:func:`as_lattice` checks a digraph however it was made.  Everything is
immutable after construction, so values can be shared freely.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import LatticeError


class LabelOutOfRange(LatticeError):
    pass


class CycleDetected(LatticeError):
    pass


class RedundantCover(LatticeError):
    """A listed cover pair is already implied by a longer directed path."""


class NotALattice(LatticeError):
    """Some pair of elements has no unique meet or join.

    ``witness`` is one offending pair, ``kind`` is ``"meet"`` or ``"join"``.
    """

    def __init__(self, witness: tuple[int, int], kind: str):
        super().__init__(f"no unique {kind} for pair {witness}")
        self.witness = witness
        self.kind = kind


class NotComparable(LatticeError):
    pass


# Bit positions of every mask below 2**10, the rows of any lattice on at
# most 10 elements; entry ``m`` is ``_bits(m)``.  Doubling the table each
# round appends bit ``b`` to every mask below 2**b.
_BITS_TABLE: tuple[tuple[int, ...], ...] = ((),)
for _b in range(10):
    _BITS_TABLE += tuple(bits + (_b,) for bits in _BITS_TABLE)
del _b


def _bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask`` in increasing order.

    ``mask`` is non-negative.  Masks below ``len(_BITS_TABLE)`` (2**10) read
    a shared tuple from the table; larger masks are scanned, so the table
    never grows.
    """
    try:
        return _BITS_TABLE[mask]
    except IndexError:
        pass
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


class CoverDigraph(NamedTuple):
    """An irredundant, acyclic cover relation on labels ``0..n-1``.

    ``covers`` is sorted ascending; ``(lo, hi)`` means ``lo`` is covered by
    ``hi``.  The fields are not checked when the value is built:
    :func:`build_poset` normalizes and checks any pairs, and
    :func:`as_lattice` checks the covers it is given.  Functions that take a
    ``CoverDigraph`` without building a :class:`Lattice` (:func:`nullity`,
    :func:`poset_classification`, ``documents.lattice_document`` with its
    class given) read the covers as given, so a repeated or implied cover
    gives a wrong answer there: :func:`build_poset` and :func:`as_lattice`
    are the checks.
    """

    n: int
    covers: tuple[tuple[int, int], ...]

    def up_adjacency(self) -> tuple[int, ...]:
        """Bitmask rows of upper covers: bit ``j`` of row ``i`` iff ``i`` is covered by ``j``."""
        rows = [0] * self.n
        for a, b in self.covers:
            rows[a] |= 1 << b
        return tuple(rows)

    def down_adjacency(self) -> tuple[int, ...]:
        """Bitmask rows of lower covers."""
        rows = [0] * self.n
        for a, b in self.covers:
            rows[b] |= 1 << a
        return tuple(rows)


class Lattice(NamedTuple):
    """A validated lattice: cover digraph plus order matrix and bounds.

    ``up`` and ``down`` hold the reflexive up-set and down-set bitmasks: bit
    ``j`` of ``up[i]`` iff ``i <= j``, and bit ``j`` of ``down[i]`` iff
    ``j <= i``.
    """

    digraph: CoverDigraph
    up: tuple[int, ...]
    down: tuple[int, ...]
    bottom: int
    top: int

    @property
    def n(self) -> int:
        return self.digraph.n

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        return self.digraph.covers

    def le(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)


class ElementClassification(NamedTuple):
    """Reducible / doubly irreducible split of a lattice's elements."""

    red: frozenset[int]
    irr: frozenset[int]
    irr_star: frozenset[int]


def build_poset(n: int, covers: Iterable[tuple[int, int]]) -> CoverDigraph:
    """Normalize a cover relation on ``n`` elements (integer labels, each
    pair once, sorted) and check it as :func:`as_lattice` does.

    Raises :class:`LabelOutOfRange`, :class:`CycleDetected` or
    :class:`RedundantCover` when the input is not an irredundant acyclic
    cover set.
    """
    pairs = tuple(sorted(set((int(a), int(b)) for a, b in covers)))
    _checked_order(n, pairs)
    return CoverDigraph(n, pairs)


def _checked_order(n: int, covers) -> tuple[list[int], list[int]]:
    """Check that ``covers`` is an irredundant acyclic cover relation on
    ``n`` >= 1 elements; return a linear extension (one pass of Kahn's
    algorithm) and the strict up-set masks.  Every error names the first
    offending pair in the order of ``covers``.
    """
    if n < 1:
        raise LabelOutOfRange(f"need at least one element, got n={n}")
    rows = [0] * n
    for a, b in covers:
        if not (0 <= a < n and 0 <= b < n):
            raise LabelOutOfRange(f"cover ({a}, {b}) outside 0..{n - 1}")
        if a == b:
            raise CycleDetected(f"self-loop at {a}")
        if rows[a] >> b & 1:
            raise RedundantCover(f"cover ({a}, {b}) listed twice")
        rows[a] |= 1 << b
    topo = _topological_order(n, rows)
    strict = _strict_up_order(rows, topo)
    # (a, b) is redundant when b is reachable from some other upper cover of a
    for a, b in covers:
        for c in _bits(rows[a] & ~(1 << b)):
            if strict[c] >> b & 1:
                raise RedundantCover(f"cover ({a}, {b}) implied through {c}")
    return topo, strict


def _topological_order(n: int, up: list[int] | tuple[int, ...]) -> list[int]:
    """A linear extension of the cover adjacency ``up`` (Kahn's algorithm).

    Raises :class:`CycleDetected` when ``up`` has a directed cycle.
    """
    indeg = [0] * n
    for a in range(n):
        for b in _bits(up[a]):
            indeg[b] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    topo = []
    while queue:
        v = queue.pop()
        topo.append(v)
        for w in _bits(up[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(topo) != n:
        raise CycleDetected("cover relation contains a directed cycle")
    return topo


def _strict_up_order(up: list[int] | tuple[int, ...], topo: list[int]) -> list[int]:
    """Strict reachability masks over the cover adjacency ``up``, closed in
    reverse along its linear extension ``topo``."""
    order = [0] * len(up)
    for v in reversed(topo):
        acc = 0
        for w in _bits(up[v]):
            acc |= (1 << w) | order[w]
        order[v] = acc
    return order


def as_lattice(p: CoverDigraph) -> Lattice:
    """Check that ``p`` is a cover relation whose every pair has a unique
    meet and join; return the lattice.

    Raises what :func:`build_poset` raises on the covers as listed
    (:class:`RedundantCover` also for a cover listed twice), then
    :class:`NotALattice` with a witness pair, the first in label order,
    join before meet.

    The checks give a linear extension, which closes the order, names the
    bottom (its first element) and the top (its last), and orders the
    positions of the test below.  The test per pair takes constant time on
    masks over those positions, and only incomparable pairs take it: a
    comparable pair has its larger element as join and its smaller as meet.
    The common upper bounds of a pair form an
    up-set, whose first element in any linear extension is minimal in it; it
    has a unique minimal element exactly when it is the up-set of that first
    element.  Dually for the common lower bounds and their last element.  So
    the verdict, witness and kind are the same for every linear extension.
    """
    n = p.n
    topo, strict = _checked_order(n, p.covers)
    up = tuple(strict[i] | (1 << i) for i in range(n))
    pos = [0] * n
    for i, v in enumerate(topo):
        pos[v] = i
    down = [0] * n
    ups, downs = [0] * n, [0] * n  # up- and down-sets over positions
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
            ups[pos[i]] |= 1 << pos[j]
            downs[pos[j]] |= 1 << pos[i]
    full = (1 << n) - 1
    for x in range(n):
        up_x, down_x = ups[pos[x]], downs[pos[x]]
        # a comparable pair has a join and a meet: test only the later
        # labels incomparable with x
        for y in _bits(full >> (x + 1) << (x + 1) & ~(up[x] | down[x])):
            above = up_x & ups[pos[y]]
            if not above or ups[(above & -above).bit_length() - 1] != above:
                raise NotALattice((x, y), "join")
            below = down_x & downs[pos[y]]
            if not below or downs[below.bit_length() - 1] != below:
                raise NotALattice((x, y), "meet")
    return Lattice(p, up, tuple(down), topo[0], topo[-1])


def _unique_extreme(mask: int, reflexive: list[int] | tuple[int, ...]) -> int | None:
    """The unique ``v`` in ``mask`` whose ``reflexive[v]`` meets ``mask`` only in ``v``.

    With down-set masks that is the unique minimal element of ``mask``, with
    up-set masks the unique maximal one; None when there is none or several.
    """
    found = None
    for v in _bits(mask):
        if reflexive[v] & mask == 1 << v:
            if found is not None:
                return None
            found = v
    return found


def meet_join(l: Lattice, x: int, y: int) -> tuple[int, int]:
    """Return ``(x meet y, x join y)``; total on a lattice."""
    join = _unique_extreme(l.up[x] & l.up[y], l.down)
    meet = _unique_extreme(l.down[x] & l.down[y], l.up)
    assert join is not None and meet is not None
    return meet, join


def classify_elements(l: Lattice) -> ElementClassification:
    """Split a lattice's elements into reducible and doubly irreducible sets.

    In a finite lattice an element is join-reducible exactly when it has two
    or more lower covers, and meet-reducible exactly when it has two or more
    upper covers, so the split reads off the cover degrees.
    """
    return poset_classification(l.digraph)


def poset_classification(p: CoverDigraph) -> ElementClassification:
    """Degree-based Red/Irr split of an arbitrary poset (not only lattices).

    Reads the covers of ``p`` as given: ``p`` is an irredundant cover
    relation, as :func:`build_poset` and :func:`as_lattice` check.
    """
    uppers, lowers = _cover_degrees(p)
    red = frozenset(_reducibles(uppers, lowers))
    irr = frozenset(range(p.n)) - red
    star = frozenset(v for v in irr if uppers[v] and lowers[v])
    return ElementClassification(red, irr, star)


def _cover_degrees(p: CoverDigraph) -> tuple[list[int], list[int]]:
    """How many upper and how many lower covers each element of ``p`` has,
    in one pass over its covers as given."""
    uppers = [0] * p.n
    lowers = [0] * p.n
    for a, b in p.covers:
        uppers[a] += 1
        lowers[b] += 1
    return uppers, lowers


def _reducibles(uppers: list[int], lowers: list[int]) -> list[int]:
    """The reducible elements, ascending, from the degrees that
    :func:`_cover_degrees` counts: those with two or more upper or two or
    more lower covers."""
    return [v for v, (u, d) in enumerate(zip(uppers, lowers)) if u > 1 or d > 1]


def nullity(p: CoverDigraph) -> int:
    """Cycle rank of the cover graph: edges - vertices + components.

    Reads the covers of ``p`` as given: ``p`` is an irredundant cover
    relation, as :func:`build_poset` and :func:`as_lattice` check.
    """
    parent = list(range(p.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in p.covers:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    components = len({find(v) for v in range(p.n)})
    return len(p.covers) - p.n + components


def dual(p: CoverDigraph) -> CoverDigraph:
    """Reverse all covers, keeping labels."""
    return CoverDigraph(p.n, tuple(sorted((b, a) for a, b in p.covers)))


def relabel(p: CoverDigraph, perm: Iterable[int]) -> CoverDigraph:
    """Apply a permutation (``perm[old] = new``) to the labels."""
    pi = list(perm)
    return CoverDigraph(p.n, tuple(sorted((pi[a], pi[b]) for a, b in p.covers)))


def chain(k: int) -> Lattice:
    """The k-element chain 0 < 1 < ... < k-1."""
    return as_lattice(CoverDigraph(k, tuple((i, i + 1) for i in range(k - 1))))


def induced_subposet(p: CoverDigraph, keep: Iterable[int]) -> CoverDigraph:
    """Induced subposet on ``keep``, relabeled densely in ascending label order."""
    kept = sorted(set(keep))
    index = {v: i for i, v in enumerate(kept)}
    up = p.up_adjacency()
    order = _strict_up_order(up, _topological_order(p.n, up))
    keep_mask = 0
    for v in kept:
        keep_mask |= 1 << v
    covers = []
    for v in kept:
        above = order[v] & keep_mask
        for w in _bits(above):
            # w covers v in the induced order iff nothing kept lies between
            between = order[v] & keep_mask & ~(1 << w)
            if not any(order[u] >> w & 1 for u in _bits(between)):
                covers.append((index[v], index[w]))
    return CoverDigraph(len(kept), tuple(sorted(covers)))


def _delete(up: list[int], down: list[int], live: int, x: int) -> int:
    """Delete ``x`` from the cover rows ``up`` and ``down`` in place and
    return the mask ``live`` of vertices left, without ``x``.  Each lower
    cover of ``x`` comes to be covered by each upper cover of ``x`` that no
    other path joins it to: the covers of the induced subposet.
    """
    for y in _bits(down[x]):
        up[y] ^= 1 << x
    for z in _bits(up[x]):
        down[z] ^= 1 << x
    for y in _bits(down[x]):
        for z in _bits(up[x]):
            if not _joined(up, y, z, 0):
                up[y] |= 1 << z
                down[z] |= 1 << y
    up[x] = down[x] = 0
    return live & ~(1 << x)


def _strip(up: list[int], down: list[int], live: int, eligible) -> int:
    """Delete the smallest live vertex ``v`` with ``eligible(up, down, v)``
    until there is none or one vertex is left; return the live mask."""
    while live & (live - 1):
        victim = next((v for v in _bits(live) if eligible(up, down, v)), None)
        if victim is None:
            break
        live = _delete(up, down, live, victim)
    return live


def _joined(up: list[int] | tuple[int, ...], src: int, dst: int, avoid: int) -> bool:
    """Whether a path of covers leads from ``src`` to ``dst`` through no
    vertex of the mask ``avoid``."""
    seen, stack = avoid, [src]
    while stack:
        for w in _bits(up[stack.pop()] & ~seen):
            if w == dst:
                return True
            seen |= 1 << w
            stack.append(w)
    return False


def _irreducible(up, down, v: int) -> bool:
    return up[v].bit_count() <= 1 and down[v].bit_count() <= 1


def _live_digraph(up: list[int], live: int) -> tuple[CoverDigraph, tuple[int, ...]]:
    """The cover digraph on the vertices of ``live``, relabeled densely in
    ascending label order, and the old labels, position = new label."""
    kept = _bits(live)
    index = {v: i for i, v in enumerate(kept)}
    covers = tuple((index[v], index[w]) for v in kept for w in _bits(up[v]))
    return CoverDigraph(len(kept), covers), kept


def is_dismantlable(l: Lattice) -> bool:
    """Whether ``l`` shrinks to a point by deleting one doubly irreducible
    element at a time.

    Deleting a doubly irreducible element of a lattice always leaves a
    sublattice, and leaves crown-freeness intact, so a greedy deletion order
    never gets stuck when any order succeeds.
    """
    up, down = list(l.digraph.up_adjacency()), list(l.digraph.down_adjacency())
    live = _strip(up, down, (1 << l.n) - 1, _irreducible)
    return live & (live - 1) == 0


def contains_crown(l: Lattice) -> bool:
    """Exhaustively search for a crown among the subposets of ``l``.

    A crown on 2s >= 6 elements is an alternating cycle of comparabilities
    with no further relations; the check below looks for a subset whose
    induced comparability graph is a single chordless cycle in which every
    vertex sits below both neighbours or above both neighbours.  The
    comparability of each element is read from its order masks,
    ``up | down``.
    """
    n = l.n
    # symmetric strict comparability masks
    comp = [(l.up[x] | l.down[x]) & ~(1 << x) for x in range(n)]
    # bottom and top are comparable to everything and can never take part
    pool = [v for v in range(n) if comp[v].bit_count() < n - 1]
    for s in range(3, len(pool) // 2 + 1):
        for subset in combinations(pool, 2 * s):
            if _is_crown(subset, comp, l):
                return True
    return False


def _is_crown(subset: tuple[int, ...], comp: list[int], l: Lattice) -> bool:
    mask = 0
    for v in subset:
        mask |= 1 << v
    deg = {}
    for v in subset:
        inside = comp[v] & mask
        # two neighbours, both above v or both below it
        if inside.bit_count() != 2 or (inside & l.up[v]).bit_count() == 1:
            return False
        deg[v] = inside
    # degree-2 everywhere with the right edge count leaves only disjoint
    # cycles; require a single cycle through the whole subset
    seen = {subset[0]}
    frontier = [subset[0]]
    while frontier:
        v = frontier.pop()
        for w in _bits(deg[v]):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(subset)


def maximal_chains_in_interval(l: Lattice, a: int, b: int) -> list[tuple[int, ...]]:
    """All maximal chains of the interval [a, b], as label sequences.

    Raises :class:`NotComparable` unless ``a < b``.
    """
    if a == b or not l.le(a, b):
        raise NotComparable(f"{a} < {b} required")
    up = l.digraph.up_adjacency()
    below_b = l.down[b]
    chains: list[tuple[int, ...]] = []
    stack: list[int] = [a]

    def walk(v: int) -> None:
        if v == b:
            chains.append(tuple(stack))
            return
        for w in _bits(up[v] & below_b):
            stack.append(w)
            walk(w)
            stack.pop()

    walk(a)
    return chains
