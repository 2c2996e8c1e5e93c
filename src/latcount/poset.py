"""Finite posets and lattices represented by their cover (Hasse) relation.

Elements are dense integer labels ``0..n-1``.  A :class:`CoverDigraph` is an
irredundant cover relation; a :class:`Lattice` additionally carries the full
order relation as bitmask rows, plus its bottom and top.  One reader turns
cover pairs into rows and rejects a bad cover, so every function that reads
a digraph's covers checks them, however the digraph was made.  Everything is
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
    ``hi``.  The fields are not checked when the value is built.  Every
    function that reads the covers rejects a label outside ``0..n-1``, a
    self-loop and a cover listed twice, naming the first such cover;
    :func:`build_poset` and :func:`as_lattice` also reject a cycle and a
    cover implied by a longer path.  The other readers take the covers as
    given, so there an implied cover gives a wrong answer.
    """

    n: int
    covers: tuple[tuple[int, int], ...]

    def up_adjacency(self) -> tuple[int, ...]:
        """Bitmask rows of upper covers: bit ``j`` of row ``i`` iff ``i`` is covered by ``j``."""
        return tuple(_cover_rows(self)[0])

    def down_adjacency(self) -> tuple[int, ...]:
        """Bitmask rows of lower covers."""
        return tuple(_cover_rows(self)[1])


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
        _check_labels(self.n, x, y)
        return bool(self.up[x] >> y & 1)


class ElementClassification(NamedTuple):
    """Reducible / doubly irreducible split of a lattice's elements."""

    red: frozenset[int]
    irr: frozenset[int]
    irr_star: frozenset[int]


def _check_labels(n: int, *labels: int) -> None:
    """Raise :class:`LabelOutOfRange` unless every label lies in ``0..n-1``:
    a negative label would index a row from the end."""
    for v in labels:
        if not 0 <= v < n:
            raise LabelOutOfRange(f"label {v} outside 0..{n - 1}")


def _cover_rows(p: CoverDigraph) -> tuple[list[int], list[int]]:
    """The upper-cover and lower-cover bitmask rows of ``p``, in one pass
    over its covers.

    Raises at the first bad cover: :class:`LabelOutOfRange` for a label
    outside ``0..n-1``, :class:`CycleDetected` for a self-loop and
    :class:`RedundantCover` for a cover listed twice.
    """
    n = p.n
    up, down = [0] * n, [0] * n
    for a, b in p.covers:
        try:
            # a label past n-1 fails the index, a negative one the shift;
            # the index comes first, so no unchecked label sizes a shift
            row, col = up[a], down[b]
            bit, low = 1 << b, 1 << a
        except (IndexError, ValueError):
            raise LabelOutOfRange(f"cover ({a}, {b}) outside 0..{n - 1}") from None
        if a == b:
            raise CycleDetected(f"self-loop at {a}")
        if row & bit:
            raise RedundantCover(f"cover ({a}, {b}) listed twice")
        up[a], down[b] = row | bit, col | low
    return up, down


def build_poset(n: int, covers: Iterable[tuple[int, int]]) -> CoverDigraph:
    """Normalize a cover relation on ``n`` elements (integer labels, each
    pair once, sorted) and check it as :func:`as_lattice` does.

    Raises :class:`LabelOutOfRange`, :class:`CycleDetected` or
    :class:`RedundantCover` when the input is not an irredundant acyclic
    cover set.
    """
    p = CoverDigraph(n, tuple(sorted(set((int(a), int(b)) for a, b in covers))))
    _checked_order(p)
    return p


def _checked_order(p: CoverDigraph) -> tuple[list[int], list[int]]:
    """Check that ``p`` is an irredundant acyclic cover relation on
    ``n`` >= 1 elements; return a linear extension (one pass of Kahn's
    algorithm) and the strict up-set masks.  Every error names the first
    offending pair in the order of ``p.covers``.
    """
    n = p.n
    if n < 1:
        raise LabelOutOfRange(f"need at least one element, got n={n}")
    rows = _cover_rows(p)[0]
    topo = _topological_order(n, rows)
    strict = _strict_up_order(rows, topo)
    # (a, b) is redundant when b is reachable from some other upper cover of a
    for a, b in p.covers:
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

    When the first element of the linear extension lies below every
    element, joins alone are tested: in a finite poset with a bottom where
    every pair has a join, the meet of two elements is the join of their
    common lower bounds, a set the bottom makes non-empty.  Where a join is
    missing, or there is no bottom, joins and meets are tested pair by pair
    as above, so the witness and kind are those of the full test.
    """
    n = p.n
    topo, strict = _checked_order(p)
    up = tuple(strict[i] | (1 << i) for i in range(n))
    pos = [0] * n
    for i, v in enumerate(topo):
        pos[v] = i
    down = [0] * n
    ups = [0] * n  # up-sets over positions
    for i in range(n):
        row = 0
        for j in _bits(up[i]):
            down[j] |= 1 << i
            row |= 1 << pos[j]
        ups[pos[i]] = row
    full = (1 << n) - 1
    # a comparable pair has a join and a meet: x is tested only with the
    # later labels incomparable with it
    later = [full >> (x + 1) << (x + 1) & ~(up[x] | down[x]) for x in range(n)]
    if up[topo[0]] != full or not _has_joins(ups, pos, later):
        downs = [0] * n  # down-sets over positions
        for j in range(n):
            for i in _bits(down[j]):
                downs[pos[j]] |= 1 << pos[i]
        for x in range(n):
            up_x, down_x = ups[pos[x]], downs[pos[x]]
            for y in _bits(later[x]):
                above = up_x & ups[pos[y]]
                if not above or ups[(above & -above).bit_length() - 1] != above:
                    raise NotALattice((x, y), "join")
                below = down_x & downs[pos[y]]
                if not below or downs[below.bit_length() - 1] != below:
                    raise NotALattice((x, y), "meet")
    return Lattice(p, up, tuple(down), topo[0], topo[-1])


def _has_joins(ups: list[int], pos: list[int], later: list[int]) -> bool:
    """Whether each label ``x`` has a join with every label of the mask
    ``later[x]``, read off the up-sets ``ups`` over the positions ``pos``
    of a linear extension."""
    for x, others in enumerate(later):
        up_x = ups[pos[x]]
        for y in _bits(others):
            above = up_x & ups[pos[y]]
            if not above or ups[(above & -above).bit_length() - 1] != above:
                return False
    return True


def meet_join(l: Lattice, x: int, y: int) -> tuple[int, int]:
    """Return ``(x meet y, x join y)``; total on a lattice, where the common
    upper bounds of ``x`` and ``y`` are the up-set of their join, and the
    common lower bounds the down-set of their meet."""
    _check_labels(l.n, x, y)
    above, below = l.up[x] & l.up[y], l.down[x] & l.down[y]
    join = next(v for v in _bits(above) if l.up[v] == above)
    meet = next(v for v in _bits(below) if l.down[v] == below)
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
    relation, as :func:`build_poset` and :func:`as_lattice` check.  A label
    outside ``0..n-1``, a self-loop or a cover listed twice raises as they
    do.
    """
    up, down = _cover_rows(p)
    red = frozenset(_reducibles(up, down))
    irr = frozenset(range(p.n)) - red
    star = frozenset(v for v in irr if up[v] and down[v])
    return ElementClassification(red, irr, star)


def _reducibles(up: list[int], down: list[int]) -> list[int]:
    """The reducible elements, ascending, from the rows that
    :func:`_cover_rows` reads: those with two or more upper or two or more
    lower covers."""
    return [v for v, (u, d) in enumerate(zip(up, down)) if u & u - 1 or d & d - 1]


def nullity(p: CoverDigraph) -> int:
    """Cycle rank of the cover graph: edges - vertices + components.

    Reads the covers of ``p`` as given: ``p`` is an irredundant cover
    relation, as :func:`build_poset` and :func:`as_lattice` check.  A label
    outside ``0..n-1``, a self-loop or a cover listed twice raises as they
    do.
    """
    _cover_rows(p)
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
    """Reverse all covers, keeping labels; a bad cover raises as in
    :func:`nullity`."""
    _cover_rows(p)
    return CoverDigraph(p.n, tuple(sorted((b, a) for a, b in p.covers)))


def relabel(p: CoverDigraph, perm: Iterable[int]) -> CoverDigraph:
    """Apply a permutation (``perm[old] = new``) of ``0..n-1`` to the
    labels; any other list raises :class:`LabelOutOfRange`, and a bad cover
    raises as in :func:`nullity`."""
    _cover_rows(p)
    pi = list(perm)
    if sorted(pi) != list(range(p.n)):
        raise LabelOutOfRange(f"{pi} is not a permutation of 0..{p.n - 1}")
    return CoverDigraph(p.n, tuple(sorted((pi[a], pi[b]) for a, b in p.covers)))


def chain(k: int) -> Lattice:
    """The k-element chain 0 < 1 < ... < k-1."""
    return as_lattice(CoverDigraph(k, tuple((i, i + 1) for i in range(k - 1))))


def induced_subposet(p: CoverDigraph, keep: Iterable[int]) -> CoverDigraph:
    """Induced subposet on ``keep``, relabeled densely in ascending label
    order; a label outside ``0..n-1`` raises :class:`LabelOutOfRange`."""
    kept = sorted(set(keep))
    _check_labels(p.n, *kept)
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
    up, down = _cover_rows(l.digraph)
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

    Raises :class:`LabelOutOfRange` for a label outside ``0..n-1`` and
    :class:`NotComparable` unless ``a < b``.
    """
    _check_labels(l.n, a, b)
    if a == b or not l.up[a] >> b & 1:
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
