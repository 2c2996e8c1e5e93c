"""Exhaustive extension search: every unlabeled lattice on n <=
``FULL_SEARCH_LIMIT`` elements, and its census by reducible count and
fundamental basic block.

The search grows finite meet-semilattices breadth first, one element at a
time: each new element brings its full down-set, an order ideal of the
state tried once per automorphism orbit, and must have a unique meet with
every old element, and a state is its down-sets alone.  A child is kept
only if its new element can be its canonical deletion (canonical
augmentation, McKay 1998): a cheap invariant drops most other children
before they are canonicalized, and the child's canonical labeling and
automorphisms settle ties (levels 2..9 canonicalize 7,514 children, against
15,681 without the rule).

Its states on n - 1 elements are the finite meet-semilattices, one per
isomorphism class, and removing the top is a bijection from n-element
lattices onto them, so adjoining a top to each state of level n - 1
harvests every unlabeled lattice on n elements without building level n.
Each level is one table, keyed by the certificates of the lattices its
states become, that keeps each state with the automorphisms its expansion
reads: adjoining a top is a bijection on isomorphism classes, so these keys
tell states apart exactly as the states' own certificates would.  The
census reads every certificate off level n - 1 without canonicalizing
again, and each lattice is its certificate: the reducible count is read off
the decoded covers, and only the 3-reducible lattices are built as
``Lattice`` values, in canonical labels, to classify their fundamental
basic blocks.

This is one of the two enumeration oracles that ``oracle.verify`` checks
every closed-form count against.  It shares none of the adjunct-of-chains
recipes of the other, the constructive path in ``oracle``, and loads
neither that path nor ``adjunct``, ``partitions`` or ``formulas``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import canon
from .canon import Certificate, canonical_certificate
from .errors import SizeLimitExceeded
from .poset import CoverDigraph, _bits, _cover_degrees, as_lattice
from .reduction import FbbClass, classify_fbb

FULL_SEARCH_LIMIT = 8


# ---------------------------------------------------------------------------
# Level expansion.
#
# A state is ``downs``, a tuple of strict down-set bitmasks: downs[i] holds
# the elements below element i.  Labels are insertion order, a linear
# extension, so a down-set holds only earlier labels and the highest label
# of a down-set is maximal in it.
#
# Invariant: every state is a meet-semilattice; element 0 is its bottom and
# every pair has a unique meet.  Joins follow: a pair with a common upper
# bound has a join, the meet of all its common upper bounds.  Removing a
# maximal element from a meet-semilattice leaves one, so every
# meet-semilattice grows from the one-element state through meet-semilattices
# alone, and pruning on the invariant loses nothing.
#
# _LEVELS[k] maps the certificate of the (k + 1)-element lattice a state
# becomes, with a top adjoined, to the one state of level k that becomes it
# and generators of that lattice's automorphism group.  Level 0 holds the
# empty state, which becomes the one-element lattice.
#
# Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
# 1998) picks that state.  A state's children are its order ideals that
# hold the bottom, each the down-set of a new element, tried in ascending
# mask order.  An automorphism of the lattice a state becomes fixes its top,
# so it permutes the state's ideals and maps each child onto an isomorphic
# one.  A state's generators are the automorphisms that canonicalizing it
# found when it was kept, which generate the whole group
# (``canon._certificate``), and the expansion tries one ideal per orbit:
# the smallest, which comes first.
#
# A child is kept only if its new element lies in the orbit of its
# canonical deletion, a maximal element chosen by an isomorphism-invariant
# rule.  First each maximal element is ranked by (down-set size, number of
# lower covers, sorted down-set sizes of those covers), and a child whose
# new element does not rank highest is dropped before it is canonicalized.
# Among the elements that tie with it, the deletion is the one the child's
# canonical labeling puts last.  Every class of the next level then has
# exactly one kept child: delete the canonical deletion of any member, and
# the level below holds one state isomorphic to the rest, whose tried ideal
# in the right orbit gives a child in which the new element is the
# deletion, up to automorphism.  Two kept children that are isomorphic
# would have an isomorphism mapping one new element onto the other, so they
# would grow from the same state by ideals of one orbit, and only one of
# those is tried.  Levels 2..9 canonicalize 7,514 children for their 7,370
# states, of the 15,681 children that pass the meet test.
# ---------------------------------------------------------------------------

# (downs, generators)
_State = tuple[tuple[int, ...], list[list[int]]]

_LEVELS: dict[int, dict[Certificate, _State]] = {
    0: {canonical_certificate(CoverDigraph(1, ())): ((), [])},
    # the one-element state becomes the 2-chain
    1: {canonical_certificate(CoverDigraph(2, ((0, 1),))): ((0,), [])},
}


def _level(n: int) -> dict[Certificate, _State]:
    top = max(_LEVELS)
    while top < n:
        nxt: dict[Certificate, _State] = {}
        for downs, gens in _LEVELS[top].values():
            _expand(downs, gens, nxt)
        top += 1
        _LEVELS[top] = nxt
    return _LEVELS[n]


def _expand(downs: tuple[int, ...], gens: list[list[int]], out: dict) -> None:
    k = len(downs)
    # (ideal, union of its members' down-sets), ascending: the members of an
    # ideal below label i form an ideal found before, and i joins any ideal
    # that holds its down-set.  Every ideal holds the bottom, bit 0.
    ideals = [(1, 0)]
    for i in range(1, k):
        ideals += [(m | 1 << i, u | downs[i]) for m, u in ideals if not downs[i] & ~m]
    lows = _lower_covers(downs)
    # upper covers of each old element among the old elements
    base = [0] * k
    below_any = 0
    for i, low in enumerate(lows):
        below_any |= downs[i]
        for j in _bits(low):
            base[j] |= 1 << i
    maximal = (1 << k) - 1 & ~below_any
    sizes = [d.bit_count() for d in downs]
    # the old maximal elements, highest rank first: each stays maximal, with
    # its rank, in every child whose ideal does not hold it
    rivals = sorted(
        ((_rank(downs[x], lows[x], sizes), x) for x in _bits(maximal)), reverse=True
    )
    tried: set[int] = set()
    for d_mask, under in ideals:
        if d_mask in tried:
            continue  # an automorphic image of a smaller ideal
        tried |= _mask_orbit(d_mask, gens)
        # every old element x must get a unique meet with the new one.  The
        # common lower bounds form a down-set, so its highest label t is
        # maximal in it, and the meet exists iff the set is t's down-set.
        for x in range(k):
            if d_mask >> x & 1:
                continue
            common = (downs[x] | 1 << x) & d_mask
            t = common.bit_length() - 1
            if common != downs[t] | 1 << t:
                break
        else:
            # the new element k covers the maximal members of its ideal
            covered = d_mask & ~under
            rank = _rank(d_mask, covered, sizes)
            rest = [(r, x) for r, x in rivals if not d_mask >> x & 1]
            if rest and rest[0][0] > rank:
                continue  # k is not the canonical deletion
            ties = [x for r, x in rest if r == rank]
            # the top k + 1 covers k and the old maximal elements outside it
            above = maximal & ~d_mask
            up = [
                base[j] | (covered >> j & 1) << k | (above >> j & 1) << (k + 1)
                for j in range(k)
            ]
            up += [1 << (k + 1), 0]
            cert, labeling, automorphisms = canon._certificate(k + 2, up)
            if ties:
                last = max(ties + [k], key=labeling.index)
                if last != k and 1 << k not in _mask_orbit(1 << last, automorphisms):
                    continue  # k is not in the canonical deletion's orbit
            if cert in out:
                raise RuntimeError(
                    f"canonical augmentation kept certificate {cert.data.hex()} twice"
                )
            out[cert] = (downs + (d_mask,), automorphisms)


def _rank(down: int, low: int, sizes: list[int]) -> tuple:
    """The invariant that ranks a maximal element with strict down-set
    ``down`` and lower covers ``low`` as a canonical deletion; ``sizes``
    holds each element's down-set size."""
    return (down.bit_count(), low.bit_count(), sorted(sizes[j] for j in _bits(low)))


def _lower_covers(downs: tuple[int, ...]) -> list[int]:
    """The lower covers of each element of a state, as bitmasks: ``j`` is a
    lower cover of ``i`` unless it lies below another element of ``i``'s
    down-set."""
    lows = []
    for di in downs:
        under = 0
        for j in _bits(di):
            under |= downs[j]
        lows.append(di & ~under)
    return lows


def _mask_orbit(mask: int, gens: list[list[int]]) -> set[int]:
    """The images of the element set ``mask`` under the group the vertex
    permutations ``gens`` generate."""
    orbit = {mask}
    stack = [mask]
    while stack:
        m = stack.pop()
        for g in gens:
            image = sum(1 << g[j] for j in _bits(m))
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return orbit


def _lattice_certificates(n: int) -> list[Certificate]:
    """The certificate of every n-element lattice, sorted.

    A lattice minus its top is a finite meet-semilattice, and the states of
    level n - 1 are those, one per isomorphism class; each becomes a lattice
    when a top is adjoined above its maximal elements, and the level is
    keyed by that lattice's certificate.  The entry point of
    the census, so the size limit is checked here; sizes below 1 have no
    lattices.
    """
    if n > FULL_SEARCH_LIMIT:
        raise SizeLimitExceeded(
            f"full lattice search capped at {FULL_SEARCH_LIMIT} elements"
        )
    return sorted(_level(n - 1)) if n >= 1 else []


def enumerate_all_lattices(n: int) -> frozenset[Certificate]:
    """Certificates of all unlabeled lattices on ``n`` elements
    (n <= ``FULL_SEARCH_LIMIT``)."""
    return frozenset(_lattice_certificates(n))


# ---------------------------------------------------------------------------
# Census.
# ---------------------------------------------------------------------------


class OracleCensus(NamedTuple):
    """Certificates of all n-element lattices, split by reducible count,
    with the 3-reducible class further split by fundamental basic block."""

    n: int
    classes: dict[int, frozenset[Certificate]]
    fbb_fibers: dict[FbbClass, frozenset[Certificate]]

    def total(self) -> int:
        return sum(len(v) for v in self.classes.values())


def census(n: int) -> OracleCensus:
    """Full census by exhaustive search (n <= ``FULL_SEARCH_LIMIT``).

    Each member is its certificate; only the 3-reducible ones are built as
    ``Lattice`` values, in the canonical labels their certificates decode
    to, for ``classify_fbb`` to read."""
    classes = _reducible_split(n)
    fibers: dict[FbbClass, set[Certificate]] = {}
    for cert in classes.get(3, ()):
        lat = as_lattice(canon.decode_certificate(cert))
        fibers.setdefault(classify_fbb(lat), set()).add(cert)
    return OracleCensus(
        n,
        {r: frozenset(v) for r, v in classes.items()},
        {tag: frozenset(v) for tag, v in fibers.items()},
    )


def _reducible_split(n: int) -> dict[int, list[Certificate]]:
    """The certificate of every n-element lattice of the exhaustive search,
    sorted, keyed by its number of reducible elements (n <=
    ``FULL_SEARCH_LIMIT``).  The count reads the cover degrees of the
    decoded digraph, as ``classify_elements`` does, and builds no
    ``Lattice``: every certificate of the search is a lattice's."""
    classes: dict[int, list[Certificate]] = {}
    for cert in _lattice_certificates(n):
        uppers, lowers = _cover_degrees(canon.decode_certificate(cert))
        red = sum(u > 1 or d > 1 for u, d in zip(uppers, lowers))
        classes.setdefault(red, []).append(cert)
    return classes
