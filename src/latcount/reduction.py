"""Retraction of posets down to basic blocks and fundamental basic blocks.

A doubly irreducible element sandwiched between two reducible elements is
*retractible* when the sandwich path is the only route between them; removing
retractible elements (and then pruning pendant vertices) shrinks a poset to
its basic block without touching the reducible elements.  Every element of a
basic block that is not reducible is then an *ear*: one element between a
reducible lower cover and a reducible upper cover that some other path also
joins.  Trimming repeated ears yields the fundamental basic block, which for
lattices with two or three pairwise comparable reducible elements is one of
five fixed shapes: the diamond M2 and the six-to-eight element blocks F1,
F2, F3, F4.

Every step deletes vertices in place from one pair of cover rows; a cover
digraph is built once, from the vertices left at the end.  ``classify_fbb``
tags the lattices of the exhaustive search and the documents of lattices
given without a class; the constructive block tables read the class off
the bundle widths at the middle reducible element of each recipe instead
(``oracle._spine_class``).  Lattices trim to few distinct labelled fundamental basic blocks, so
``classify_fbb`` remembers the class of each one it has recognized and
canonicalizes only a labelled shape it has not seen before.
"""

from __future__ import annotations

import enum

from .canon import Certificate, canonical_certificate
from .poset import (
    CoverDigraph,
    Lattice,
    LatticeError,
    _bits,
    _check_labels,
    _cover_rows,
    _delete,
    _irreducible,
    _joined,
    _live_digraph,
    _strip,
    as_lattice,
    classify_elements,
)


class NotDoublyIrreducible(LatticeError):
    pass


class UnexpectedClass(LatticeError):
    """A 2- or 3-reducible lattice reduced to an unrecognized shape (a bug)."""


class FbbClass(enum.Enum):
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"
    M2 = "M2"


def m2() -> Lattice:
    """The four-element diamond."""
    return as_lattice(CoverDigraph(4, ((0, 1), (0, 2), (1, 3), (2, 3))))


def f1() -> Lattice:
    """Six elements; the middle reducible element is meet-reducible only."""
    return as_lattice(
        CoverDigraph(6, ((0, 1), (0, 4), (1, 2), (1, 3), (2, 5), (3, 5), (4, 5)))
    )


def f2() -> Lattice:
    """The dual of F1: the middle reducible element is join-reducible only."""
    return as_lattice(
        CoverDigraph(6, ((0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 5), (4, 5)))
    )


def f3() -> Lattice:
    """Seven elements; two diamonds stacked through the middle element."""
    return as_lattice(
        CoverDigraph(
            7, ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6))
        )
    )


def f4() -> Lattice:
    """F3 plus one extra chain strung from bottom to top."""
    return as_lattice(
        CoverDigraph(
            8,
            (
                (0, 1),
                (0, 2),
                (0, 6),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 7),
                (5, 7),
                (6, 7),
            ),
        )
    )


_REFERENCE: dict[Certificate, FbbClass] = {
    canonical_certificate(lat.digraph): tag
    for tag, lat in (
        (FbbClass.M2, m2()),
        (FbbClass.F1, f1()),
        (FbbClass.F2, f2()),
        (FbbClass.F3, f3()),
        (FbbClass.F4, f4()),
    )
}


def is_retractible(p: CoverDigraph, x: int) -> bool:
    """Whether the doubly irreducible element ``x`` can be retracted.

    ``x`` survives only when it is sandwiched between two reducible elements
    that are also connected by a second directed path.
    """
    _check_labels(p.n, x)
    up, down = _cover_rows(p)
    if not _irreducible(up, down, x):
        raise NotDoublyIrreducible(f"element {x} is reducible")
    return not _sandwiched(up, down, x) or _retract_victim(up, down, x)


def _sandwiched(up, down, v: int) -> bool:
    return up[v].bit_count() == 1 == down[v].bit_count()


def _retract_victim(up, down, v: int) -> bool:
    """Whether ``v`` is sandwiched and no second path joins its two covers
    where both are reducible."""
    if not _sandwiched(up, down, v):
        return False
    y, z = down[v].bit_length() - 1, up[v].bit_length() - 1
    if _irreducible(up, down, y) or _irreducible(up, down, z):
        return True
    return not _joined(up, y, z, 1 << v)


def _pendant(up, down, v: int) -> bool:
    return up[v].bit_count() + down[v].bit_count() == 1


def _block_rows(p: CoverDigraph) -> tuple[list[int], list[int], int]:
    """Cover rows and live mask of the basic block of ``p``: retract, then
    prune, until neither deletes anything."""
    up, down = _cover_rows(p)
    live = (1 << p.n) - 1
    while True:
        start = live
        live = _strip(up, down, live, _retract_victim)
        live = _strip(up, down, live, _pendant)
        if live == start:
            return up, down, live


def basic_retract_with_map(p: CoverDigraph) -> tuple[CoverDigraph, tuple[int, ...]]:
    """Retract until no doubly irreducible element with both covers is removable.

    Also returns the surviving original labels, position = new label.
    """
    up, down = _cover_rows(p)
    return _live_digraph(up, _strip(up, down, (1 << p.n) - 1, _retract_victim))


def basic_retract(p: CoverDigraph) -> CoverDigraph:
    return basic_retract_with_map(p)[0]


def basic_block_with_map(p: CoverDigraph) -> tuple[CoverDigraph, tuple[int, ...]]:
    """Retract and prune pendant vertices to a joint fixed point."""
    up, _, live = _block_rows(p)
    return _live_digraph(up, live)


def basic_block_of(p: CoverDigraph) -> CoverDigraph:
    return basic_block_with_map(p)[0]


def fundamental_basic_block_of(l: Lattice) -> Lattice:
    """Trim the basic block of ``l`` down to the ears each glue pair needs.

    The ears of a pair (lower, upper) are the block elements between those
    two reducible elements alone.  Where nothing else joins the pair, its
    two smallest ears stay, else only the smallest: two between consecutive
    reducible elements that no cover joins, one at a pair with ears that
    skips a reducible element.
    """
    return as_lattice(_fbb_digraph(l))


def _fbb_digraph(l: Lattice) -> CoverDigraph:
    """The fundamental basic block of ``l``, labelled as it is trimmed."""
    up, down, live = _block_rows(l.digraph)
    ears: dict[tuple[int, int], list[int]] = {}
    for v in _bits(live):
        if _sandwiched(up, down, v):
            pair = (down[v].bit_length() - 1, up[v].bit_length() - 1)
            ears.setdefault(pair, []).append(v)
    for (y, z), group in ears.items():
        keep = 1 if _joined(up, y, z, sum(1 << v for v in group)) else 2
        for v in group[keep:]:
            live = _delete(up, down, live, v)
    return _live_digraph(up, live)[0]


# The class of each labelled fundamental basic block recognized so far;
# filled once per process, like ``search._LEVELS``.  It serves
# ``search.census`` and ``documents.lattice_document``, not the block
# tables.  Lattices trim to few labelled shapes, so most lookups skip the
# canonizer.  A block that matches no reference is never stored.
_FBB_CLASSES: dict[CoverDigraph, FbbClass] = {}


def classify_fbb(l: Lattice) -> FbbClass:
    """Name the fundamental basic block of a 2- or 3-reducible lattice."""
    r = len(classify_elements(l).red)
    if r not in (2, 3):
        raise ValueError(f"classification needs 2 or 3 reducible elements, got {r}")
    fbb = _fbb_digraph(l)
    tag = _FBB_CLASSES.get(fbb)
    if tag is None:
        # a certificate equal to a reference's proves fbb is that lattice;
        # any other digraph, lattice or not, raises below
        tag = _REFERENCE.get(canonical_certificate(fbb))
        if tag is not None:
            _FBB_CLASSES[fbb] = tag
    if tag is None or (r == 2) != (tag is FbbClass.M2):
        raise UnexpectedClass(
            f"{r}-reducible lattice reduced to an unrecognized block"
        )
    return tag
