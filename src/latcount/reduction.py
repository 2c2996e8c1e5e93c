"""Retraction of posets down to basic blocks and fundamental basic blocks.

A doubly irreducible element sandwiched between two reducible elements is
*retractible* when the sandwich path is the only route between them; removing
retractible elements (and then pruning pendant vertices) shrinks a poset to
its basic block without touching the reducible elements.  Trimming repeated
ears then yields the fundamental basic block, which for lattices with two or
three pairwise comparable reducible elements is one of five fixed shapes:
the diamond M2 and the six-to-eight element blocks F1, F2, F3, F4.
"""

from __future__ import annotations

import enum

from .adjunct import spine_and_components
from .canon import Certificate, canonical_certificate
from .poset import (
    CoverDigraph,
    Lattice,
    LatticeError,
    _bits,
    as_lattice,
    build_poset,
    classify_elements,
    induced_subposet,
    poset_classification,
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
    OTHER = "Other"


def m2() -> Lattice:
    """The four-element diamond."""
    return as_lattice(build_poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))


def f1() -> Lattice:
    """Six elements; the middle reducible element is meet-reducible only."""
    return as_lattice(
        build_poset(6, [(0, 1), (1, 2), (1, 3), (2, 5), (3, 5), (0, 4), (4, 5)])
    )


def f2() -> Lattice:
    """The dual of F1: the middle reducible element is join-reducible only."""
    return as_lattice(
        build_poset(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 5), (0, 4), (4, 5)])
    )


def f3() -> Lattice:
    """Seven elements; two diamonds stacked through the middle element."""
    return as_lattice(
        build_poset(
            7,
            [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
        )
    )


def f4() -> Lattice:
    """F3 plus one extra chain strung from bottom to top."""
    return as_lattice(
        build_poset(
            8,
            [
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 7),
                (5, 7),
                (0, 6),
                (6, 7),
            ],
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
    cls = poset_classification(p)
    if x not in cls.irr:
        raise NotDoublyIrreducible(f"element {x} is reducible")
    up = p.up_adjacency()
    dn = p.down_adjacency()
    lows = list(_bits(dn[x]))
    highs = list(_bits(up[x]))
    if len(lows) != 1 or len(highs) != 1:
        return True
    y, z = lows[0], highs[0]
    if y not in cls.red or z not in cls.red:
        return True
    return not _path_avoiding(p, y, z, x)


def _path_avoiding(p: CoverDigraph, src: int, dst: int, banned: int) -> bool:
    up = p.up_adjacency()
    seen = {src}
    frontier = [src]
    while frontier:
        v = frontier.pop()
        for w in _bits(up[v]):
            if w == banned or w in seen:
                continue
            if w == dst:
                return True
            seen.add(w)
            frontier.append(w)
    return False


def _remove(p: CoverDigraph, labels: tuple[int, ...], victim: int):
    keep = [v for v in range(p.n) if v != victim]
    return induced_subposet(p, keep), tuple(labels[v] for v in keep)


def _retract_pass(p: CoverDigraph, labels: tuple[int, ...]):
    changed = False
    while True:
        cls = poset_classification(p)
        victim = next((x for x in sorted(cls.irr_star) if is_retractible(p, x)), None)
        if victim is None:
            return p, labels, changed
        p, labels = _remove(p, labels, victim)
        changed = True


def _prune_pass(p: CoverDigraph, labels: tuple[int, ...]):
    changed = False
    while p.n > 1:
        up = p.up_adjacency()
        dn = p.down_adjacency()
        victim = next(
            (v for v in range(p.n) if bin(up[v]).count("1") + bin(dn[v]).count("1") == 1),
            None,
        )
        if victim is None:
            return p, labels, changed
        p, labels = _remove(p, labels, victim)
        changed = True
    return p, labels, changed


def basic_retract_with_map(p: CoverDigraph) -> tuple[CoverDigraph, tuple[int, ...]]:
    """Retract until no doubly irreducible element with both covers is removable.

    Also returns the surviving original labels, position = new label.
    """
    out, labels, _ = _retract_pass(p, tuple(range(p.n)))
    return out, labels


def basic_retract(p: CoverDigraph) -> CoverDigraph:
    return basic_retract_with_map(p)[0]


def basic_block_with_map(p: CoverDigraph) -> tuple[CoverDigraph, tuple[int, ...]]:
    """Retract and prune pendant vertices to a joint fixed point."""
    labels = tuple(range(p.n))
    while True:
        p, labels, retracted = _retract_pass(p, labels)
        p, labels, pruned = _prune_pass(p, labels)
        if not (retracted or pruned):
            return p, labels


def basic_block_of(p: CoverDigraph) -> CoverDigraph:
    return basic_block_with_map(p)[0]


def fundamental_basic_block_of(l: Lattice) -> Lattice:
    """Trim the basic block of ``l`` until all its glue pairs are distinct.

    For each pair glued more than once, all parallel two-step ears but one are
    removed (the spine route through the pair stays, so a pair whose open
    interval is free of reducible elements keeps two routes).
    """
    block = basic_block_of(l.digraph)
    if block.n == 1:
        return as_lattice(block)
    block_lat = as_lattice(block)
    _, components = spine_and_components(block_lat)
    by_pair: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for a, b, elems in components:
        by_pair.setdefault((a, b), []).append(elems)
    drop: set[int] = set()
    for ears in by_pair.values():
        kept = min(ears, key=lambda e: (len(e), e))
        for elems in ears:
            if elems is not kept:
                drop.update(elems)
    keep = [v for v in range(block_lat.n) if v not in drop]
    return as_lattice(induced_subposet(block, keep))


def classify_fbb(l: Lattice) -> FbbClass:
    """Name the fundamental basic block of a 2- or 3-reducible lattice."""
    r = len(classify_elements(l).red)
    if r not in (2, 3):
        raise ValueError(f"classification needs 2 or 3 reducible elements, got {r}")
    fbb = fundamental_basic_block_of(l)
    tag = _REFERENCE.get(canonical_certificate(fbb.digraph))
    if tag is None or (r == 2) != (tag is FbbClass.M2):
        raise UnexpectedClass(
            f"{r}-reducible lattice reduced to an unrecognized block"
        )
    return tag
