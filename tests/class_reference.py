"""A brute-force reference for the constructive path in ``oracle``, shared by
the test modules.

``reference_blocks`` realizes every recipe and keeps the first block per
certificate, in recipe order and in the labels of its recipe, and
``reference_class`` pads each block by ``direct_sum`` with chains below and
above and canonicalizes every padding on its own.  These are the members
the constructive path kept, lattices and all, before its tables kept only
certificates and F-classes.  The pins that hash labels of class members and
blocks read these lattices, so they stay fixed whatever the oracle keeps.
``three_block_fibers`` counts the 3-reducible blocks of
``oracle.block_census`` by F-class and edge surplus, the cells the block
formulas give.
"""

from functools import cache

from latcount import oracle
from latcount.adjunct import direct_sum, realize
from latcount.canon import Certificate, canonical_certificate
from latcount.poset import Lattice, as_lattice, chain
from latcount.reduction import FbbClass

@cache
def reference_blocks(m: int, r: int) -> dict[Certificate, Lattice]:
    """The blocks on m elements with exactly r reducibles, by certificate:
    the first realization of each in recipe order."""
    blocks: dict[Certificate, Lattice] = {}
    for rep, _ in oracle._block_reps(m, r):
        block = realize(rep)
        blocks.setdefault(canonical_certificate(block.digraph), block)
    return blocks


def pad(block: Lattice, below: int, above: int) -> Lattice:
    """``block`` with a chain of ``below`` elements under it and one of
    ``above`` elements over it."""
    digraph = block.digraph
    if below:
        digraph = direct_sum(chain(below).digraph, digraph)
    if above:
        digraph = direct_sum(digraph, chain(above).digraph)
    return as_lattice(digraph) if (below or above) else block


@cache
def reference_class(n: int, r: int) -> dict[Certificate, Lattice]:
    """Every n-element lattice with exactly r reducibles, by certificate, in
    the key order of ``oracle.reducible_class``: by the padding j, then by
    certificate.  Each block on n - j elements is padded in all j + 1 ways,
    and each padding is canonicalized; the first padding per certificate
    wins.

    Asserts that the keys are those of ``oracle.reducible_class(n, r)``, in
    order, and that every one of the sum over j of (j + 1) times the number
    of blocks on n - j elements paddings built has a certificate of its own.
    """
    members: dict[Certificate, Lattice] = {}
    built = 0
    for j in range(n):
        found: dict[Certificate, Lattice] = {}
        for block in reference_blocks(n - j, r).values():
            for below in range(j + 1):
                lat = pad(block, below, j - below)
                found.setdefault(canonical_certificate(lat.digraph), lat)
                built += 1
        members.update(sorted(found.items()))
    assert list(members) == list(oracle.reducible_class(n, r)), (n, r)
    assert built == len(members) == sum(
        (j + 1) * len(oracle._block_table(n - j, r)) for j in range(n)
    ), (n, r)
    return members


def three_block_fibers(m: int) -> dict[tuple[FbbClass, int], int]:
    """The number of 3-reducible blocks on m elements of each (F-class,
    edge surplus k), read off ``oracle.block_census(m, 3)``."""
    fibers: dict[tuple[FbbClass, int], int] = {}
    for k, blocks in oracle.block_census(m, 3).items():
        for fbb in blocks.values():
            fibers[fbb, k] = fibers.get((fbb, k), 0) + 1
    return fibers
