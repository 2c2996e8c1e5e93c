"""Constructive enumeration of the lattices with exactly 2 or 3 reducible
elements, and the verification driver that compares every closed-form count
against it and against the exhaustive search of ``search``.

The constructive path realizes adjunct-of-chains recipes for the classes
with exactly 2 or 3 reducible elements, and stays feasible past the full
search limit.  Each member is a maximal block padded by chains below and
above, and is its certificate.  Every block is realized, canonicalized and
F-classified once per process, and its table keeps the certificate and the
F-class alone.  The F-class comes from the paper's structure theorem, which
the recipes assume already: the middle of the three reducible elements
decides it (:func:`_block_class`), with no retraction.  The search tags its
lattices with ``reduction.classify_fbb`` instead, so the two oracles'
fibers come from two classifiers.  The certificate of each padding is read
off the block's certificate (:func:`canon.padded_certificate`), not
searched again, and each member inherits its block's F-class, which
padding does not change.
The tables are the costly part and the only unit of parallel work: with
more than one worker, once the largest table this process lacks has
``POOL_BREAK_EVEN`` elements or more, a fork pool builds the tables it
lacks, one table per task, and this process pads their certificates; below
that the pool would cost more than it saves, and each table is built here
when it is first read.

The constructive path and the search are deliberately separate.  Where
they overlap they must produce identical certificate sets; the verify
driver checks that, plus every formula cell, and reports witnesses on any
disagreement.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from . import canon, formulas
from .adjunct import AdjunctPair, AdjunctRep, realize
from .canon import Certificate, canonical_certificate, padded_certificate
from .errors import SizeLimitExceeded
from .partitions import enumerate_partitions
from .poset import Lattice, _cover_degrees
from .reduction import FbbClass, UnexpectedClass

# ``verify`` reads the search through these.  ``census`` and ``_LEVELS``
# are bound here for perfbench/tracer.py alone, which times and counts the
# search through this module.
from .search import FULL_SEARCH_LIMIT, _LEVELS, _reducible_split, census

CLASS_SEARCH_LIMIT = 12
# The smallest block size m at which a fork pool pays for itself: a run
# forks only if the largest (m, r) table it lacks has at least this many
# elements.  With a pool forked at every size, over 12 alternating cold
# pairs of ``enumerate --n N --reducible 3`` with one worker against two on
# a 2-core x86 host (Python 3.11), two were faster at N = 10 in 3 pairs
# (medians 0.16 s against 0.21 s), at N = 11 in 11 (0.29 s against 0.27 s),
# at N = 12 in 11 (0.59 s against 0.52 s) and at N = 13 in 12 (1.29 s
# against 0.98 s).  Two cost more CPU time at every N (0.29 s against
# 0.34 s at N = 11), so N = 11, which saves 0.02 s, stays in-process.
POOL_BREAK_EVEN = 12


# ---------------------------------------------------------------------------
# Constructive generation from adjunct-of-chains recipes.
# ---------------------------------------------------------------------------


def _two_reducible_block_reps(m: int):
    """Adjunct recipes for blocks on m elements with exactly 2 reducibles.

    One spine from bottom to top plus k + 1 parallel chains at the
    bottom/top pair; chain sizes sweep the partitions of the m - 2
    non-extreme elements.
    """
    for k in range(0, m - 3):
        for parts in enumerate_partitions(m - 2, k + 2):
            spine = parts[0] + 2
            pair = AdjunctPair(0, spine - 1)
            yield AdjunctRep(
                chains=(spine, *parts[1:]), pairs=(pair,) * (k + 1)
            )


def _three_reducible_block_reps(m: int):
    """Adjunct recipes for blocks on m elements with exactly 3 reducibles.

    The reducibles sit on a spine bottom < mid < top.  A recipe is three
    bundles of parallel chains: ``low`` between bottom and mid, ``high``
    between mid and top, ``outer`` from bottom to top avoiding mid.  A bundle
    of one chain may be a bare cover (size 0); a bundle with parallel routes
    needs every route non-empty.  Four shapes arise: mid meet-reducible only,
    join-reducible only, both without outer chains, and both with them.
    """
    budget = m - 3
    for low_total in range(0, budget + 1):
        for high_total in range(0, budget - low_total + 1):
            outer_total = budget - low_total - high_total
            for low in _bundles(low_total):
                for high in _bundles(high_total):
                    for outer in _outer_bundles(outer_total):
                        # two of the three "parallel routes here" flags must
                        # hold, else mid or an extreme stays irreducible
                        if (len(low) > 1) + (len(high) > 1) + bool(outer) < 2:
                            continue
                        yield _bundle_rep(low, high, outer)


def _bundles(total: int):
    """Chain bundles between consecutive reducibles: sizes of the routes.

    A single route may be empty (a bare cover); two or more parallel routes
    must each carry at least one element.
    """
    yield (total,)
    for width in range(2, total + 1):
        yield from enumerate_partitions(total, width)


def _outer_bundles(total: int):
    """Bundles of bottom-to-top chains (possibly none)."""
    if total == 0:
        yield ()
        return
    for width in range(1, total + 1):
        yield from enumerate_partitions(total, width)


def _bundle_rep(low, high, outer) -> AdjunctRep:
    low_spine, low_rest = low[0], low[1:]
    high_spine, high_rest = high[0], high[1:]
    bottom = 0
    mid = low_spine + 1
    top = low_spine + high_spine + 2
    chains = [top + 1]
    pairs = []
    for size in low_rest:
        chains.append(size)
        pairs.append(AdjunctPair(bottom, mid))
    for size in high_rest:
        chains.append(size)
        pairs.append(AdjunctPair(mid, top))
    for size in outer:
        chains.append(size)
        pairs.append(AdjunctPair(bottom, top))
    return AdjunctRep(tuple(chains), tuple(pairs))


def _check_class(n: int, r: int) -> None:
    if r not in (2, 3):
        raise ValueError(f"reducible count must be 2 or 3, got {r}")
    if n > CLASS_SEARCH_LIMIT:
        raise SizeLimitExceeded(f"class search capped at {CLASS_SEARCH_LIMIT} elements")


# The block certificates of each (m, r) with their F-classes, in recipe
# order of first realization; filled once per process, like ``search._LEVELS``.
_BLOCKS: dict[tuple[int, int], dict[Certificate, FbbClass]] = {}


def _block_table(m: int, r: int) -> dict[Certificate, FbbClass]:
    """Every block on m elements with exactly r in {2, 3} reducibles, by
    certificate, with its F-class by :func:`_block_class`.  Each (m, r) is
    realized, canonicalized and classified once per process; no realized
    block is kept."""
    table = _BLOCKS.get((m, r))
    if table is None:
        table = {}
        reps = {2: _two_reducible_block_reps, 3: _three_reducible_block_reps}[r]
        for rep in reps(m):
            block = realize(rep)
            cert = canonical_certificate(block.digraph)
            if cert not in table:
                table[cert] = _block_class(block)
        _BLOCKS[m, r] = table
    return table


def _block_class(l: Lattice) -> FbbClass:
    """The F-class of a lattice with two or three reducible elements, read
    off the middle one.

    The structure theorem the recipes assume: the reducible elements form
    a chain.  Two make M2.  Of three, a < b < c, b alone decides: meet-
    reducible only is F1, join-reducible only F2, both and comparable with
    every element F3, both and not F4 (a chain from a to c bypasses b).
    Cover degrees and ``l.up`` / ``l.down`` say all of it, without a
    retraction or a canonicalization.  Any other count, or reducible
    elements not in a chain, raise :class:`UnexpectedClass`.
    """
    uppers, lowers = _cover_degrees(l.digraph)
    # lowest first: in a chain the up-sets shrink strictly
    red = sorted(
        (v for v in range(l.n) if uppers[v] > 1 or lowers[v] > 1),
        key=lambda v: -l.up[v].bit_count(),
    )
    if all(l.up[x] >> y & 1 for x, y in zip(red, red[1:])):
        if len(red) == 2:
            return FbbClass.M2
        if len(red) == 3:
            b = red[1]
            if lowers[b] < 2:
                return FbbClass.F1
            if uppers[b] < 2:
                return FbbClass.F2
            if l.up[b] | l.down[b] == (1 << l.n) - 1:
                return FbbClass.F3
            return FbbClass.F4
    raise UnexpectedClass(
        f"{len(red)} reducible elements, not a chain of two or three"
    )


def _padding_slice(n: int, r: int, j: int) -> list[tuple[Certificate, FbbClass]]:
    """The members whose maximal block has n - j elements, with their
    F-classes, sorted by certificate.

    Padding chains add no reducible element.  Each padded certificate is
    read off its block's certificate, and no two paddings share one.
    """
    return sorted(
        (padded_certificate(cert, below, j - below), fbb)
        for cert, fbb in _block_table(n - j, r).items()
        for below in range(j + 1)
    )


def reducible_class(n: int, r: int, workers: int = 1) -> dict[Certificate, FbbClass]:
    """All unlabeled n-element lattices with exactly r in {2, 3} reducibles,
    by certificate, with their F-classes.

    ``workers`` > 1 builds the missing block tables over processes, no more
    than there are missing tables or CPUs, once the largest of them reaches
    ``POOL_BREAK_EVEN`` elements; the padding runs here, and the result does
    not depend on the worker count.
    """
    _check_class(n, r)
    if n < 1:
        return {}
    _build_tables([(n - j, r) for j in range(n)], workers)
    out: dict[Certificate, FbbClass] = {}
    for j in range(n):
        out.update(_padding_slice(n, r, j))
    return out


def _build_tables(keys, workers: int) -> None:
    """Build the block tables of the (m, r) ``keys`` that this process lacks
    over a fork pool of up to ``workers`` processes, largest m first, and
    keep them in ``_BLOCKS``.  The pool starts only if the largest missing
    table has at least ``POOL_BREAK_EVEN`` elements.  Otherwise, and with
    one worker, this builds nothing here: ``_block_table`` then builds each
    table when it is first read, as it does for every m < 2r, where no
    block exists (the smallest are M2 on 4 elements and F1/F2 on 6)."""
    wanted = {(m, r) for m, r in keys if m >= 2 * r}
    missing = sorted(wanted - _BLOCKS.keys(), reverse=True)
    if not missing or missing[0][0] < POOL_BREAK_EVEN:
        return
    size = _pool_size(workers, len(missing))
    if size > 1:
        import multiprocessing  # loaded only by a run that forks

        with multiprocessing.get_context("fork").Pool(size) as pool:
            # one table per task: larger chunks pair the two largest tables
            tables = pool.starmap(_block_table, missing, chunksize=1)
        _BLOCKS.update(zip(missing, tables))


def _pool_size(requested: int, tasks: int) -> int:
    """Worker processes to start: at least one, and no more than the tasks
    or the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(requested, tasks, cpus))


def enumerate_by_reducible(n: int, r: int, workers: int = 1) -> frozenset[Certificate]:
    """Certificates of the exactly-r-reducible class on n elements."""
    return frozenset(reducible_class(n, r, workers=workers))


def block_census(m: int, r: int) -> dict[int, dict[Certificate, FbbClass]]:
    """Blocks with exactly r reducibles on m elements, keyed by edge surplus
    k, read off each certificate; a view of the block table."""
    _check_class(m, r)
    out: dict[int, dict[Certificate, FbbClass]] = {}
    for cert, fbb in _block_table(m, r).items():
        out.setdefault(len(canon.decode_certificate(cert).covers) - m, {})[cert] = fbb
    return out


# ---------------------------------------------------------------------------
# Verification driver.
# ---------------------------------------------------------------------------


class VerifyRecord(NamedTuple):
    """One verification cell of one size.

    ``formula`` and ``oracle`` are the two counts; both are None for a cell
    that compares certificate sets instead.  ``ok`` is None for a cell that
    is recorded only (``other``, ``total``: no closed form).  ``witness`` is
    the sorted cover list of one oracle member of a disagreeing cell, when
    the cell has members, in the canonical labels its certificate decodes
    to: the covers ``enumerate --format edges`` prints.
    """

    n: int
    name: str
    formula: int | None
    oracle: int | None
    ok: bool | None
    witness: list[list[int]] | None = None


def verify(n_max: int, workers: int = 1) -> list[VerifyRecord]:
    """Compare every formula cell against the oracle for all n <= n_max."""
    if n_max > CLASS_SEARCH_LIMIT:
        raise SizeLimitExceeded(
            f"verification capped at {CLASS_SEARCH_LIMIT} elements"
        )
    # every table of the run at once, so that one pool builds them all
    _build_tables([(m, r) for m in range(1, n_max + 1) for r in (2, 3)], workers)
    records: list[VerifyRecord] = []
    for n in range(1, n_max + 1):
        records.extend(_verify_one(n))
    return records


def _verify_one(n: int) -> list[VerifyRecord]:
    records: list[VerifyRecord] = []

    def cell(name, formula_value, certs):
        """Compare a formula value with the number of oracle members, given
        by their certificates."""
        ok = formula_value == len(certs)
        first = next(iter(certs), None)
        witness = None
        if not ok and first is not None:
            witness = [list(c) for c in canon.decode_certificate(first).covers]
        records.append(VerifyRecord(n, name, formula_value, len(certs), ok, witness))

    two = reducible_class(n, 2)
    three = reducible_class(n, 3)

    def tagged(members, tag):
        return [cert for cert, fbb in members.items() if fbb is tag]

    cell("two_reducible", formulas.two_reducible_lattices(n), two)
    cell("two_reducible_thakare", formulas.two_reducible_lattices(n, "thakare"), two)
    cell("three_reducible", formulas.three_reducible_lattices(n), three)
    for name, func, tag in (
        ("f1", formulas.l1_lattices, FbbClass.F1),
        ("f2", formulas.l2_lattices, FbbClass.F2),
        ("f3", formulas.l3_lattices, FbbClass.F3),
        ("f4", formulas.l4_lattices, FbbClass.F4),
    ):
        cell(name, func(n), tagged(three, tag))

    if n <= FULL_SEARCH_LIMIT:
        full = _reducible_split(n)
        chains = len(full.get(0, ()))
        records.append(VerifyRecord(n, "chains", 1, chains, chains == 1))
        other = sum(len(v) for r, v in full.items() if r not in (0, 2, 3))
        records.append(VerifyRecord(n, "other", other, other, None))
        total = sum(len(v) for v in full.values())
        records.append(VerifyRecord(n, "total", total, total, None))
        for name, r, members in (
            ("search_two_reducible", 2, two),
            ("search_three_reducible", 3, three),
        ):
            same = set(full.get(r, ())) == members.keys()
            records.append(VerifyRecord(n, name, None, None, same))

    strata2 = block_census(n, 2) if n >= 4 else {}
    for k in range(0, max(n - 3, 1)):
        cell(
            f"two_reducible_blocks[k={k}]",
            formulas.two_reducible_blocks(n, k),
            strata2.get(k, {}),
        )
    if n >= 6:
        strata3 = block_census(n, 3)
        for name, func, tag in (
            ("b1", formulas.b1_blocks, FbbClass.F1),
            ("b2", formulas.b2_blocks, FbbClass.F2),
            ("b3", formulas.b3_blocks, FbbClass.F3),
            ("b4", formulas.b4_blocks, FbbClass.F4),
        ):
            for k in range(0, max(n - 3, 1)):
                members = tagged(strata3.get(k, {}), tag)
                cell(f"{name}_blocks[k={k}]", func(n, k), members)

    return records
