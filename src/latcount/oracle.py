"""Constructive enumeration of the lattices with exactly 2 or 3 reducible
elements, and the verification driver that compares every closed-form count
against it and against the exhaustive search of ``search``.

The constructive path realizes adjunct-of-chains recipes for the classes
with exactly 2 or 3 reducible elements, and stays feasible past the full
search limit.  Each member is a maximal block padded by chains below and
above, and is its certificate.  Every block is realized and canonicalized
once per process, and its table keeps the certificate and the F-class
alone.  The F-class comes from the paper's structure theorem, which the
recipes assume already: the middle of the three reducible elements decides
it, and the widths of its recipe's bundles say how (:func:`_spine_class`),
with no retraction and no look at the realized block.  The search tags its
lattices with ``reduction.classify_fbb`` instead, so the two oracles'
fibers come from two classifiers.  The certificate of each padding is read
off the block's certificate (:func:`canon.padded_certificate`), not
searched again, and each member inherits its block's F-class, which
padding does not change.
The tables are the costly part and the only unit of parallel work.  One
function builds them (:func:`_build_tables`): it deals the recipes of
every table this process lacks round a number of processes, this one and
forked children, and this process merges the blocks and pads their
certificates.  The number is one, so that nothing forks, with one worker,
without ``os.fork``, or while the largest missing table has fewer than
``SPLIT_BREAK_EVEN`` elements, where a fork would cost more than it saves.

The constructive path and the search are deliberately separate.  Where
they overlap they must produce identical certificate sets; the verify
driver checks that, plus every formula cell, and reports witnesses on any
disagreement.
"""

from __future__ import annotations

import marshal
import os
from functools import cache
from itertools import product
from typing import BinaryIO, NamedTuple, NoReturn

from . import canon, formulas
from .adjunct import AdjunctRep, _spine_pairs, _spine_recipe, realize
from .canon import Certificate, canonical_certificate, padded_certificate
from .errors import SizeLimitExceeded
from .partitions import enumerate_partitions
from .reduction import FbbClass

# ``verify`` reads the search through these.  ``census`` and ``_LEVELS``
# are bound here for perfbench/tracer.py alone, which times and counts the
# search through this module.
from .search import FULL_SEARCH_LIMIT, _LEVELS, _reducible_split, census

CLASS_SEARCH_LIMIT = 12
# The smallest block size m at which a fork split pays for itself: a run
# forks only if the largest (m, r) table it lacks has at least this many
# elements.  With the split forked at every size, over 12 alternating cold
# pairs of ``enumerate --n N --reducible 3`` with one worker against two on
# a 2-core x86 host (Python 3.11, load average 0.3-0.8), two were faster at
# N = 9 in 10 pairs (medians 0.181 s against 0.174 s, CPU +5%), at N = 10 in
# 12 (0.254 s against 0.202 s, CPU -1%), at N = 11 in 10 (0.412 s against
# 0.341 s, CPU +9%) and at N = 12 in 10 (0.818 s against 0.660 s, CPU
# +12%).  N = 9, which saves 0.007 s for more CPU time, stays in-process.
SPLIT_BREAK_EVEN = 10


# ---------------------------------------------------------------------------
# Constructive generation from adjunct-of-chains recipes.
# ---------------------------------------------------------------------------


def _block_reps(m: int, r: int):
    """Adjunct recipes for the blocks on m elements with exactly r
    reducibles, in the order the (m, r) block table keeps them.

    The reducibles sit on a spine b0 < ... < b(r-1), and each spine pair
    (``adjunct._spine_pairs``) gets a bundle (:func:`_bundles`) of parallel
    chains between its ends, laid out as ``adjunct._spine_recipe`` lays
    out every recipe, and ``adjunct.decompose`` reads it back.  The bundle
    totals run over the compositions of the m - r other elements in pair
    order, and the bundles over their product.
    A recipe is kept only when every b is reducible (:func:`_spine_reducible`),
    and comes paired with its F-class (:func:`_spine_class`).
    """
    pairs = _spine_pairs(r)
    for totals in _compositions(m - r, len(pairs)):
        options = [_bundles(total, j > i + 1) for (i, j), total in zip(pairs, totals)]
        for bundles in product(*options):
            widths = tuple(map(len, bundles))
            if _spine_reducible(r, widths):
                yield _spine_recipe(r, bundles), _spine_class(r, widths)


@cache
def _spine_reducible(r: int, widths: tuple[int, ...]) -> bool:
    """Whether every b is reducible, with ``widths[k]`` chains between the
    ends of the k-th spine pair.  A chain element has one upper and one
    lower cover, so b0 needs two or more upper covers, b(r-1) two or more
    lower covers, and a middle b two or more of either."""
    ups, downs = [0] * r, [0] * r
    for (i, j), width in zip(_spine_pairs(r), widths):
        ups[i] += width
        downs[j] += width
    return min(map(max, ups, downs)) > 1


def _spine_class(r: int, widths: tuple[int, ...]) -> FbbClass | None:
    """The F-class of a block with these :func:`_spine_reducible` widths,
    by the structure theorem: M2 for two reducibles, None past three.  Of
    three, a < b < c, b decides, its lower and upper covers the widths of
    its low and high bundles: F1 if meet-reducible only, F2 if join-
    reducible only, F3 if both and no outer (a, c) bundle bypasses b, else F4.
    """
    if r != 3:
        return FbbClass.M2 if r == 2 else None
    low, high, outer = widths
    if low < 2:
        return FbbClass.F1
    if high < 2:
        return FbbClass.F2
    return FbbClass.F4 if outer else FbbClass.F3


def _compositions(total: int, parts: int):
    """Every ``parts``-tuple of non-negative terms summing to total, in
    lexicographic order; none for a negative total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


@cache
def _bundles(total: int, skips: bool) -> tuple[tuple[int, ...], ...]:
    """The chain bundles with ``total`` elements between the ends of a pair,
    as chain sizes: ``(total,)``, then every partition into 2..total parts.

    A consecutive pair's single chain may be empty, a bare cover ``(0,)``;
    a pair that skips a b (``skips``) has no chain, ``()``, when its total
    is 0.  Two or more parallel chains each carry at least one element.
    """
    if skips and not total:
        return ((),)
    widths = range(2, total + 1)
    return ((total,), *(p for w in widths for p in enumerate_partitions(total, w)))


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
    certificate, with its recipe's F-class (:func:`_spine_class`); built by
    :func:`_build_tables` in one process if this process lacks it."""
    _build_tables([(m, r)], 1)
    return _BLOCKS[m, r]


def _block_entry(rep: AdjunctRep) -> bytes:
    """The certificate bytes of the block a recipe realizes: a plain value,
    which ``marshal`` sends between processes."""
    return canonical_certificate(realize(rep).digraph).data


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

    ``workers`` > 1 splits the recipes of the missing block tables over
    processes, no more than there are recipes or CPUs, once the largest of
    those tables reaches ``SPLIT_BREAK_EVEN`` elements; the padding runs
    here, and the result does not depend on the worker count.
    """
    _check_class(n, r)
    _build_tables([(n - j, r) for j in range(n)], workers)
    out: dict[Certificate, FbbClass] = {}
    for j in range(n):
        out.update(_padding_slice(n, r, j))
    return out


def _build_tables(keys, workers: int) -> None:
    """Build the block tables of the (m, r) ``keys`` that this process lacks
    and keep them in ``_BLOCKS``, split over up to ``workers`` processes.

    The recipes of every missing table, largest m first, are dealt round
    ``size`` processes (:func:`_split_size`): one with one worker, unless
    the largest missing table has at least ``SPLIT_BREAK_EVEN`` elements,
    or where ``os.fork`` is missing, and otherwise no more than there are
    workers, recipes or CPUs.  Process i realizes and canonicalizes
    ``recipes[i::size]``.  This process is process 0 and the others are
    forked children, each of which sends its share back over a pipe with
    ``marshal``; every share is a list of certificate bytes, placed at
    ``i::size``, and this process tags each block with its recipe's class.
    Each table keeps its blocks in the order of first realization, whatever
    the process count, and a table below m = 2r has no recipe and no block.
    Every child is reaped
    before this returns or raises: killed first if this process's own
    share raised, and reported as an error if it exited with a non-zero
    status.  The package starts no thread, so forking is safe.
    """
    missing = sorted(set(keys) - _BLOCKS.keys(), reverse=True)
    if missing and missing[0][0] < SPLIT_BREAK_EVEN:
        workers = 1
    recipes = [(key, rep, tag) for key in missing for rep, tag in _block_reps(*key)]
    size = _split_size(workers, len(recipes))
    pids: list[int] = []
    pipes: list[BinaryIO] = []  # the read end of each child's pipe
    try:
        for i in range(1, size):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _send_share(recipes[i::size], write)
            finally:
                os.close(write)
            pids.append(pid)
        shares = [[_block_entry(rep) for _, rep, _ in recipes[::size]]]
        sent = [pipe.read() for pipe in pipes]
    except BaseException:
        import signal  # loaded only where a split fails

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for pid, code in zip(pids, codes):
        if code:
            raise RuntimeError(f"block table worker {pid} exited with status {code}")
    shares += map(marshal.loads, sent)
    entries: list = [None] * len(recipes)
    for i, share in enumerate(shares):
        entries[i::size] = share
    tables: dict = {key: {} for key in missing}
    for (key, _, tag), data in zip(recipes, entries):
        tables[key].setdefault(Certificate(data), tag)
    _BLOCKS.update(tables)


def _send_share(recipes, write: int) -> NoReturn:
    """In a forked child: the :func:`_block_entry` of each ``(key, rep,
    tag)`` recipe, marshalled to the pipe ``write``.  The child leaves
    through ``os._exit``, so it flushes none of the stdio buffers it
    inherited and runs no atexit handler; a failure prints its traceback
    to stderr and exits with status 1."""
    status = 1
    try:
        with open(write, "wb") as pipe:
            marshal.dump([_block_entry(rep) for _, rep, _ in recipes], pipe)
        status = 0
    except BaseException:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _split_size(requested: int, tasks: int) -> int:
    """Processes to split ``tasks`` over: one where ``os.fork`` is missing,
    and otherwise at least one and no more than the tasks or the CPUs this
    process may run on."""
    if min(requested, tasks) < 2 or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(requested, tasks, cpus)


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
    # every table of the run at once, so that one split builds them all
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

    def tagged(members, tag):
        return [cert for cert, fbb in members.items() if fbb is tag]

    # Each F-class of the r-reducible blocks with its fiber cell and lattice
    # sum, and its block cells' prefix and block sum.  M2's fiber is the
    # whole two-reducible class, which the two_reducible cells check.  Built
    # per call, so that each ``formulas`` name is looked up at its check.
    fclasses = (
        (2, FbbClass.M2, None, None, "two_reducible", formulas.two_reducible_blocks),
        (3, FbbClass.F1, "f1", formulas.l1_lattices, "b1", formulas.b1_blocks),
        (3, FbbClass.F2, "f2", formulas.l2_lattices, "b2", formulas.b2_blocks),
        (3, FbbClass.F3, "f3", formulas.l3_lattices, "b3", formulas.b3_blocks),
        (3, FbbClass.F4, "f4", formulas.l4_lattices, "b4", formulas.b4_blocks),
    )
    two = reducible_class(n, 2)
    three = reducible_class(n, 3)
    cell("two_reducible", formulas.two_reducible_lattices(n), two)
    cell("two_reducible_thakare", formulas.two_reducible_lattices(n, "thakare"), two)
    cell("three_reducible", formulas.three_reducible_lattices(n), three)
    for _, tag, name, lattices, _, _ in fclasses:
        if lattices:
            cell(name, lattices(n), tagged(three, tag))

    if n <= FULL_SEARCH_LIMIT:
        full = _reducible_split(n)
        cell("chains", 1, full.get(0, ()))
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

    strata = {2: block_census(n, 2)}
    if n >= 6:  # the smallest three-reducible block
        strata[3] = block_census(n, 3)
    for r, tag, _, _, name, blocks in fclasses:
        if r in strata:
            for k in range(max(n - 3, 1)):
                members = tagged(strata[r].get(k, {}), tag)
                cell(f"{name}_blocks[k={k}]", blocks(n, k), members)

    return records
