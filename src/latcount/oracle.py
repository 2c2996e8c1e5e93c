"""Independent brute-force enumeration of lattices, and the verification
driver comparing every closed-form count against it.

Two deliberately separate generation paths:

* a breadth-first extension search that grows finite meet-semilattices one
  element at a time: each new element brings its full down-set, an order
  ideal of the state tried once per automorphism orbit, and must have a
  unique meet with every old element, and a state is its down-sets alone.
  A child is kept only if its new element can be its canonical deletion
  (canonical augmentation, McKay 1998): a cheap invariant drops most other
  children before they are canonicalized, and the child's canonical
  labeling and automorphisms settle ties (levels 2..9 canonicalize 7,514
  children, against 15,681 without the rule).
  Its states on n - 1 elements are the finite meet-semilattices, one per
  isomorphism class, and removing the top is a bijection from
  n-element lattices onto them, so adjoining a top to each state of level
  n - 1 harvests every unlabeled lattice on n <= ``FULL_SEARCH_LIMIT``
  elements without building level n.  Each level is one table, keyed by
  the certificates of the lattices its states become, that keeps each state
  with the automorphisms its expansion reads: adjoining a top is a
  bijection on isomorphism classes, so these keys tell states apart exactly
  as the states' own certificates would.  The census reads every
  certificate off level n - 1 without canonicalizing again, and each
  lattice is its certificate: the reducible count is read off the decoded
  covers, and only the 3-reducible lattices are built as ``Lattice``
  values, in canonical labels, to classify their fundamental basic
  blocks, and
* a constructive path that realizes adjunct-of-chains recipes for the classes
  with exactly 2 or 3 reducible elements, which stays feasible past the full
  search limit.  Each member is a maximal block padded by chains below and
  above, and is its certificate.  Every block is realized, canonicalized
  and F-classified once per process, and its table keeps the certificate
  and the F-class alone; the certificate of each padding is read off the
  block's certificate (:func:`canon.padded_certificate`), not searched
  again, and each member inherits its block's F-class, which padding does
  not change.  The tables are the costly part and the only unit of parallel
  work: with more than one worker, once the largest table this process
  lacks has ``POOL_BREAK_EVEN`` elements or more, a fork pool builds the
  tables it lacks, one table per task, and this process pads their
  certificates; below that the pool would cost more than it saves, and
  each table is built here when it is first read.

Where the paths overlap they must produce identical certificate sets; the
verify driver checks that, plus every formula cell, and reports witnesses on
any disagreement.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from . import canon, formulas
from .adjunct import AdjunctPair, AdjunctRep, realize
from .canon import Certificate, canonical_certificate, padded_certificate
from .errors import SizeLimitExceeded
from .partitions import enumerate_partitions
from .poset import CoverDigraph, _bits, as_lattice, poset_classification
from .reduction import FbbClass, classify_fbb

FULL_SEARCH_LIMIT = 8
CLASS_SEARCH_LIMIT = 12
# The smallest block size m at which a fork pool pays for itself: a run
# forks only if the largest (m, r) table it lacks has at least this many
# elements.  With a pool forked at every size, over 12 alternating cold
# pairs of ``enumerate --n N --reducible 3`` with one worker against two on
# a 2-core x86 host (Python 3.11), two were faster at N = 10 in 0 pairs
# (medians 0.26 s against 0.31 s), at N = 11 in 5 (0.52 s against 0.52 s)
# and at N = 12 in 11 (1.26 s against 0.94 s).  On two CPUs a pool worker
# built the (10, 3) table in 0.12-0.14 s, a lone process in 0.06-0.09 s,
# and importing ``multiprocessing`` and starting the pool cost about 0.03 s.
POOL_BREAK_EVEN = 12


# ---------------------------------------------------------------------------
# Path one: exhaustive extension search.
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
# Path two: constructive generation from adjunct-of-chains recipes.
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
# order of first realization; filled once per process, like ``_LEVELS``.
_BLOCKS: dict[tuple[int, int], dict[Certificate, FbbClass]] = {}


def _block_table(m: int, r: int) -> dict[Certificate, FbbClass]:
    """Every block on m elements with exactly r in {2, 3} reducibles, by
    certificate, with its F-class.  Each (m, r) is realized, canonicalized
    and classified once per process; no realized block is kept."""
    table = _BLOCKS.get((m, r))
    if table is None:
        table = {}
        reps = {2: _two_reducible_block_reps, 3: _three_reducible_block_reps}[r]
        for rep in reps(m):
            block = realize(rep)
            cert = canonical_certificate(block.digraph)
            if cert not in table:
                table[cert] = classify_fbb(block)
        _BLOCKS[m, r] = table
    return table


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
# Census and verification driver.
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
        red = poset_classification(canon.decode_certificate(cert)).red
        classes.setdefault(len(red), []).append(cert)
    return classes


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
