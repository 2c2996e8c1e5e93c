import random
import re
from itertools import combinations

import pytest

from latcount import canon, oracle, poset, search
from latcount.cli import main
from latcount.poset import (
    CoverDigraph,
    CycleDetected,
    LabelOutOfRange,
    NotALattice,
    NotComparable,
    RedundantCover,
    as_lattice,
    build_poset,
    chain,
    classify_elements,
    contains_crown,
    _delete,
    _bits,
    _live_digraph,
    dual,
    induced_subposet,
    is_dismantlable,
    maximal_chains_in_interval,
    meet_join,
    nullity,
    relabel,
)
from latcount.adjunct import direct_sum, pair_multiplicity
from latcount.canon import canonical_certificate, canonical_labeling
from latcount.documents import dot_digraph, lattice_document
from latcount.reduction import basic_block_of, basic_retract, f1, f3, f4, is_retractible, m2
from class_reference import reference_class
from search_reference import search_lattices

CUBE_COVERS = [
    (0, 1), (0, 2), (0, 3),
    (1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6),
    (4, 7), (5, 7), (6, 7),
]


def cube():
    return as_lattice(build_poset(8, CUBE_COVERS))


# Error inputs of build_poset, with the type and message it gave before it
# shared its checks with as_lattice.  A repeated pair is normalized away
# before the checks.
IMPLIED = "cover (0, 2) implied through 1"
BUILD_ERRORS = [
    (3, [(0, 1), (1, 2), (0, 2)], RedundantCover, IMPLIED),
    (3, [(0, 1), (0, 1), (1, 2), (0, 2)], RedundantCover, IMPLIED),
    (4, [(2, 3), (0, 1), (1, 2), (0, 3)], RedundantCover, "cover (0, 3) implied through 1"),
    (3, [(0, 1), (1, 2), (2, 0)], CycleDetected, "cover relation contains a directed cycle"),
    (2, [(1, 1)], CycleDetected, "self-loop at 1"),
    (2, [(0, 2)], LabelOutOfRange, "cover (0, 2) outside 0..1"),
    (2, [(-1, 0)], LabelOutOfRange, "cover (-1, 0) outside 0..1"),
    (3, [(0, 1), (2, 2), (0, 5)], LabelOutOfRange, "cover (0, 5) outside 0..2"),
    (0, [], LabelOutOfRange, "need at least one element, got n=0"),
]


class TestBuildPoset:
    def test_singleton(self):
        p = build_poset(1, [])
        assert p.n == 1 and p.covers == ()

    def test_diamond(self):
        p = build_poset(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert len(p.covers) == 4

    def test_redundant_cover_rejected(self):
        with pytest.raises(RedundantCover):
            build_poset(3, [(0, 1), (1, 2), (0, 2)])

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_poset(3, [(0, 1), (1, 2), (2, 0)])

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            build_poset(2, [(0, 2)])

    @pytest.mark.parametrize("n, covers, error, message", BUILD_ERRORS)
    def test_error_types_and_messages(self, n, covers, error, message):
        with pytest.raises(error) as exc:
            build_poset(n, covers)
        assert type(exc.value) is error and str(exc.value) == message


def kahn_calls(monkeypatch):
    """Record the size of every topological sort from here on."""
    calls = []
    kahn = poset._topological_order

    def counted(n, up):
        calls.append(n)
        return kahn(n, up)

    monkeypatch.setattr(poset, "_topological_order", counted)
    return calls


class TestAsLattice:
    def test_chain(self):
        l = chain(3)
        assert (l.bottom, l.top) == (0, 2)

    def test_diamond_is_lattice(self):
        assert m2().n == 4

    def test_v_poset_rejected(self):
        # one bottom, two maximal elements: the maximal pair has no join
        with pytest.raises(NotALattice) as exc:
            as_lattice(build_poset(4, [(0, 1), (1, 2), (1, 3)]))
        assert exc.value.kind == "join"

    @pytest.mark.parametrize(
        "covers", [((0, 1), (1, 2), (2, 0)), ((0, 1), (1, 1)), ((0, 1), (1, 0))]
    )
    def test_cycle_raises_cycle_detected(self, covers):
        # a CoverDigraph built without build_poset, as decode_certificate,
        # dual and relabel build them
        with pytest.raises(CycleDetected):
            as_lattice(CoverDigraph(3, covers))

    def test_empty_raises_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            as_lattice(CoverDigraph(0, ()))

    @pytest.mark.parametrize("cover", [(0, 5), (0, -1), (-1, 0)])
    def test_label_outside_range_raises_label_out_of_range(self, cover):
        # the message build_poset gives for the same cover
        with pytest.raises(LabelOutOfRange, match=re.escape(f"cover {cover} outside 0..1")):
            as_lattice(CoverDigraph(2, (cover,)))

    @pytest.mark.parametrize(
        "digraph, message",
        [
            (CoverDigraph(3, ((0, 1), (0, 2), (1, 2))), IMPLIED),
            (CoverDigraph(2, ((0, 1), (0, 1))), "cover (0, 1) listed twice"),
        ],
    )
    def test_repeated_or_implied_cover_raises_redundant_cover(self, digraph, message):
        # kept, the non-cover (0, 2) would make 0 and 2 reducible, and the
        # repeated cover would give the 2-chain nullity 1
        with pytest.raises(RedundantCover, match=re.escape(message)):
            as_lattice(digraph)

    def test_sorts_once_per_call(self, monkeypatch):
        calls = kahn_calls(monkeypatch)
        p = build_poset(8, CUBE_COVERS)
        assert calls == [8]
        as_lattice(p)
        assert calls == [8, 8]
        with pytest.raises(NotALattice):
            as_lattice(build_poset(4, [(0, 1), (1, 2), (1, 3)]))
        assert calls == [8, 8, 4, 4]


@pytest.mark.parametrize("fmt", ["json", "dot", "edges"])
def test_enumerate_checks_no_order_with_warm_tables(fmt, monkeypatch, capsys):
    """``enumerate`` prints documents from the decoded cover digraphs: once
    the block tables are built, no format closes an order."""
    for r in (2, 3):
        oracle.reducible_class(8, r)
    calls = kahn_calls(monkeypatch)
    for r in ("2", "3"):
        assert main(["enumerate", "--n", "8", "--reducible", r, "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert calls == []
    chain(2)  # the counter sees a check
    assert calls == [2]


def _reference_bits(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class TestBits:
    def test_every_mask_in_the_table(self):
        bound = len(poset._BITS_TABLE)
        assert bound == 1 << 10
        assert _bits(0) == ()
        for mask in range(bound):
            assert _bits(mask) == _reference_bits(mask)

    def test_masks_around_the_bound(self):
        bound = len(poset._BITS_TABLE)
        for mask in (bound - 1, bound, bound + 1):
            assert _bits(mask) == _reference_bits(mask)

    def test_random_wide_masks(self):
        rng = random.Random(20)
        for _ in range(1000):
            mask = rng.getrandbits(rng.randint(1, 64))
            assert _bits(mask) == _reference_bits(mask)

    def test_table_stays_bounded(self):
        size = len(poset._BITS_TABLE)
        as_lattice(chain(40).digraph)
        assert len(poset._BITS_TABLE) == size


def _reachable(p):
    """Reflexive reachability along the covers of ``p``, found by a
    depth-first walk from each element: ``reach[i]`` is the set of ``j``
    with ``i <= j``."""
    above = {v: set() for v in range(p.n)}
    for a, b in p.covers:
        above[a].add(b)
    reach = []
    for i in range(p.n):
        seen, stack = {i}, [i]
        while stack:
            for w in above[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        reach.append(seen)
    return reach


def _unique_extreme(mask, reflexive):
    """The unique ``v`` in ``mask`` whose ``reflexive[v]`` meets ``mask``
    only in ``v``: with down-set masks the unique minimal element of
    ``mask``, with up-set masks the unique maximal one; None when there is
    none or several."""
    found = [v for v in range(mask.bit_length()) if reflexive[v] & mask == 1 << v]
    return found[0] if len(found) == 1 else None


def _pairwise_as_lattice(p):
    """Reference for ``as_lattice``: scan each pair's common bounds for a
    unique minimal upper and a unique maximal lower one.  Returns
    ``(up, down, bottom, top)``, or ``(witness, kind)`` of the first failing
    pair in label order, join before meet.  Every field comes from the
    reachability sets of :func:`_reachable`, not from the code under test."""
    n = p.n
    reach = _reachable(p)
    up = tuple(sum(1 << j for j in reach[i]) for i in range(n))
    down = tuple(sum(1 << i for i in range(n) if j in reach[i]) for j in range(n))
    for x, y in combinations(range(n), 2):
        if _unique_extreme(up[x] & up[y], down) is None:
            return (x, y), "join"
        if _unique_extreme(down[x] & down[y], up) is None:
            return (x, y), "meet"
    (bottom,) = [i for i in range(n) if len(reach[i]) == n]
    (top,) = [j for j in range(n) if all(j in reach[i] for i in range(n))]
    return up, down, bottom, top


def _is_linear_extension(p):
    return all(a < b for a, b in p.covers)


def _random_poset(rng):
    """A randomly labelled poset on 1..9 elements: each pair i < j is
    related with a density drawn per poset, then closed under transitivity."""
    n = rng.randint(1, 9)
    density = rng.random()
    above = [0] * n  # strict up-sets in the order 0..n-1
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < density:
                above[i] |= (1 << j) | above[j]
    covers = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if above[i] >> j & 1
        and not any(above[i] >> k & 1 and above[k] >> j & 1 for k in range(n))
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    return build_poset(n, [(perm[a], perm[b]) for a, b in covers])


def _same_as_pairwise(p):
    expected = _pairwise_as_lattice(p)
    try:
        l = as_lattice(p)
    except NotALattice as exc:
        assert (exc.witness, exc.kind) == expected, p
        return False
    assert (l.up, l.down, l.bottom, l.top) == expected, p
    return True


class TestAsLatticeMatchesPairwiseScan:
    def test_every_lattice_up_to_seven_elements(self):
        rng = random.Random(3)
        unsorted = 0
        for n in range(1, 8):
            for lat in search_lattices(n).values():
                assert _same_as_pairwise(lat.digraph)
                perm = list(range(n))
                rng.shuffle(perm)
                # reversed labels put every cover against the label order
                for pi in (perm, [n - 1 - v for v in range(n)]):
                    moved = build_poset(n, [(pi[a], pi[b]) for a, b in lat.covers])
                    unsorted += not _is_linear_extension(moved)
                    assert _same_as_pairwise(moved)
        # most relabelings are not linear extensions
        assert unsorted > 100

    def test_random_posets(self):
        rng = random.Random(11)
        outcomes = [_same_as_pairwise(_random_poset(rng)) for _ in range(3000)]
        # both branches are exercised
        assert 100 < sum(outcomes) < 2900


class TestAsLatticeJoinsFirst:
    """With a bottom, ``as_lattice`` tests joins alone and, where a join is
    missing, runs the pairwise join-then-meet test, whose witness and kind
    it reports; without a bottom it runs that test at once."""

    def test_meet_failure_before_the_first_join_failure(self):
        # 1 and 2 have the join 5 and the common lower bounds 0, 3 and 4;
        # the later pair 3, 4 is the first without a join
        p = build_poset(6, [(0, 3), (0, 4), (3, 1), (3, 2), (4, 1), (4, 2), (1, 5), (2, 5)])
        with pytest.raises(NotALattice) as exc:
            as_lattice(p)
        assert (exc.value.witness, exc.value.kind) == ((1, 2), "meet")
        assert _pairwise_as_lattice(p) == ((1, 2), "meet")

    def test_bottomless_poset_with_every_join(self):
        # 0 and 1 join at 2 and have no common lower bound
        with pytest.raises(NotALattice) as exc:
            as_lattice(build_poset(3, [(0, 2), (1, 2)]))
        assert (exc.value.witness, exc.value.kind) == ((0, 1), "meet")

    def test_random_posets_take_every_way(self, monkeypatch):
        """The random posets of ``TestAsLatticeMatchesPairwiseScan`` take
        each way through ``as_lattice``: a bottom and every join, a bottom
        and a missing join, and no bottom."""
        verdicts = []
        has_joins = poset._has_joins

        def recorded(*args):
            verdicts.append(has_joins(*args))
            return verdicts[-1]

        monkeypatch.setattr(poset, "_has_joins", recorded)
        rng = random.Random(11)
        for _ in range(3000):
            _same_as_pairwise(_random_poset(rng))
        ways = (verdicts.count(True), verdicts.count(False), 3000 - len(verdicts))
        assert min(ways) > 100, ways


class TestMeetJoin:
    def test_comparable_pair(self):
        l = chain(4)
        assert meet_join(l, 1, 3) == (1, 3)

    def test_diamond_middles_are_complements(self):
        l = m2()
        assert meet_join(l, 1, 2) == (0, 3)

    def test_f1_upper_pair(self):
        # the two upper covers of the middle reducible element meet there
        # and join at the top
        l = f1()
        assert meet_join(l, 2, 3) == (1, 5)


class TestClassify:
    def test_chain_has_no_reducibles(self):
        cls = classify_elements(chain(5))
        assert cls.red == frozenset()
        assert cls.irr_star == frozenset({1, 2, 3})

    def test_diamond_bounds_reducible(self):
        cls = classify_elements(m2())
        assert cls.red == frozenset({0, 3})

    def test_f1_split(self):
        cls = classify_elements(f1())
        assert cls.red == frozenset({0, 1, 5})
        assert len(cls.irr) == 3

    def test_red_and_irr_partition(self):
        for l in (chain(4), m2(), f1(), f3(), cube()):
            cls = classify_elements(l)
            assert cls.red | cls.irr == frozenset(range(l.n))
            assert not cls.red & cls.irr
            assert cls.irr_star <= cls.irr

    def test_reducible_count_never_one(self):
        # oracle invariant at tiny scale: 0 reducibles means chain, never 1
        from itertools import combinations

        for n in range(1, 7):
            for lat in search_lattices(n).values():
                r = len(classify_elements(lat).red)
                assert r != 1
                total_order = all(
                    lat.le(x, y) or lat.le(y, x)
                    for x, y in combinations(range(n), 2)
                )
                assert (r == 0) == total_order

    def test_reducibles_are_proper_meets_or_joins(self):
        """The cover-degree rule gives the lattice-theoretic reducibles, the
        elements that are the meet or the join of two elements other than
        themselves, on every lattice of the census on 8 elements and every
        member of both classes on n <= 9."""
        certs = [c for members in search.census(8).classes.values() for c in members]
        for n in range(1, 10):
            for r in (2, 3):
                certs.extend(oracle.reducible_class(n, r))
        for cert in certs:
            lat = as_lattice(canon.decode_certificate(cert))
            proper = set()
            for x, y in combinations(range(lat.n), 2):
                proper.update(v for v in meet_join(lat, x, y) if v not in (x, y))
            rows = poset._cover_rows(lat.digraph)
            assert poset._reducibles(*rows) == sorted(proper), lat.covers

    def test_dual_preserves_red_set(self):
        for l in (m2(), f1(), f3(), f4()):
            d = as_lattice(dual(l.digraph))
            assert classify_elements(d).red == classify_elements(l).red


class TestNullity:
    def test_chain_is_tree(self):
        assert nullity(chain(6).digraph) == 0

    def test_diamond(self):
        assert nullity(m2().digraph) == 1

    def test_f4(self):
        # direct edge count: 10 covers, 8 vertices, connected
        assert len(f4().covers) == 10
        assert nullity(f4().digraph) == 3

    def test_lattice_cover_graph_is_connected(self):
        for l in (chain(4), m2(), f1(), f3(), f4(), cube()):
            assert nullity(l.digraph) == len(l.covers) - l.n + 1


@pytest.mark.parametrize("read", [nullity, poset.poset_classification])
@pytest.mark.parametrize(
    "digraph, message",
    [
        (CoverDigraph(2, ((0, 1), (0, 1))), "cover (0, 1) listed twice"),
        (CoverDigraph(3, ((0, 1), (1, 2), (1, 2), (0, 1))), "cover (1, 2) listed twice"),
    ],
)
def test_repeated_cover_raises_redundant_cover(read, digraph, message):
    """The readers of an unchecked digraph reject a repeated cover, naming
    the first as ``as_lattice`` does: read as given, it would give the
    2-chain nullity 1 and make both its elements reducible."""
    with pytest.raises(RedundantCover, match=re.escape(message)):
        read(digraph)


@pytest.mark.parametrize("read", [nullity, poset.poset_classification])
@pytest.mark.parametrize(
    "digraph, message",
    [
        (CoverDigraph(2, ((0, 5),)), "cover (0, 5) outside 0..1"),
        (CoverDigraph(3, ((-1, 1), (0, 1))), "cover (-1, 1) outside 0..2"),
        (CoverDigraph(3, ((0, 1), (1, 3))), "cover (1, 3) outside 0..2"),
        (CoverDigraph(4, ((0, 1), (1, -2), (1, 3))), "cover (1, -2) outside 0..3"),
        (CoverDigraph(3, ((2, 1), (-1, 1))), "cover (-1, 1) outside 0..2"),
        (CoverDigraph(3, ((0, 1), (0, 10**12))), "cover (0, 1000000000000) outside 0..2"),
        (CoverDigraph(3, ((-(10**12), 1),)), "cover (-1000000000000, 1) outside 0..2"),
    ],
)
def test_cover_label_out_of_range_raises(read, digraph, message):
    """The readers of an unchecked digraph reject a cover label outside
    0..n-1, naming the first such cover as ``as_lattice`` does: read as
    given, -1 would index element n-1, so that element 1 of the first
    three-element digraph would be reducible and its nullity 0.  A label
    is checked before a row reads it: -1, read as 2, would repeat the cover
    (2, 1), and 10**12 would size a shift."""
    with pytest.raises(LabelOutOfRange, match=re.escape(message)):
        read(digraph)


# Each public function that reads the covers of a ``CoverDigraph``, with
# every other argument valid.
COVER_READERS = {
    "nullity": nullity,
    "poset_classification": poset.poset_classification,
    "lattice_document": lattice_document,
    "canonical_certificate": canonical_certificate,
    "canonical_labeling": canonical_labeling,
    "dot_digraph": lambda p: dot_digraph(p, "g"),
    "basic_retract": basic_retract,
    "basic_block_of": basic_block_of,
    "is_retractible": lambda p: is_retractible(p, 0),
    "induced_subposet": lambda p: induced_subposet(p, [0, 1]),
    "direct_sum_below": lambda p: direct_sum(p, CoverDigraph(1, ())),
    "direct_sum_above": lambda p: direct_sum(CoverDigraph(1, ()), p),
    "dual": dual,
    "relabel": lambda p: relabel(p, range(p.n)),
    "as_lattice": as_lattice,
}

# A bad digraph of each kind, with the error and message that name its
# first bad cover.  Read as given, -1 indexes element n-1, so the second
# digraph made element 1 look reducible; the self-loop gave nullity 1.
BAD_DIGRAPHS = {
    "label_past_n": (CoverDigraph(2, ((0, 5),)), LabelOutOfRange, "cover (0, 5) outside 0..1"),
    "negative_label": (
        CoverDigraph(3, ((-1, 1), (0, 1))), LabelOutOfRange, "cover (-1, 1) outside 0..2"
    ),
    "self_loop": (CoverDigraph(2, ((0, 0),)), CycleDetected, "self-loop at 0"),
    "repeat": (CoverDigraph(2, ((0, 1), (0, 1))), RedundantCover, "cover (0, 1) listed twice"),
}


@pytest.mark.parametrize("bad", sorted(BAD_DIGRAPHS))
@pytest.mark.parametrize("reader", sorted(COVER_READERS))
def test_every_cover_reader_names_the_first_bad_cover(reader, bad):
    """Every public function that reads a digraph's covers rejects a bad
    one with the same error and message."""
    digraph, error, message = BAD_DIGRAPHS[bad]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        COVER_READERS[reader](digraph)


class TestDismantlableAndCrown:
    def test_chain(self):
        assert is_dismantlable(chain(5))
        assert not contains_crown(chain(5))

    def test_f3(self):
        assert is_dismantlable(f3())
        assert not contains_crown(f1())

    def test_cube(self):
        c = cube()
        assert not is_dismantlable(c)
        assert contains_crown(c)

    @pytest.mark.parametrize("s", [3, 4])
    def test_bounded_crowns(self, s):
        """The crown S_s with a bottom and a top (the cube for s = 3) is a
        lattice on 2s + 2 elements, crowned and not dismantlable, under five
        seeded relabelings."""
        bottom, top = 0, 2 * s + 1
        lows, highs = range(1, s + 1), range(s + 1, 2 * s + 1)
        covers = [(bottom, a) for a in lows] + [(b, top) for b in highs]
        covers += [(a, highs[i]) for i, a in enumerate(lows)]
        covers += [(a, highs[(i + 1) % s]) for i, a in enumerate(lows)]
        rng = random.Random(s)
        for _ in range(5):
            perm = list(range(2 * s + 2))
            rng.shuffle(perm)
            lat = as_lattice(relabel(CoverDigraph(2 * s + 2, tuple(covers)), perm))
            assert contains_crown(lat)
            assert not is_dismantlable(lat)


class TestMaximalChains:
    def test_chain_single(self):
        l = chain(4)
        assert maximal_chains_in_interval(l, 0, 3) == [(0, 1, 2, 3)]

    def test_diamond_two(self):
        assert len(maximal_chains_in_interval(m2(), 0, 3)) == 2

    def test_f1_upper_interval(self):
        chains = maximal_chains_in_interval(f1(), 1, 5)
        assert sorted(chains) == [(1, 2, 5), (1, 3, 5)]

    def test_incomparable_rejected(self):
        with pytest.raises(NotComparable):
            maximal_chains_in_interval(m2(), 1, 2)


# Each public query that takes labels, with one label ``v`` in each place,
# on the diamond: a negative label read a row from the end, and n read past
# the rows, each with a wrong answer or an error that no ``except
# LatticeError`` catches.
LABEL_QUERIES = {
    "le_first": lambda l, v: l.le(v, 3),
    "le_second": lambda l, v: l.le(0, v),
    "meet_join_first": lambda l, v: meet_join(l, v, 1),
    "meet_join_second": lambda l, v: meet_join(l, 0, v),
    "chains_first": lambda l, v: maximal_chains_in_interval(l, v, 3),
    "chains_second": lambda l, v: maximal_chains_in_interval(l, 0, v),
    "chains_both": lambda l, v: maximal_chains_in_interval(l, v, v),
    "pair_multiplicity": lambda l, v: pair_multiplicity(l, v, 3),
    "is_retractible": lambda l, v: is_retractible(l.digraph, v),
    "induced_subposet": lambda l, v: induced_subposet(l.digraph, [0, v]),
}


@pytest.mark.parametrize("label", [-1, 4])
@pytest.mark.parametrize("query", sorted(LABEL_QUERIES))
def test_labels_outside_the_lattice_raise_label_out_of_range(query, label):
    with pytest.raises(LabelOutOfRange, match=f"^label {label} outside 0..3$"):
        LABEL_QUERIES[query](m2(), label)


@pytest.mark.parametrize(
    "perm", [[0, 1, 1, 3], [4, 5, 6, 7, 0], [0, 1, 2], [1, 2, 3, 0, 4], [-1, 0, 1, 2]]
)
def test_relabel_takes_permutations_alone(perm):
    with pytest.raises(LabelOutOfRange, match="is not a permutation of 0..3"):
        relabel(m2().digraph, perm)


def test_relabel_moves_every_cover():
    assert relabel(m2().digraph, [3, 1, 2, 0]).covers == ((1, 0), (2, 0), (3, 1), (3, 2))


def _rows(p):
    return list(p.up_adjacency()), list(p.down_adjacency()), (1 << p.n) - 1


class TestDelete:
    """In-place deletion from cover rows against the induced subposet."""

    def test_every_single_vertex(self):
        for n in range(1, 8):
            for lat in search_lattices(n).values():
                p = lat.digraph
                for x in range(n):
                    up, down, live = _rows(p)
                    live = _delete(up, down, live, x)
                    kept = [v for v in range(n) if v != x]
                    assert _live_digraph(up, live) == (
                        induced_subposet(p, kept),
                        tuple(kept),
                    )

    def test_random_deletion_sequences(self):
        rng = random.Random(20261018)
        for n in range(1, 10):
            for r in (2, 3):
                for member in reference_class(n, r).values():
                    p = member.digraph
                    up, down, live = _rows(p)
                    order = list(range(n))
                    rng.shuffle(order)
                    for x in order[:-1]:
                        live = _delete(up, down, live, x)
                        kept = [v for v in range(n) if live >> v & 1]
                        digraph, labels = _live_digraph(up, live)
                        assert digraph == induced_subposet(p, kept)
                        assert labels == tuple(kept)
                        # the lower-cover rows stay the transpose of the upper ones
                        assert down == [
                            sum(1 << v for v in range(n) if up[v] >> w & 1)
                            for w in range(n)
                        ]

