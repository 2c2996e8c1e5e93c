import hashlib
import os
import signal
import time

import pytest

from latcount import canon, documents, formulas, oracle, reduction, search
from latcount.canon import Certificate, canonical_certificate, decode_certificate
from latcount.oracle import (
    CLASS_SEARCH_LIMIT,
    SizeLimitExceeded,
    VerifyRecord,
    block_census,
    enumerate_by_reducible,
    reducible_class,
    _split_size,
    verify,
)
from latcount.search import FULL_SEARCH_LIMIT, census, enumerate_all_lattices
from latcount.poset import (
    CoverDigraph,
    as_lattice,
    build_poset,
    chain,
    classify_elements,
    dual,
    is_dismantlable,
)
from latcount.reduction import FbbClass, UnexpectedClass, classify_fbb
from class_reference import reference_class, three_block_fibers
from search_reference import (
    automorphisms,
    reference_level,
    search_lattices,
    top_adjoined,
)

# A006966, the number of unlabeled lattices on n elements, for n = 1..10
A006966 = dict(enumerate((1, 1, 1, 2, 5, 15, 53, 222, 1078, 5994), start=1))

# sha256 of (certificate bytes, repr of the down-sets) of every state of
# levels 1..7 of ``reference_level``, in insertion order; recorded from the
# search while it kept the first child per certificate and each state still
# carried its up-sets and a join table besides its down-sets.
LEVELS_SHA256 = "34ff6804952b06a1d8c54d179036796a2b7ca8abacf7f7b003fee9f738355a64"

# The same digest over level 8 alone, whose states become the 1,078
# lattices on 9 elements; recorded while the search still walked every mask
# of every state.
LEVEL_8_SHA256 = "b64b72a344c3c989ac2866aa67071109c0f25c410c6f2696e238943e58441539"


@pytest.fixture(scope="module")
def levels_to_8():
    """Search levels 1..8, built on a copy of the level tables, so that
    the search never keeps level 8, past the census's reach."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_LEVELS", dict(search._LEVELS))
        return {k: search._level(k) for k in range(1, 9)}


def _ranks(downs) -> dict[int, tuple]:
    """The canonical-deletion invariant of each maximal element of a state,
    from a transitive reduction: (down-set size, number of lower covers,
    sorted down-set sizes of those covers)."""
    covers = top_adjoined(downs)
    top = len(downs)
    ranks = {}
    for x in (j for j, i in covers if i == top):
        lows = [j for j, i in covers if i == x]
        sizes = sorted(downs[j].bit_count() for j in lows)
        ranks[x] = (downs[x].bit_count(), len(lows), sizes)
    return ranks


def _relabeled(downs) -> tuple[int, ...]:
    """A state relabeled by the linear extension that always places the
    largest label whose down-set is already placed."""
    k = len(downs)
    order, placed = [], 0
    while len(order) < k:
        x = max(x for x in range(k) if not placed >> x & 1 and not downs[x] & ~placed)
        order.append(x)
        placed |= 1 << x
    label = {x: i for i, x in enumerate(order)}
    return tuple(
        sum(1 << label[y] for y in range(k) if downs[x] >> y & 1) for x in order
    )


def _agrees(records) -> bool:
    """Whether no compared cell disagrees; recorded-only cells do not count."""
    return all(r.ok is not False for r in records)


def _count_calls(monkeypatch, module, name) -> list[int]:
    """Count the calls of ``module.name`` from now on, in a one-item list."""
    calls = [0]
    fn = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestFullSearch:
    def test_counts_up_to_limit(self):
        for n in range(1, FULL_SEARCH_LIMIT + 1):
            assert len(enumerate_all_lattices(n)) == A006966[n]

    def test_census_stops_one_level_below_limit(self):
        """n-element lattices are read off the (n - 1)-element states."""
        assert census(FULL_SEARCH_LIMIT).total() == A006966[FULL_SEARCH_LIMIT]
        assert max(search._LEVELS) == FULL_SEARCH_LIMIT - 1

    def test_levels_are_keyed_by_the_lattice_each_state_becomes(self):
        for k in range(1, FULL_SEARCH_LIMIT):
            for cert, (downs, _) in search._level(k).items():
                covers = top_adjoined(downs)
                assert canonical_certificate(build_poset(k + 1, covers)) == cert, k

    def test_levels_match_a006966(self, levels_to_8):
        for n in range(2, 10):
            assert len(levels_to_8[n - 1]) == A006966[n], n

    def test_levels_have_the_reference_certificates(self, levels_to_8):
        for k, level in levels_to_8.items():
            assert level.keys() == reference_level(k).keys(), k

    def test_kept_states_add_their_canonical_deletion(self, levels_to_8):
        """The newest element of every kept state ranks highest among the
        maximal elements, and when others tie with it, it lies in the
        orbit, under every automorphism, of the tied element that the
        canonical labeling puts last."""
        ties = 0
        for k in range(2, 9):
            for downs, _ in levels_to_8[k].values():
                ranks = _ranks(downs)
                best = max(ranks.values())
                tied = [x for x, rank in ranks.items() if rank == best]
                assert k - 1 in tied, downs
                if len(tied) > 1:
                    ties += 1
                    lattice = build_poset(k + 1, top_adjoined(downs))
                    labeling = canon.canonical_labeling(lattice)
                    last = max(tied, key=labeling.index)
                    group = automorphisms(k + 1, lattice.up_adjacency())
                    assert k - 1 in {g[last] for g in group}, downs
        assert ties

    def test_kept_children_do_not_depend_on_labels(self):
        """A state relabeled by another linear extension keeps children of
        the same classes: which classes a state is the parent of depends on
        its isomorphism class alone, as canonical augmentation needs."""
        moved = 0
        for k in range(2, 7):
            for downs, gens in search._level(k).values():
                relabeled = _relabeled(downs)
                moved += relabeled != downs
                lattice = build_poset(k + 1, top_adjoined(relabeled))
                _, _, found = canon._certificate(k + 1, lattice.up_adjacency())
                kept, again = {}, {}
                search._expand(downs, gens, kept)
                search._expand(relabeled, found, again)
                assert again.keys() == kept.keys(), downs
        assert moved

    def test_level_contents_are_pinned(self):
        digest = hashlib.sha256()
        for k in range(1, 8):
            for cert, downs in reference_level(k).items():
                digest.update(cert.data + repr(downs).encode())
        assert digest.hexdigest() == LEVELS_SHA256

    def test_level_8_is_pinned(self):
        digest = hashlib.sha256()
        for cert, downs in reference_level(8).items():
            digest.update(cert.data + repr(downs).encode())
        assert len(reference_level(8)) == 1078
        assert digest.hexdigest() == LEVEL_8_SHA256

    @pytest.mark.slow
    def test_level_9_matches_the_reference_and_a006966(self, monkeypatch):
        monkeypatch.setattr(search, "_LEVELS", dict(search._LEVELS))
        assert search._level(9).keys() == reference_level(9).keys()
        assert len(search._level(9)) == A006966[10]

    def test_lattices_are_read_off_the_level_below(self, monkeypatch):
        """Every size, the one-element lattice too, is read off the level
        below without a canonicalization."""
        search._level(FULL_SEARCH_LIMIT - 1)
        calls = _count_calls(monkeypatch, canon, "_canonical")
        for n in range(1, FULL_SEARCH_LIMIT + 1):
            assert len(enumerate_all_lattices(n)) == A006966[n]
        assert calls == [0]

    def test_census_canonicalizes_each_searched_child_once(self, monkeypatch):
        """census(8) from the seed level canonicalizes the 303 children that
        levels 2..7 keep after two cuts, and each of the 9 labelled
        fundamental basic blocks its 65 three-reducible lattices trim to,
        and nothing else.  The census lattices are decoded from their
        certificates, so those blocks carry canonical labels, and a search
        that visits or keeps states in another order trims to the same 9.
        The first cut tries one ideal per automorphism orbit of each state
        (694 children passed the meet test while every ideal was tried, 519
        after this cut); the second drops, before canonicalizing, every
        child whose new element does not rank highest as a canonical
        deletion."""
        monkeypatch.setattr(search, "_LEVELS", {1: search._LEVELS[1]})
        monkeypatch.setattr(reduction, "_FBB_CLASSES", {})
        calls = _count_calls(monkeypatch, canon, "_canonical")
        assert census(8).total() == A006966[8]
        assert len(reduction._FBB_CLASSES) == 9
        assert calls == [303 + 9]

    def test_levels_to_8_canonicalize_1403_children(self, monkeypatch):
        """Levels 2..8 canonicalize 1,403 children for their 1,376 states
        (2,677 before the rank cut)."""
        monkeypatch.setattr(search, "_LEVELS", {1: search._LEVELS[1]})
        calls = _count_calls(monkeypatch, canon, "_canonical")
        assert len(search._level(8)) == 1078
        assert calls == [1403]

    def test_a_level_built_on_a_copy_keeps_nothing_elsewhere(self):
        """Each state carries its own generators, so a level built on a
        copy of the level tables, as ``levels_to_8`` builds level 8, leaves
        every table of the module as it was."""
        def sizes():
            return {
                name: len(value)
                for name, value in vars(search).items()
                if isinstance(value, dict)
            }

        before = sizes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_LEVELS", dict(search._LEVELS))
            assert len(search._level(8)) == A006966[9]
        assert sizes() == before

    def test_a_duplicate_child_is_an_internal_error(self):
        """Expanding a state twice into one level keeps its children twice,
        which canonical augmentation never does."""
        out = {}
        search._expand((0, 1), [], out)
        assert out
        with pytest.raises(RuntimeError, match="twice"):
            search._expand((0, 1), [], out)

    def test_generators_are_automorphisms_of_their_states(self):
        """Each stored generator permutes the state's elements and its top,
        fixes the bottom and the top, and maps each down-set onto the
        down-set of the image: downs[g[i]] is the image of downs[i]."""
        nontrivial = 0
        for k in range(1, FULL_SEARCH_LIMIT):
            for downs, gens in search._level(k).values():
                for g in gens:
                    assert sorted(g) == list(range(k + 1)), downs
                    assert g[0] == 0 and g[k] == k, (downs, g)
                    for i in range(k):
                        image = sum(1 << g[j] for j in range(k) if downs[i] >> j & 1)
                        assert image == downs[g[i]], (downs, g)
                    nontrivial += g != list(range(k + 1))
        assert nontrivial

    def test_lattices_are_decoded_from_their_certificates(self, monkeypatch):
        """Each lattice the census builds is in the canonical labels its
        certificate encodes, whichever state the search kept for it: the
        census checks the decoded certificate of each 3-reducible member,
        in certificate order, and nothing else."""
        built = []
        check = search.as_lattice

        def recorded(p):
            built.append(p)
            return check(p)

        monkeypatch.setattr(search, "as_lattice", recorded)
        for n in range(1, FULL_SEARCH_LIMIT + 1):
            built.clear()
            threes = census(n).classes.get(3, frozenset())
            assert built == [decode_certificate(c) for c in sorted(threes)], n

    def test_census_builds_only_its_three_reducible_lattices(self, monkeypatch):
        """``census(8)`` builds a ``Lattice`` for each of its 65
        3-reducible members alone (222 when every member was built), and
        ``verify(8)`` on warm block tables builds none (300 when the
        search split built them all)."""
        assert _agrees(verify(8))  # warms the block tables
        calls = _count_calls(monkeypatch, search, "as_lattice")
        assert _agrees(verify(8))
        assert calls == [0]
        census(8)
        assert calls == [65]

    def test_members_are_valid_lattices(self):
        """Every certificate of the search decodes to a lattice whose own
        certificate it is, and the census split, which reads the cover
        degrees of the decoded digraph, is the split by
        ``classify_elements`` of the checked lattice."""
        for n in range(1, FULL_SEARCH_LIMIT + 1):
            split: dict[int, list[Certificate]] = {}
            for cert, lat in search_lattices(n).items():
                assert lat.n == n
                assert canonical_certificate(lat.digraph) == cert
                split.setdefault(len(classify_elements(lat).red), []).append(cert)
            assert search._reducible_split(n) == split, n

    def test_size_guard(self):
        with pytest.raises(SizeLimitExceeded):
            enumerate_all_lattices(9)
        for entry in (census, enumerate_all_lattices):
            with pytest.raises(SizeLimitExceeded):
                entry(FULL_SEARCH_LIMIT + 1)

    def test_sizes_below_one_are_empty(self):
        for n in (0, -1, -2):
            assert enumerate_all_lattices(n) == frozenset()
            report = census(n)
            assert report.classes == {} and report.fbb_fibers == {}
            assert report.total() == 0


class TestClassSearch:
    def test_spot_counts(self):
        assert len(enumerate_by_reducible(4, 2)) == 1
        assert len(enumerate_by_reducible(6, 3)) == 2
        assert len(enumerate_by_reducible(5, 3)) == 0
        for n in (0, -1):
            for r in (2, 3):
                assert reducible_class(n, r) == {}, (n, r)

    def test_members_have_claimed_reducible_count(self):
        for n, r in [(7, 2), (7, 3), (8, 3)]:
            for cert in reducible_class(n, r):
                lat = as_lattice(decode_certificate(cert))
                assert lat.n == n
                assert len(classify_elements(lat).red) == r

    @pytest.mark.parametrize(
        "n", [*range(1, 11), *(pytest.param(n, marks=pytest.mark.slow) for n in (11, 12))]
    )
    def test_members_are_the_reference_paddings(self, n):
        """Padding every realized block in every way and canonicalizing each
        padding on its own gives the class's keys, in order, and no two
        paddings share a certificate (``reference_class`` asserts both), so
        no rule needs to choose between paddings."""
        for r in (2, 3):
            assert len(reference_class(n, r)) == len(reducible_class(n, r))

    def test_matches_full_search_fibers(self):
        for n in range(4, 8):
            full = census(n)
            assert full.classes.get(2, frozenset()) == enumerate_by_reducible(n, 2)
            assert full.classes.get(3, frozenset()) == enumerate_by_reducible(n, 3)

    def test_carried_tag_is_the_members_own_class(self):
        """Members inherit their block's tag, which ``_spine_class`` reads
        off the recipe's bundles at the middle reducible element;
        ``classify_fbb``, retracting each member itself, is the reference,
        so the two classifiers agree."""
        for n in range(1, 11):
            for r in (2, 3):
                for cert, fbb in reducible_class(n, r).items():
                    lat = as_lattice(decode_certificate(cert))
                    assert fbb is classify_fbb(lat), (n, r)

    def test_carried_tags_match_full_search_fibers(self):
        """The search classifies its own lattices with ``classify_fbb``,
        independently of the recipes, of the block table and of the rule
        ``_spine_class`` that tags the blocks."""
        for n in range(1, FULL_SEARCH_LIMIT + 1):
            fibers: dict[FbbClass, set] = {}
            for cert, fbb in reducible_class(n, 3).items():
                fibers.setdefault(fbb, set()).add(cert)
            assert fibers == census(n).fbb_fibers, n

    def test_duality_closure_and_fiber_swap(self):
        certs = set(reducible_class(7, 3))
        swap = {FbbClass.F1: FbbClass.F2, FbbClass.F2: FbbClass.F1}
        for cert in certs:
            lat = as_lattice(decode_certificate(cert))
            mirrored = as_lattice(dual(lat.digraph))
            mirror_cert = canonical_certificate(mirrored.digraph)
            assert mirror_cert in certs
            tag = classify_fbb(lat)
            assert classify_fbb(mirrored) is swap.get(tag, tag)

    def test_split_size_is_clamped(self, monkeypatch, two_cpus):
        """The CPUs this process may run on bound the split, not the CPUs of
        the machine; without an affinity call the machine's count does."""
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
        assert _split_size(10**9, 12) == 2
        assert _split_size(8, 1) == 1
        assert _split_size(1, 12) == 1
        assert _split_size(0, 12) == 1
        assert _split_size(-3, 12) == 1
        # pinned to one CPU, as under ``taskset -c 0``
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0})
        assert _split_size(2, 10) == 1
        monkeypatch.delattr(oracle.os, "sched_getaffinity")
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
        assert _split_size(4, 12) == 1
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
        assert _split_size(10**9, 5) == 5
        assert _split_size(3, 5) == 3

    def test_recipes_realize_distinct_blocks_with_r_reducibles(self):
        """Every recipe for r in {2, 3} and m <= ``CLASS_SEARCH_LIMIT``
        realizes to a block with exactly r reducibles, and no two to
        isomorphic blocks.  ``_block_table`` counts no reducibles, so this
        test guards the recipes themselves.  Past r = 3 a spine has more
        than one middle element, and the degree rule must check each of
        them.  Padded by chains, the r = 4 blocks counted here give 1, 11,
        72 and 357 lattices on 6..9 elements and the r = 5 blocks 7 and
        108 on 8 and 9, whose reducibles form a chain.  ``_spine_class``
        tags them None, and those sizes have no block table."""
        sizes = {
            (m, r): None for m in range(4, CLASS_SEARCH_LIMIT + 1) for r in (2, 3)
        }
        sizes.update({(6, 4): 1, (7, 4): 9, (8, 4): 51, (9, 4): 224})
        sizes.update({(8, 5): 7, (9, 5): 94})
        for (m, r), count in sizes.items():
            certs = set()
            for rep, _ in oracle._block_reps(m, r):
                block = oracle.realize(rep)
                assert len(classify_elements(block).red) == r, rep
                cert = canonical_certificate(block.digraph)
                assert cert not in certs, rep
                certs.add(cert)
            if count is None:
                count = len(oracle._block_table(m, r))
            assert len(certs) == count, (m, r)

    def test_recipe_sequence_is_pinned(self):
        """The recipes of ``_block_reps`` for m = 1..15, two-reducible
        before three-reducible at each m, in generation order.  The block
        tables keep their first realizations in this order, so a change of
        recipe generator shows here before it shows in a certificate."""
        reps = [
            rep for m in range(1, 16) for r in (2, 3) for rep, _ in oracle._block_reps(m, r)
        ]
        assert len(reps) == 14308
        text = "\n".join(repr(rep) for rep in reps)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b1c6e771c6182ab529230378f80736ca3a5de8f5113bf1df1bdfd03061a58f22"
        )

    def test_smallest_blocks_have_twice_the_reducibles(self):
        """M2 has 4 elements, F1 and F2 have 6, and no block is smaller: the
        tables below m = 2r have no recipe, and a split has nothing of
        theirs to deal."""
        for r in (2, 3):
            assert all(not oracle._block_table(m, r) for m in range(2 * r)), r
            assert oracle._block_table(2 * r, r), r

    def test_tables_without_blocks_fork_no_split(
        self, monkeypatch, fresh_tables, eager_split
    ):
        """Below m = 2r every table is empty, so a class search that reads
        only such tables has no recipe to deal and builds them in one
        process, however many workers, even with no break-even to reach."""
        forks = _count_calls(monkeypatch, oracle.os, "fork")
        assert reducible_class(3, 2, workers=2) == {}
        assert reducible_class(5, 3, workers=2) == {}
        assert forks == [0]

    def test_worker_count_does_not_change_output(
        self, monkeypatch, fresh_tables, eager_split
    ):
        """From empty tables each time, one process and a split over two
        give the same members in the same order; only the split forks."""
        forks = _count_calls(monkeypatch, oracle.os, "fork")

        def members(workers):
            monkeypatch.setattr(oracle, "_BLOCKS", {})
            return list(reducible_class(8, 3, workers=workers).items())

        solo = members(1)
        assert forks == [0]
        assert members(2) == solo
        assert forks == [1]
        assert enumerate_by_reducible(8, 3, workers=2) == {cert for cert, _ in solo}

    def test_one_cpu_or_no_fork_builds_in_process(
        self, monkeypatch, fresh_tables, eager_split
    ):
        """Two workers on one CPU, or where ``os.fork`` is missing, fork
        nothing and build the same tables in this process."""
        solo = list(reducible_class(8, 3).items())
        forks = _count_calls(monkeypatch, oracle.os, "fork")
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(oracle, "_BLOCKS", {})
        assert list(reducible_class(8, 3, workers=2).items()) == solo
        assert forks == [0]
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(oracle.os, "fork")
        monkeypatch.setattr(oracle, "_BLOCKS", {})
        assert list(reducible_class(8, 3, workers=2).items()) == solo
        assert forks == [0]

    def test_tables_below_break_even_fork_no_pool(
        self, monkeypatch, fresh_tables, two_cpus
    ):
        """From empty tables each time, the tables of the largest n below
        the break-even are too small for a split to pay: two workers build
        them in-process, as one does, and give the same members in the same
        order."""
        forks = _count_calls(monkeypatch, oracle.os, "fork")
        n = oracle.SPLIT_BREAK_EVEN - 1

        def members(workers):
            monkeypatch.setattr(oracle, "_BLOCKS", {})
            return list(reducible_class(n, 3, workers=workers).items())

        assert members(2) == members(1)
        assert forks == [0]

    def test_size_guard(self):
        with pytest.raises(SizeLimitExceeded):
            enumerate_by_reducible(13, 2)
        with pytest.raises(ValueError):
            enumerate_by_reducible(6, 4)


class TestBlockClass:
    """``oracle._spine_class`` tags each recipe by the structure theorem,
    from its bundle widths; ``classify_fbb``, which retracts and
    canonicalizes the realized block, is the reference."""

    @pytest.mark.parametrize(
        "m", [*range(4, 12), *(pytest.param(m, marks=pytest.mark.slow) for m in (12, 13))]
    )
    def test_matches_classify_fbb_on_every_realized_block(self, m):
        for r in (2, 3):
            for rep, tag in oracle._block_reps(m, r):
                assert tag is classify_fbb(oracle.realize(rep)), rep

    def test_more_reducibles_carry_no_class(self):
        """Past three reducibles the paper names no F-class, and every
        recipe carries None."""
        tags = {
            tag for m in range(1, 10) for r in (4, 5) for _, tag in oracle._block_reps(m, r)
        }
        assert tags == {None}


class TestCensus:
    def test_n5(self):
        c = census(5)
        assert {r: len(v) for r, v in c.classes.items()} == {0: 1, 2: 4}
        assert c.total() == 5

    def test_n6(self):
        c = census(6)
        assert {r: len(v) for r, v in c.classes.items()} == {0: 1, 2: 11, 3: 2, 4: 1}
        assert {t: len(v) for t, v in c.fbb_fibers.items()} == {
            FbbClass.F1: 1,
            FbbClass.F2: 1,
        }

    def test_n7_fibers(self):
        c = census(7)
        fibers = {t: len(v) for t, v in c.fbb_fibers.items()}
        assert fibers == {FbbClass.F1: 7, FbbClass.F2: 7, FbbClass.F3: 1}
        assert sum(fibers.values()) == len(c.classes[3]) == 15

    def test_classes_are_disjoint(self):
        c = census(6)
        seen = set()
        for certs in c.classes.values():
            assert not certs & seen
            seen |= certs

    def test_no_single_reducible_class(self):
        for n in range(1, 8):
            assert 1 not in census(n).classes


class TestBlockCensus:
    def test_two_reducible_strata(self):
        for m in range(4, 9):
            strata = block_census(m, 2)
            for k in range(0, m - 3):
                assert len(strata.get(k, {})) == formulas.two_reducible_blocks(m, k)

    def test_blocks_have_reducible_extremes(self):
        for k, members in block_census(7, 3).items():
            for cert in members:
                lat = as_lattice(decode_certificate(cert))
                cls = classify_elements(lat)
                assert lat.bottom in cls.red and lat.top in cls.red
                assert len(lat.covers) == 7 + k

    def test_three_reducible_fibers(self):
        fibers = three_block_fibers(8)
        assert fibers[(FbbClass.F1, 1)] == formulas.b1_blocks(8, 1)
        assert fibers[(FbbClass.F4, 2)] == formulas.b4_blocks(8, 2) == 1


def _by_cell(records):
    return {(r.n, r.name): r for r in records}


def _decoded(certs):
    """The cover lists the certificates decode to, in canonical labels, as
    a ``VerifyRecord`` carries its witness."""
    return [[list(c) for c in decode_certificate(cert).covers] for cert in certs]


class TestVerify:
    def test_small_run_agrees(self):
        records = verify(6)
        assert _agrees(records)
        cells = _by_cell(records)
        assert len(cells) == len(records)  # one record per (n, cell)
        assert [n for n in range(1, 7) if (n, "two_reducible") in cells] == list(
            range(1, 7)
        )
        assert [r.n for r in records] == sorted(r.n for r in records)

    def test_report_cells(self):
        cells = _by_cell(verify(6))
        assert cells[6, "two_reducible"].formula == 11
        assert cells[6, "three_reducible"].oracle == 2
        assert cells[6, "total"].oracle == 15
        assert cells[6, "total"].ok is None
        assert cells[6, "other"].ok is None
        assert cells[6, "two_reducible_blocks[k=0]"].formula == 2
        same = cells[6, "search_three_reducible"]
        assert same.ok is True
        assert same.formula is None and same.oracle is None
        assert all(r.witness is None for r in cells.values())

    def test_oracle_class_cells_sum_to_total(self):
        cells = _by_cell(verify(7))
        for n in range(1, 8):
            parts = ("chains", "two_reducible", "three_reducible", "other")
            assert all(cells[n, c].oracle >= 0 for c in parts)
            assert sum(cells[n, c].oracle for c in parts) == cells[n, "total"].oracle

    def test_injected_fault_is_flagged_with_witness(self, monkeypatch):
        healthy = formulas.two_reducible_lattices

        def wrong(n, form="block_first"):
            value = healthy(n, form)
            return value + 1 if n == 5 else value

        monkeypatch.setattr(formulas, "two_reducible_lattices", wrong)
        records = verify(5)
        assert not _agrees(records)
        bad = _by_cell(records)[5, "two_reducible"]
        assert bad.ok is False
        assert (bad.formula, bad.oracle) == (5, 4)
        # the witness is a member, as ``enumerate --format edges`` prints it
        assert bad.witness in _decoded(reducible_class(5, 2))
        flagged = {(r.n, r.name) for r in records if r.ok is False}
        assert flagged == {(5, "two_reducible"), (5, "two_reducible_thakare")}

    def test_injected_block_fault_is_flagged_with_witness(self, monkeypatch):
        """An F1 block count off by one at m = 7 flags every stratum of F1
        blocks, and of F2 blocks, which ``b2_blocks`` counts as their duals;
        a stratum with blocks names one of them in canonical labels."""
        healthy = formulas.b1_blocks

        def wrong(m, k):
            return healthy(m, k) + (m == 7)

        monkeypatch.setattr(formulas, "b1_blocks", wrong)
        records = verify(7)
        flagged = {(r.n, r.name) for r in records if r.ok is False}
        cells = [
            (f"{name}_blocks[k={k}]", tag, k)
            for name, tag in (("b1", FbbClass.F1), ("b2", FbbClass.F2))
            for k in range(4)
        ]
        assert flagged == {(7, name) for name, _, _ in cells}
        strata = block_census(7, 3)
        for name, tag, k in cells:
            bad = _by_cell(records)[7, name]
            certs = [c for c, fbb in strata.get(k, {}).items() if fbb is tag]
            assert (bad.formula, bad.oracle) == (len(certs) + 1, len(certs)), name
            if certs:
                assert bad.witness in _decoded(certs), name
            else:
                assert bad.witness is None, name

    def test_size_guard(self):
        with pytest.raises(SizeLimitExceeded):
            verify(42)

    def test_each_block_is_realized_and_classified_once(self, monkeypatch, fresh_tables):
        """Each block is realized and tagged by ``_spine_class`` once; the
        run reaches ``classify_fbb`` through no module that binds it."""
        calls = {"realize": 0, "_spine_class": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(oracle, "realize", counted("realize", oracle.realize))
        monkeypatch.setattr(
            oracle, "_spine_class", counted("_spine_class", oracle._spine_class)
        )
        retractions = [
            _count_calls(monkeypatch, module, "classify_fbb")
            for module in (reduction, search, documents)
        ]
        assert _agrees(verify(9))
        # 37 two-reducible plus 150 three-reducible blocks on m <= 9 elements
        assert sum(len(table) for table in oracle._BLOCKS.values()) == 187
        assert calls == {"realize": 187, "_spine_class": 187}
        assert retractions == [[0], [0], [0]]

    def test_one_pool_per_run(self, monkeypatch, fresh_tables, eager_split):
        """From empty tables, a split ``verify`` forks its worker once; a
        later class search whose tables are all present forks none."""
        forks = _count_calls(monkeypatch, oracle.os, "fork")
        assert _agrees(verify(9, workers=2))
        assert forks == [1]
        reducible_class(9, 3, workers=2)
        assert forks == [1]

    def test_split_builds_each_table_once_per_run(
        self, monkeypatch, fresh_tables, eager_split, split_keys
    ):
        """A split ``verify`` builds every (m, r) table it reads, each once
        and the largest first, and the parent keeps them all; the parent
        lists each table's recipes once."""
        built = split_keys
        listed = []
        reps = oracle._block_reps
        monkeypatch.setattr(
            oracle, "_block_reps", lambda m, r: listed.append((m, r)) or reps(m, r)
        )
        # the run still goes through the public entry point, which the
        # benchmark's tracer times
        classes = []
        public = oracle.reducible_class

        def counted(*args, **kwargs):
            classes.append(args)
            return public(*args, **kwargs)

        monkeypatch.setattr(oracle, "reducible_class", counted)
        assert _agrees(verify(9, workers=2))
        assert len(built) == len(set(built)) == 18  # (m, r) for m <= 9
        assert set(built) == set(oracle._BLOCKS)
        assert built == sorted(built, reverse=True)
        # the tables below m = 2r are built in the same split, without a block
        assert len(oracle._BLOCKS) == 18
        assert all(not oracle._BLOCKS[m, r] for m, r in built if m < 2 * r)
        assert len(listed) == len(set(listed)) == 18
        assert listed == built
        assert len(classes) == 18  # two per size

    def test_verify_below_break_even_forks_no_pool(
        self, monkeypatch, fresh_tables, two_cpus
    ):
        """From empty tables each time, ``verify(9)`` with two workers
        forks nothing and reports what one worker reports."""
        assert oracle.SPLIT_BREAK_EVEN > 9
        forks = _count_calls(monkeypatch, oracle.os, "fork")
        solo = verify(9)
        monkeypatch.setattr(oracle, "_BLOCKS", {})
        assert verify(9, workers=2) == solo
        assert _agrees(solo)
        assert forks == [0]

    def test_pool_starts_at_break_even(
        self, monkeypatch, fresh_tables, two_cpus, split_keys
    ):
        """The split starts once the largest table a run still lacks
        reaches the break-even, and builds only the tables the run lacks.
        The break-even drops to 9 here, so that a short run reaches it."""
        # some class search can reach the real break-even
        assert oracle.SPLIT_BREAK_EVEN <= CLASS_SEARCH_LIMIT
        monkeypatch.setattr(oracle, "SPLIT_BREAK_EVEN", 9)
        forks = _count_calls(monkeypatch, oracle.os, "fork")
        reducible_class(8, 3, workers=2)  # lacks (8, 3), (7, 3), (6, 3)
        assert forks == [0]
        assert split_keys == []
        assert _agrees(verify(9, workers=2))
        assert forks == [1]
        assert split_keys == [
            (9, 3), (9, 2), (8, 2), (7, 2), (6, 2), (5, 2), (4, 2), (3, 2), (2, 2), (1, 2)
        ]

    def test_worker_tables_reach_the_parent(
        self, monkeypatch, fresh_tables, eager_split
    ):
        """The blocks a forked worker builds are sent back to the parent,
        which realizes its own share of the recipes, every second one from
        the first, and nothing after the split: its padding and
        ``block_census`` realize nothing again."""
        # counts in the parent only: the worker counts in its own copy
        calls = _count_calls(monkeypatch, oracle, "realize")
        after_split = []
        build = oracle._build_tables

        def recorded(keys, workers):
            build(keys, workers)
            after_split.append(calls[0])

        monkeypatch.setattr(oracle, "_build_tables", recorded)
        assert _agrees(verify(9, workers=2))
        # 187 recipes, one block each, over two processes
        assert sum(len(table) for table in oracle._BLOCKS.values()) == 187
        assert after_split[0] == len(range(0, 187, 2)) == 94
        assert calls == [94]

    def test_three_processes_deal_unevenly(
        self, monkeypatch, fresh_tables, eager_split
    ):
        """With three CPUs and three workers, a split forks two children,
        and the 187 recipes of ``verify(9)`` go 63 to this process and 62
        to each child.  The reports, and a class search's members in their
        order, are those of one process; ``two_cpus`` checks after the test
        that no child is left."""
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        solo = verify(9)
        solo_class = list(reducible_class(8, 3).items())
        monkeypatch.setattr(oracle, "_BLOCKS", {})
        forks = _count_calls(monkeypatch, oracle.os, "fork")
        calls = _count_calls(monkeypatch, oracle, "realize")
        sent = []
        loads = oracle.marshal.loads
        monkeypatch.setattr(
            oracle.marshal, "loads", lambda data: sent.append(loads(data)) or sent[-1]
        )
        assert verify(9, workers=3) == solo
        assert forks == [2]
        assert calls == [63]
        assert [len(share) for share in sent] == [62, 62]
        monkeypatch.setattr(oracle, "_BLOCKS", {})
        assert list(reducible_class(8, 3, workers=3).items()) == solo_class
        assert forks == [4]

    def test_worker_failure_raises_in_the_parent(
        self, monkeypatch, capfd, fresh_tables, eager_split
    ):
        """A ``_block_entry`` that raises on a recipe the forked worker owns
        makes the class search raise in the parent, once the worker is
        reaped; the worker prints its traceback, and no table is kept."""
        parent = os.getpid()
        entry = oracle._block_entry

        def failing(rep):
            if os.getpid() != parent:
                raise UnexpectedClass("raised in the worker")
            return entry(rep)

        monkeypatch.setattr(oracle, "_block_entry", failing)
        with pytest.raises(RuntimeError, match="exited with status 1"):
            reducible_class(8, 3, workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert "UnexpectedClass: raised in the worker" in capfd.readouterr().err
        assert oracle._BLOCKS == {}

    def test_parent_failure_kills_and_reaps_the_worker(
        self, monkeypatch, fresh_tables, eager_split
    ):
        """A ``_block_entry`` that raises on a recipe the parent owns kills
        and reaps the forked worker before the error propagates.  The
        worker's own share would take a minute, so only the kill ends it in
        time."""
        parent = os.getpid()

        def failing(rep):
            if os.getpid() == parent:
                raise UnexpectedClass("raised in the parent")
            time.sleep(60)

        reaped = []
        waitpid = os.waitpid

        def recorded(pid, options):
            done = waitpid(pid, options)
            reaped.append(done)
            return done

        monkeypatch.setattr(oracle, "_block_entry", failing)
        monkeypatch.setattr(oracle.os, "waitpid", recorded)
        start = time.monotonic()
        with pytest.raises(UnexpectedClass, match="raised in the parent"):
            reducible_class(8, 3, workers=2)
        assert time.monotonic() - start < 30
        [(pid, status)] = reaped
        assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
        with pytest.raises(ChildProcessError):
            waitpid(-1, os.WNOHANG)
        assert oracle._BLOCKS == {}


def test_certificates_decode_to_members():
    for cert in enumerate_by_reducible(6, 3):
        lat = as_lattice(decode_certificate(cert))
        assert is_dismantlable(lat)
        assert len(classify_elements(lat).red) == 3


@pytest.mark.parametrize(
    "value, field",
    [
        (Certificate(b"\x01"), "data"),
        (CoverDigraph(1, ()), "covers"),
        (chain(2), "top"),
        (VerifyRecord(1, "x", 1, 1, True), "ok"),
    ],
)
def test_value_fields_are_read_only(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_verify_record_repr():
    assert repr(VerifyRecord(1, "x", 1, 1, True)) == (
        "VerifyRecord(n=1, name='x', formula=1, oracle=1, ok=True, witness=None)"
    )
