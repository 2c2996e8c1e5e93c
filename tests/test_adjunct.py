import random

import pytest

from latcount import oracle, search
from latcount.adjunct import (
    AdjunctPair,
    AdjunctRep,
    IncomparableReducibles,
    PairIsCover,
    PairNotComparable,
    adjunct_sum,
    decompose,
    direct_sum,
    pair_multiplicity,
    realize,
)
from latcount.canon import canonical_certificate as cert, decode_certificate
from latcount.poset import (
    LatticeError,
    as_lattice,
    build_poset,
    chain,
    classify_elements,
    nullity,
    relabel,
)
from latcount.reduction import f1, f3, f4, m2
from test_poset import CUBE_COVERS


class TestAdjunctSum:
    def test_three_chain_plus_point_is_diamond(self):
        glued = adjunct_sum(chain(3), chain(1), 0, 2)
        assert cert(glued.digraph) == cert(m2().digraph)

    def test_edge_law(self):
        for l1, l2, a, b in [
            (chain(3), chain(1), 0, 2),
            (chain(4), chain(2), 0, 3),
            (m2(), chain(1), 0, 3),
            (f1(), chain(2), 0, 5),
        ]:
            glued = adjunct_sum(l1, l2, a, b)
            assert len(glued.covers) == len(l1.covers) + len(l2.covers) + 2

    def test_cover_pair_rejected(self):
        with pytest.raises(PairIsCover):
            adjunct_sum(chain(3), chain(1), 0, 1)

    def test_incomparable_pair_rejected(self):
        with pytest.raises(PairNotComparable):
            adjunct_sum(m2(), chain(1), 1, 2)

    def test_pair_outside_the_host_rejected(self):
        outside = r"pair \(0, 9\) outside of the host lattice"
        with pytest.raises(PairNotComparable, match=outside):
            adjunct_sum(m2(), m2(), 0, 9)

    def test_red_membership_of_bystanders_unchanged(self):
        # gluing at (a, b) may make a and b reducible but never flips the
        # status of any other host element
        host = f3()
        before = classify_elements(host).red
        glued = adjunct_sum(host, chain(2), 0, 6)
        after = classify_elements(glued).red
        for x in range(host.n):
            if x not in (0, 6):
                assert (x in before) == (x in after)


class TestDirectSum:
    def test_chains_concatenate(self):
        total = as_lattice(direct_sum(chain(2).digraph, chain(2).digraph))
        assert cert(total.digraph) == cert(chain(4).digraph)

    def test_diamond_plus_point_classification(self):
        lifted = as_lattice(direct_sum(m2().digraph, chain(1).digraph))
        assert classify_elements(lifted).red == frozenset({0, 3})

    def test_edge_law(self):
        for a, b in [(m2(), chain(3)), (f1(), m2()), (chain(1), f3())]:
            s = direct_sum(a.digraph, b.digraph)
            assert len(s.covers) == len(a.covers) + len(b.covers) + 1


class TestRealize:
    def test_f1_recipe(self):
        rep = AdjunctRep((4, 1, 1), (AdjunctPair(1, 3), AdjunctPair(0, 3)))
        assert cert(realize(rep).digraph) == cert(f1().digraph)

    def test_spine_only(self):
        rep = AdjunctRep((5,), ())
        assert cert(realize(rep).digraph) == cert(chain(5).digraph)

    def test_repeated_pair_builds_nullity(self):
        for r in range(1, 5):
            rep = AdjunctRep((3, *([1] * r)), (AdjunctPair(0, 2),) * r)
            assert nullity(realize(rep).digraph) == r

    def test_bad_attachment_reports_index(self):
        rep = AdjunctRep((3, 1, 1), (AdjunctPair(0, 2), AdjunctPair(5, 6)))
        with pytest.raises(PairNotComparable, match="attachment 1"):
            realize(rep)

    @pytest.mark.parametrize(
        "chains, pairs, error, message",
        [
            ((3, 1, 1), ((0, 2), (5, 6)), PairNotComparable,
             "attachment 1: pair (5, 6) not realized yet"),
            ((3, 1, 1), ((0, 2), (1, 1)), PairNotComparable,
             "attachment 1: need a < b, got (1, 1)"),
            ((4, 1), ((3, 0),), PairNotComparable,
             "attachment 0: need a < b, got (3, 0)"),
            ((3, 1, 1), ((0, 2), (3, 1)), PairNotComparable,
             "attachment 1: need a < b, got (3, 1)"),
            ((3, 1, 1), ((0, 2), (3, 2)), PairIsCover,
             "attachment 1: (3, 2) is a cover; nothing fits in between"),
            ((3, 1), ((0, 1),), PairIsCover,
             "attachment 0: (0, 1) is a cover; nothing fits in between"),
        ],
    )
    def test_error_types_and_messages(self, chains, pairs, error, message):
        rep = AdjunctRep(chains, tuple(AdjunctPair(a, b) for a, b in pairs))
        with pytest.raises(LatticeError) as exc:
            realize(rep)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_equals_adjunct_sum_fold(self):
        """One build of all attachments gives the lattice that gluing the
        chains one adjunct sum at a time gives, on every block recipe and on
        recipes that glue onto chains glued before."""
        nested = [
            AdjunctRep((4, 1, 1), (AdjunctPair(1, 3), AdjunctPair(0, 4))),
            AdjunctRep((3, 2, 1), (AdjunctPair(0, 2), AdjunctPair(3, 2))),
            AdjunctRep((3, 3, 1), (AdjunctPair(0, 2), AdjunctPair(3, 5))),
            AdjunctRep((5, 2, 1, 1), (AdjunctPair(1, 3), AdjunctPair(0, 6), AdjunctPair(5, 4))),
        ]
        recipes = [
            rep
            for m in range(1, 11)
            for r in (2, 3)
            for rep, _ in oracle._block_reps(m, r)
        ]
        assert len(recipes) == 443
        for rep in recipes + nested:
            folded = chain(rep.chains[0])
            for length, pair in zip(rep.chains[1:], rep.pairs):
                folded = adjunct_sum(folded, chain(length), pair.a, pair.b)
            assert realize(rep) == folded, rep


class TestPairMultiplicity:
    def test_diamond(self):
        assert pair_multiplicity(m2(), 0, 3) == 1

    def test_chain_pairs_are_never_adjunct(self):
        l = chain(5)
        assert pair_multiplicity(l, 0, 4) == 0
        assert pair_multiplicity(l, 1, 3) == 0

    def test_f3_pairs(self):
        l = f3()
        assert pair_multiplicity(l, 0, 3) == 1
        assert pair_multiplicity(l, 3, 6) == 1
        assert pair_multiplicity(l, 0, 6) == 0

    def test_multiplicity_scales_with_parallel_chains(self):
        rep = AdjunctRep((3, 1, 1, 1), (AdjunctPair(0, 2),) * 3)
        assert pair_multiplicity(realize(rep), 0, 2) == 3


class TestDecompose:
    def test_chain_has_no_pairs(self):
        rep = decompose(chain(4))
        assert rep == AdjunctRep((4,), ())

    def test_diamond(self):
        rep = decompose(m2())
        assert rep == AdjunctRep((3, 1), (AdjunctPair(0, 2),))

    def test_f4_uses_all_three_pairs(self):
        rep = decompose(f4())
        assert sorted((p.a, p.b) for p in rep.pairs) == [(0, 2), (0, 4), (2, 4)]

    def test_incomparable_reducibles_rejected(self):
        cube = as_lattice(build_poset(8, CUBE_COVERS))
        with pytest.raises(IncomparableReducibles, match="reducible elements 1 and 2"):
            decompose(cube)

    def test_chain_whose_top_has_the_smaller_label(self):
        """The glued chain 4 < 3, whose top has the smaller label, reads as
        the chain 3 < 4 that ``realize`` glued."""
        rep = AdjunctRep((3, 2), (AdjunctPair(0, 2),))
        label = [0, 1, 2, 4, 3]
        covers = [(label[a], label[b]) for a, b in realize(rep).covers]
        lat = as_lattice(build_poset(5, covers))
        assert decompose(lat) == rep

    def test_round_trip_small_classes(self):
        from latcount.oracle import reducible_class

        for n in range(4, 8):
            for r in (2, 3):
                for c in reducible_class(n, r):
                    lat = as_lattice(decode_certificate(c))
                    rep = decompose(lat)
                    assert sum(rep.chains) == lat.n
                    assert cert(realize(rep).digraph) == c

    def test_multiplicity_sum_matches_chain_count(self):
        from latcount.oracle import reducible_class

        for lat in (as_lattice(decode_certificate(c)) for c in reducible_class(7, 3)):
            rep = decompose(lat)
            distinct = {(p.a, p.b) for p in rep.pairs}
            realized = realize(rep)  # rep pairs are labels of the realization
            total = sum(pair_multiplicity(realized, a, b) for a, b in distinct)
            assert total == len(rep.chains) - 1


def normal_forms(members, seed: int) -> set[AdjunctRep]:
    """The :func:`decompose` form of each member, given by its certificate,
    asserted unchanged under a seeded random relabeling of the member."""
    rng = random.Random(seed)
    forms = set()
    for c in members:
        digraph = decode_certificate(c)
        form = decompose(as_lattice(digraph))
        perm = rng.sample(range(digraph.n), digraph.n)
        assert decompose(as_lattice(relabel(digraph, perm))) == form, (c, perm)
        forms.add(form)
    return forms


def padded(rep: AdjunctRep, below: int, above: int) -> AdjunctRep:
    """``rep`` with ``below`` elements under its spine and ``above`` over it."""
    return AdjunctRep(
        (below + rep.chains[0] + above, *rep.chains[1:]),
        tuple(AdjunctPair(p.a + below, p.b + below) for p in rep.pairs),
    )


SLOW = pytest.mark.slow


class TestNormalForm:
    """The canonizer checked by a normal form that shares no code with it:
    two members of a class have equal certificates exactly when
    :func:`decompose` gives them equal forms."""

    @pytest.mark.parametrize(
        "n", [*range(1, 11), *(pytest.param(n, marks=SLOW) for n in (11, 12))]
    )
    @pytest.mark.parametrize("r", [2, 3])
    def test_forms_tell_the_constructive_class_apart(self, n, r):
        members = oracle.reducible_class(n, r)
        assert len(normal_forms(members, seed=n * r)) == len(members)

    @pytest.mark.parametrize("n", range(1, search.FULL_SEARCH_LIMIT + 1))
    def test_forms_tell_the_search_classes_apart(self, n):
        for r in (2, 3):
            members = search.census(n).classes.get(r, frozenset())
            assert len(normal_forms(members, seed=n + r)) == len(members)

    @pytest.mark.parametrize(
        "r, m_max",
        [(2, 11), (3, 11), (4, 10), (5, 9),
         pytest.param(4, 11, marks=SLOW), pytest.param(5, 11, marks=SLOW)],
    )
    def test_reads_back_every_recipe(self, r, m_max):
        """``decompose(realize(rep)) == rep`` for every block recipe with r
        reducibles on at most m_max elements, as listed and padded."""
        for m in range(1, m_max + 1):
            for rep, _ in oracle._block_reps(m, r):
                for below, above in ((0, 0), (1, 0), (0, 2), (3, 1)):
                    rep_padded = padded(rep, below, above)
                    assert decompose(realize(rep_padded)) == rep_padded


class TestAdjunctRep:
    def test_one_pair_per_attached_chain(self):
        with pytest.raises(ValueError, match="one pair per attached chain"):
            AdjunctRep((3, 1), ())

    def test_chain_lengths_positive(self):
        with pytest.raises(ValueError, match="chain lengths must be positive"):
            AdjunctRep((3, 0), (AdjunctPair(0, 2),))

    def test_replace_checks_too(self):
        rep = AdjunctRep((3, 1), (AdjunctPair(0, 2),))
        assert rep._replace(chains=(3, 2)) == AdjunctRep((3, 2), rep.pairs)
        with pytest.raises(ValueError, match="chain lengths must be positive"):
            rep._replace(chains=(3, 0))
        with pytest.raises(ValueError, match="one pair per attached chain"):
            AdjunctRep._make(((3,), rep.pairs))
