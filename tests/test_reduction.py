import hashlib
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from latcount import oracle, reduction
from latcount.adjunct import AdjunctPair, AdjunctRep, direct_sum, realize
from latcount.canon import canonical_certificate as cert, decode_certificate
from latcount.oracle import reducible_class
from latcount.poset import (
    as_lattice,
    build_poset,
    chain,
    classify_elements,
    is_dismantlable,
    nullity,
    poset_classification,
    relabel,
)
from latcount.reduction import (
    FbbClass,
    NotDoublyIrreducible,
    UnexpectedClass,
    basic_block_of,
    basic_block_with_map,
    basic_retract,
    basic_retract_with_map,
    classify_fbb,
    f1,
    f2,
    f3,
    f4,
    fundamental_basic_block_of,
    is_retractible,
    m2,
)
from class_reference import reference_blocks, reference_class
from search_reference import reference_lattices, search_lattices


def subdivided_diamond():
    """The diamond with one side split by an extra middle element."""
    return as_lattice(build_poset(5, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)]))


def stacked_diamonds_with_bridge():
    """Diamond, a single bridge element, then another diamond."""
    d = direct_sum(m2().digraph, chain(1).digraph)
    return as_lattice(direct_sum(d, m2().digraph))


class TestRetractible:
    def test_chain_ends_satisfy_the_unsandwiched_condition(self):
        assert is_retractible(chain(3).digraph, 0)
        assert is_retractible(chain(3).digraph, 2)

    def test_unique_path_between_reducibles_retracts(self):
        l = stacked_diamonds_with_bridge()
        assert is_retractible(l.digraph, 4)

    def test_parallel_path_blocks_retraction(self):
        tailed = as_lattice(build_poset(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]))
        assert not is_retractible(tailed.digraph, 2)
        assert not is_retractible(tailed.digraph, 3)

    def test_reducible_element_rejected(self):
        with pytest.raises(NotDoublyIrreducible):
            is_retractible(m2().digraph, 0)


class TestBasicRetract:
    def test_chain_stops_at_two_elements(self):
        # endpoints lack one cover each, so only the interior retracts
        assert basic_retract(chain(5).digraph).n == 2

    def test_subdivided_diamond_recovers_diamond(self):
        out = basic_retract(subdivided_diamond().digraph)
        assert cert(out) == cert(m2().digraph)
        assert nullity(out) == 1

    def test_f1_is_a_fixed_point(self):
        out = basic_retract(f1().digraph)
        assert cert(out) == cert(f1().digraph)

    def test_red_preserved_through_label_map(self):
        for l in (subdivided_diamond(), stacked_diamonds_with_bridge(), f4()):
            out, labels = basic_retract_with_map(l.digraph)
            mapped = {labels[x] for x in poset_classification(out).red}
            assert mapped == set(classify_elements(l).red)


class TestBasicBlock:
    def test_chain_collapses_to_a_point(self):
        assert basic_block_of(chain(5).digraph).n == 1

    def test_padding_chains_fall_away(self):
        padded = direct_sum(chain(2).digraph, m2().digraph)
        padded = direct_sum(padded, chain(3).digraph)
        assert cert(basic_block_of(padded)) == cert(m2().digraph)

    def test_f4_is_a_fixed_point(self):
        assert cert(basic_block_of(f4().digraph)) == cert(f4().digraph)

    def test_idempotent(self):
        for l in (chain(6), subdivided_diamond(), f3(), stacked_diamonds_with_bridge()):
            once = basic_block_of(l.digraph)
            assert cert(basic_block_of(once)) == cert(once)

    def test_nullity_drop_property(self):
        # removing any doubly irreducible element of a computed basic block
        # lowers the nullity by exactly one
        from latcount.poset import induced_subposet

        for l in (m2(), f1(), f4(), stacked_diamonds_with_bridge()):
            block = basic_block_of(l.digraph)
            for x in poset_classification(block).irr:
                smaller = induced_subposet(block, set(range(block.n)) - {x})
                assert nullity(smaller) == nullity(block) - 1


class TestFundamentalBasicBlock:
    def test_two_reducible_always_gives_diamond(self):
        rep = AdjunctRep((4, 2, 1), (AdjunctPair(0, 3), AdjunctPair(0, 3)))
        lat = realize(rep)
        assert cert(fundamental_basic_block_of(lat).digraph) == cert(m2().digraph)

    def test_duplicated_ear_trims_to_f3(self):
        rep = AdjunctRep(
            (5, 1, 1, 1),
            (AdjunctPair(0, 2), AdjunctPair(2, 4), AdjunctPair(2, 4)),
        )
        out = fundamental_basic_block_of(realize(rep))
        assert cert(out.digraph) == cert(f3().digraph)

    def test_f1_already_fundamental(self):
        assert cert(fundamental_basic_block_of(f1()).digraph) == cert(f1().digraph)

    def test_idempotent(self):
        for lat in (f1(), f2(), f3(), f4()):
            once = fundamental_basic_block_of(lat)
            again = fundamental_basic_block_of(once)
            assert cert(again.digraph) == cert(once.digraph)


class TestClassify:
    def test_fixed_points(self):
        assert classify_fbb(f1()) is FbbClass.F1
        assert classify_fbb(f2()) is FbbClass.F2
        assert classify_fbb(f3()) is FbbClass.F3
        assert classify_fbb(f4()) is FbbClass.F4
        assert classify_fbb(m2()) is FbbClass.M2
        # the document schema's "fbb" values, besides null
        assert {c.value for c in FbbClass} == {"F1", "F2", "F3", "F4", "M2"}

    def test_elongated_f1_recipe(self):
        rep = AdjunctRep((6, 2, 1), (AdjunctPair(1, 5), AdjunctPair(0, 5)))
        assert classify_fbb(realize(rep)) is FbbClass.F1

    def test_f4_family_member(self):
        rep = AdjunctRep(
            (5, 1, 1, 2),
            (AdjunctPair(0, 2), AdjunctPair(2, 4), AdjunctPair(0, 4)),
        )
        assert classify_fbb(realize(rep)) is FbbClass.F4

    def test_wrong_reducible_count_rejected(self):
        with pytest.raises(ValueError):
            classify_fbb(chain(4))

    def test_invariant_under_relabeling(self):
        rng = random.Random(20240615)
        for lat in (f1(), f3(), f4(), realize(AdjunctRep((4, 1, 2), (AdjunctPair(0, 3), AdjunctPair(0, 3))))):
            tag = classify_fbb(lat)
            for _ in range(3):
                perm = list(range(lat.n))
                rng.shuffle(perm)
                assert classify_fbb(as_lattice(relabel(lat.digraph, perm))) is tag


def _uncached_class(lat):
    """The F-class by canonicalizing the fundamental basic block each time."""
    return reduction._REFERENCE[cert(fundamental_basic_block_of(lat).digraph)]


class TestClassMemo:
    """``classify_fbb`` remembers the class of each labelled fundamental
    basic block; each test starts from an empty memo."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(reduction, "_FBB_CLASSES", {})

    def test_matches_uncached_lookup_on_search_lattices(self):
        checked = 0
        for n in range(1, 9):
            for lat in search_lattices(n).values():
                if len(classify_elements(lat).red) in (2, 3):
                    assert classify_fbb(lat) is _uncached_class(lat), n
                    checked += 1
        assert checked == 169  # every 2- and 3-reducible lattice, n <= 8
        assert reduction._FBB_CLASSES  # the lookups above went through the memo

    def test_matches_uncached_lookup_on_blocks(self):
        checked = 0
        for m in range(4, 11):
            for r in (2, 3):
                for block in reference_blocks(m, r).values():
                    assert classify_fbb(block) is _uncached_class(block)
                    checked += 1
        assert checked == 443

    def test_unrecognized_block_is_never_stored(self, monkeypatch):
        reference = {c: t for c, t in reduction._REFERENCE.items() if t is not FbbClass.F4}
        monkeypatch.setattr(reduction, "_REFERENCE", reference)
        for _ in range(2):
            with pytest.raises(UnexpectedClass):
                classify_fbb(f4())
        assert reduction._FBB_CLASSES == {}


@cache
def three_reducible_members(n):
    return [as_lattice(decode_certificate(c)) for c in sorted(reducible_class(n, 3))]


@settings(deadline=None, max_examples=250)
@given(st.data())
def test_reduction_invariant_under_relabeling_of_class_members(data):
    # victims are picked by smallest label, so the result must not depend on
    # which labels the input happens to carry
    n = data.draw(st.integers(6, 8), label="n")
    lat = data.draw(st.sampled_from(three_reducible_members(n)), label="member")
    perm = data.draw(st.permutations(range(n)), label="perm")
    shuffled = as_lattice(relabel(lat.digraph, perm))
    assert classify_fbb(shuffled) is classify_fbb(lat)
    assert cert(basic_block_of(shuffled.digraph)) == cert(basic_block_of(lat.digraph))


def _reduction_line(cert, lat):
    """Everything the reduction layer says about one lattice, labels included."""
    d = lat.digraph
    tag = fbb_covers = None
    if len(classify_elements(lat).red) in (2, 3):
        tag = classify_fbb(lat).value
        fbb_covers = fundamental_basic_block_of(lat).covers
    return repr(
        (
            cert.data.hex(),
            tag,
            basic_retract_with_map(d),
            basic_block_with_map(d),
            fbb_covers,
            is_dismantlable(lat),
        )
    )


def _class_lattices(r):
    return [
        kv for n in range(1, 10) for kv in sorted(reference_class(n, r).items())
    ]


# sha256 of the newline-joined lines of every member, recorded before the
# reduction layer moved onto in-place deletion from cover rows; the census
# lattices are labelled as the search built them while it kept the first
# child per certificate
REDUCTION_PINS = {
    "census": (
        lambda: [
            kv for n in range(1, 9) for kv in sorted(reference_lattices(n).items())
        ],
        "566a105c2cd83217d3ca0624de2c9bc60a8ff19ef54edb6d1775a420f2753e2d",
    ),
    "r2": (
        lambda: _class_lattices(2),
        "1d76514119da6a6a0153b9b6ad0d79f470d9c3cbb64edebc795af114cd903928",
    ),
    "r3": (
        lambda: _class_lattices(3),
        "0be860229e7759a1f5a1d35e342d029449d18a8359158905979d3f99f8f735bb",
    ),
}


@pytest.mark.parametrize("name", sorted(REDUCTION_PINS))
def test_reduction_outputs_match_pins(name):
    members, digest = REDUCTION_PINS[name]
    text = "\n".join(_reduction_line(cert, lat) for cert, lat in members())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
