import hashlib
import itertools
import math
import pickle
import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from latcount import canon, oracle, search
from latcount.adjunct import AdjunctPair, AdjunctRep, realize
from latcount.canon import (
    Certificate,
    canonical_certificate,
    canonical_digraph,
    canonical_labeling,
    canonical_rank,
    decode_certificate,
    padded_certificate,
)
from latcount.poset import (
    CoverDigraph,
    _bits,
    as_lattice,
    build_poset,
    chain,
    classify_elements,
    dual,
    relabel,
)
from latcount.reduction import f1, f2, f3, f4, m2
import canon_reference
from class_reference import pad, reference_blocks, reference_class
from search_reference import automorphisms, orbits, reference_lattices, search_lattices


def test_all_diamond_relabelings_agree():
    base = canonical_certificate(m2().digraph)
    for perm in itertools.permutations(range(4)):
        assert canonical_certificate(relabel(m2().digraph, perm)) == base


def test_f1_f2_distinct():
    assert canonical_certificate(f1().digraph) != canonical_certificate(f2().digraph)


def test_f2_is_dual_of_f1():
    assert canonical_certificate(dual(f1().digraph)) == canonical_certificate(
        f2().digraph
    )


def test_same_size_different_shape():
    five = chain(5)
    bumped = build_poset(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    assert canonical_certificate(five.digraph) != canonical_certificate(bumped)


def atoms(k):
    """M_k: k atoms between a bottom and a top."""
    middle = range(1, k + 1)
    return build_poset(k + 2, [(0, a) for a in middle] + [(a, k + 1) for a in middle])


def bundles(low, high, outer):
    """A 3-reducible block bottom < mid < top (labels 0, low[0] + 1, top)
    with parallel chains of the given sizes between bottom and mid, mid and
    top, and bottom and top."""
    mid = low[0] + 1
    top = mid + high[0] + 1
    pairs = (
        [AdjunctPair(0, mid)] * (len(low) - 1)
        + [AdjunctPair(mid, top)] * (len(high) - 1)
        + [AdjunctPair(0, top)] * len(outer)
    )
    chains = (top + 1, *low[1:], *high[1:], *outer)
    block = realize(AdjunctRep(chains, tuple(pairs)))
    assert len(classify_elements(block).red) == 3
    return block.digraph


# Digraphs with large automorphism groups, so that the canonizer finds equal
# leaves and skips branches.
SYMMETRIC = [atoms(k) for k in range(3, 7)] + [
    bundles((2, 2, 2), (1, 1), ()),  # F3 shape, three equal low chains
    bundles((1, 1, 1), (0,), (2, 2, 2)),  # F1 shape, three equal outer chains
    bundles((1, 1, 1), (1, 1, 1), (1, 1, 1)),  # F4 shape, three of each
    bundles((1, 1, 1, 1), (2, 2, 2), ()),  # F3 shape, four and three equal chains
]


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_random_relabeling_invariance(data):
    lat = data.draw(
        st.sampled_from([chain(6).digraph, m2().digraph, f1().digraph,
                         f3().digraph, f4().digraph, *SYMMETRIC])
    )
    perm = data.draw(st.permutations(range(lat.n)))
    moved = relabel(lat, perm)
    assert canonical_certificate(moved) == canonical_certificate(lat)
    assert canonical_digraph(moved) == canonical_digraph(lat)


def crowns(*sizes):
    """Disjoint crowns: the k-crown has minimal x_i and maximal y_i with
    x_i < y_i and x_i < y_(i+1 mod k)."""
    covers = []
    n = 0
    for k in sizes:
        for i in range(k):
            covers += [(n + i, n + k + i), (n + i, n + k + (i + 1) % k)]
        n += 2 * k
    return build_poset(n, covers)


def test_crown_unions_relabeling_invariance():
    """Colour refinement cannot tell the vertices of different crowns apart,
    so the search meets leaves with unequal rows, and automorphisms that
    move the individualized prefix; neither may prune a branch."""
    shuffle = random.Random(0).shuffle
    for digraph in (crowns(2, 3), crowns(2, 3, 3)):
        cert = canonical_certificate(digraph)
        form = canonical_digraph(digraph)
        for _ in range(40):
            perm = list(range(digraph.n))
            shuffle(perm)
            moved = relabel(digraph, perm)
            assert canonical_certificate(moved) == cert
            assert canonical_digraph(moved) == form


def test_certificate_decodes_to_isomorphic_digraph():
    for lat in (chain(4), m2(), f3(), f4()):
        cert = canonical_certificate(lat.digraph)
        rebuilt = decode_certificate(cert)
        assert canonical_certificate(rebuilt) == cert


@pytest.mark.parametrize("r", [2, 3])
def test_padded_certificate_equals_canonical(r):
    """Padding a block with chains below and above pads its certificate:
    every block on m <= 10 elements, every padding to n <= 11."""
    checked = 0
    for m in range(1, 11):
        for cert, block in reference_blocks(m, r).items():
            perm = canonical_labeling(block.digraph)
            assert (perm[0], perm[-1]) == (block.bottom, block.top)
            for below, above in itertools.product(range(12 - m), repeat=2):
                if m + below + above > 11:
                    continue
                padded = pad(block, below, above)
                assert padded_certificate(cert, below, above) == canonical_certificate(
                    padded.digraph
                ), (cert, below, above)
                checked += 1
    assert checked == {2: 513, 3: 1882}[r]


def test_padded_certificate_of_small_lattices():
    for lat in (chain(1), chain(2), m2()):
        cert = canonical_certificate(lat.digraph)
        assert padded_certificate(cert, 0, 0) == cert
        for below, above in ((1, 0), (0, 1), (2, 3)):
            padded = pad(lat, below, above)
            assert padded_certificate(cert, below, above) == canonical_certificate(
                padded.digraph
            )
    assert padded_certificate(canonical_certificate(chain(1).digraph), 2, 1) == (
        canonical_certificate(chain(4).digraph)
    )


def test_canonical_labeling_is_permutation():
    perm = canonical_labeling(f4().digraph)
    assert sorted(perm) == list(range(8))


def test_canonical_form_is_linear_extension():
    for lat in (m2(), f1(), f2(), f3(), f4()):
        canon = canonical_digraph(lat.digraph)
        assert all(a < b for a, b in canon.covers)
        as_lattice(canon)  # stays a valid lattice


def swap_leaf_off(monkeypatch):
    """Switch off the shortcut that reads a bundle's one leaf off its chain
    swaps, so that every non-discrete colouring is searched."""
    monkeypatch.setattr(canon, "_swap_leaf", lambda n, dns, colors, swaps: None)


def test_pruning_skips_symmetric_branches(monkeypatch):
    """Without pruning the search on M_6 visits 6! leaves, one per order of
    its atoms, and more nodes still.  Nodes are counted as
    individualizations: each atom's one cover is alone in its cell, so
    none of them refines.  The atoms are one bundle, whose one leaf the
    swaps give without a search, so the shortcut is off."""
    swap_leaf_off(monkeypatch)
    nodes = 0
    individualize = canon._individualize

    def counted(*args):
        nonlocal nodes
        nodes += 1
        return individualize(*args)

    monkeypatch.setattr(canon, "_individualize", counted)
    canonical_certificate(atoms(6))
    assert nodes < math.factorial(6)


def test_found_automorphisms_generate_the_whole_group():
    """The automorphisms a canonicalization finds have the vertex orbits of
    the whole group, which brute force lists, on every search lattice with
    n <= 7 and every block with m <= 9."""
    digraphs = [
        lat.digraph for n in range(1, 8) for lat in search_lattices(n).values()
    ]
    for m in range(4, 10):
        for r in (2, 3):
            digraphs += [block.digraph for block in reference_blocks(m, r).values()]
    for d in digraphs:
        up = d.up_adjacency()
        _, _, found = canon._certificate(d.n, up)
        assert orbits(d.n, found) == orbits(d.n, automorphisms(d.n, up)), d.covers


def _certs(certs) -> bytes:
    return b"".join(c.data for c in sorted(certs))


def _block_certs(m, r):
    return _certs(c for stratum in oracle.block_census(m, r).values() for c in stratum)


def _canonical_covers(n):
    members = sorted(reference_class(n, 3).items())
    text = "".join(repr(canonical_digraph(lat.digraph).covers) for _, lat in members)
    return text.encode()


def _labelings(n):
    """Canonical labelings of the n-element lattices (n <= 8) as the search
    built them while it kept the first child per certificate, and of the
    blocks on n elements as their recipes realize them, stratum by stratum
    of ``block_census`` in the order the strata first appear."""
    lattices = sorted(reference_lattices(n).items()) if n <= 8 else []
    digraphs = [lat.digraph for _, lat in lattices]
    for r in (2, 3):
        blocks = reference_blocks(n, r)
        for stratum in oracle.block_census(n, r).values():
            digraphs += [blocks[cert].digraph for cert in sorted(stratum)]
    return b"".join(bytes(canonical_labeling(d)) for d in digraphs)


# name: (bytes for one size, largest size, sha256 of the bytes for sizes
# 1..largest).  Recorded before the canonizer pruned symmetric branches;
# pruning must not move a single byte of a certificate or a labeling.  The
# labelings were recorded before the neighbour rows were precomputed.
PINS = {
    "census": (
        lambda n: _certs(search.enumerate_all_lattices(n)),
        8,
        "b0abd87286f3bb9d0f941fff49ba98b0d3e3766eaf78cba161f2ae41218bd64c",
    ),
    "class r2": (
        lambda n: _certs(oracle.reducible_class(n, 2)),
        9,
        "a2e4f882aa6f88019759999621f5bcf683b4fdcf206edd485c4fee7d330b6f7e",
    ),
    "class r3": (
        lambda n: _certs(oracle.reducible_class(n, 3)),
        9,
        "cf07d6142a386fe07fc4ca3da65dfff8d31372caec7aa34c9cd0c816b45a0aed",
    ),
    "blocks r2": (
        lambda m: _block_certs(m, 2),
        9,
        "5b5b2bdbb2a5c4226c4c1f3ec00a8b0b7b7c3dd204862bc60691099151f83287",
    ),
    "blocks r3": (
        lambda m: _block_certs(m, 3),
        9,
        "17ee6c378d83cd90cf0da9dcffa9bf209a5324ca5e87f0807211806e55bf86b3",
    ),
    "digraphs": (
        _canonical_covers,
        9,
        "c67ef0df1204764a2a66cd77d1074ef0f6dc2bb630081a8bfc399930ced6f7ac",
    ),
    "labelings": (
        _labelings,
        10,
        "1aa60d8435a591f5897caaaaf6d5f913503d6fec73539df1b2a7d16f4a65b84a",
    ),
}


@pytest.mark.parametrize("name", PINS)
def test_certificates_are_pinned(name):
    part, largest, digest = PINS[name]
    data = b"".join(part(n) for n in range(1, largest + 1))
    assert hashlib.sha256(data).hexdigest() == digest


def _reference_refine(n, ups, dns, colors):
    """Colour refinement as it ranked every vertex in every round, before
    singleton cells were skipped: the reference for ``canon._refine``."""
    distinct = len(set(colors))
    while True:
        sigs = [
            (
                colors[v],
                tuple(sorted([colors[w] for w in ups[v]])),
                tuple(sorted([colors[w] for w in dns[v]])),
            )
            for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [ranking[s] for s in sigs]
        if len(ranking) == distinct:
            return colors
        distinct = len(ranking)


def test_refine_matches_reference_on_search_and_block_inputs(monkeypatch, fresh_tables):
    """Every colouring refined while ``census(8)``, search level 8 and the
    block tables for m <= 12 are built from scratch gets the reference's
    colours."""
    refine = canon._refine
    seen = 0

    def checked(n, ups, dns, colors):
        nonlocal seen
        seen += 1
        out = refine(n, ups, dns, colors)
        assert out == _reference_refine(n, ups, dns, colors), (ups, colors)
        return out

    monkeypatch.setattr(canon, "_refine", checked)
    assert search.census(8).total() == 222
    assert len(search._level(8)) == 1078  # the 9-element lattices
    for m in range(4, 13):
        for r in (2, 3):
            oracle.block_census(m, r)
    # 3,924 when written (census(7), m <= 10); the chain swaps cut that
    # input to 1,388, so the sizes grew to keep the coverage: 3,506.  The
    # canonizer's two shortcuts refine no discrete seed colouring and no
    # individualization that splits nothing, which cut census(8) and m <= 11
    # to 1,561, so level 8 and m = 12 joined: 4,280
    assert seen > 3000


def random_poset(rng, n, density):
    """A random poset on n elements, 0..n-1 a linear extension, as its
    cover digraph."""
    below = [0] * n
    for b in range(n):
        for a in range(b):
            if rng.random() < density:
                below[b] |= (1 << a) | below[a]
    covers = [
        (a, b)
        for b in range(n)
        for a in range(b)
        if below[b] >> a & 1
        and not any(below[b] >> c & 1 and below[c] >> a & 1 for c in range(a + 1, b))
    ]
    return build_poset(n, covers)


def disjoint_copies(d, k):
    """``k`` disjoint copies of the cover digraph ``d``."""
    return build_poset(
        d.n * k, [(a + i * d.n, b + i * d.n) for i in range(k) for a, b in d.covers]
    )


def _general_digraphs():
    """Cover digraphs that are not lattices: antichains, crowns and unions
    of crowns, and seeded random posets, most with several minimal
    elements of one seed colour."""
    digraphs = [build_poset(n, []) for n in range(1, 7)]
    digraphs += [crowns(*s) for s in ((2,), (3,), (4,), (2, 3), (2, 3, 3))]
    rng = random.Random(20261018)
    digraphs += [
        random_poset(rng, rng.randint(2, 10), rng.random() * 0.6) for _ in range(400)
    ]
    return digraphs


def test_refine_matches_reference_on_general_digraphs(monkeypatch):
    """Antichains, crowns and random posets: their colour cell 0 often holds
    several minimal vertices, which the search individualizes."""
    refine = canon._refine
    seen = 0

    def checked(n, ups, dns, colors):
        nonlocal seen
        seen += 1
        assert min(colors) >= 0
        out = refine(n, ups, dns, colors)
        assert out == _reference_refine(n, ups, dns, colors), (ups, colors)
        return out

    monkeypatch.setattr(canon, "_refine", checked)
    assert canonical_certificate(build_poset(2, [])) == canon.Certificate(
        b"\x00\x02\x00\x00"
    )
    for digraph in _general_digraphs():
        canonical_certificate(digraph)
    # 3,430 refinements when the general digraphs alone were the input; the
    # canonizer's shortcuts cut that to 600, so two disjoint copies of each
    # of 300 random posets joined: refinement cannot tell the copies apart,
    # and individualizing a vertex splits the cells of its covers (2,247)
    rng = random.Random(20261019)
    for _ in range(300):
        d = random_poset(rng, rng.randint(3, 6), rng.random() * 0.6)
        canonical_certificate(disjoint_copies(d, 2))
    assert seen > 2000


def test_general_digraphs_are_pinned():
    """Rows and labelings of non-lattice cover digraphs, recorded while
    refinement still ranked every vertex in every round; every labeling is
    a linear extension."""
    digest = hashlib.sha256()
    for digraph in _general_digraphs():
        rows, perm, _ = canon._canonical(digraph.n, digraph.up_adjacency())
        rank = {old: pos for pos, old in enumerate(perm)}
        assert all(rank[a] < rank[b] for a, b in digraph.covers)
        digest.update(repr((rows, perm)).encode())
    assert digest.hexdigest() == (
        "ed5284693df95d788c7e1787677b62fa2fe4021021042f3c24af0db694d54f6c"
    )


def test_refine_matches_reference_on_random_colourings():
    """Random digraphs, coloured with gaps and repeats, and split the way
    the search individualizes a vertex of a refined colouring."""
    rng = random.Random(20261018)
    for _ in range(2000):
        n = rng.randint(1, 12)
        density = rng.random()
        up = [
            sum(1 << j for j in range(i + 1, n) if rng.random() < density)
            for i in range(n)
        ]
        ups, dns = canon._neighbours(up)
        colors = [rng.randrange(2 * rng.randint(1, n)) for _ in range(n)]
        refined = canon._refine(n, ups, dns, colors)
        assert refined == _reference_refine(n, ups, dns, colors), (up, colors)
        split = [2 * c + 1 for c in refined]
        split[rng.randrange(n)] -= 1
        assert canon._refine(n, ups, dns, split) == _reference_refine(
            n, ups, dns, split
        ), (up, split)


def test_certificates_order_and_hash_as_their_bytes():
    certs = [c for n in range(1, 7) for c in search_lattices(n)]
    assert sorted(certs) == sorted(certs, key=lambda c: c.data)
    for c in certs:
        twin = Certificate(bytes(bytearray(c.data)))  # a distinct bytes object
        assert twin == c and hash(twin) == hash(c)


def test_class_table_survives_pickle():
    """A class table pickles to an equal table, in the same order, for a
    caller that sends it between processes.  The package pickles nothing:
    its forked workers send certificate bytes and class values through
    ``marshal``."""
    table = oracle.reducible_class(8, 3)
    copy = pickle.loads(pickle.dumps(table))
    assert list(copy.items()) == list(table.items())
    assert all(type(c) is Certificate for c in copy)


def _swaps(d):
    return canon._chain_swaps(d.n, *canon._neighbours(d.up_adjacency()))


def _seed_inputs():
    """Every block digraph with m <= 10, every lattice of the search levels
    <= 7 (n <= 8), the non-lattice digraphs and the symmetric ones above,
    each as built and under a random relabeling."""
    digraphs = [
        block.digraph
        for m in range(1, 11)
        for r in (2, 3)
        for block in reference_blocks(m, r).values()
    ]
    digraphs += [
        lat.digraph for n in range(1, 9) for lat in search_lattices(n).values()
    ]
    digraphs += _general_digraphs() + SYMMETRIC
    rng = random.Random(20261019)
    moved = []
    for d in digraphs:
        perm = list(range(d.n))
        rng.shuffle(perm)
        moved.append(relabel(d, perm))
    return digraphs + moved


def test_chain_swaps_are_automorphisms():
    """Every seeded permutation maps the cover set onto itself."""
    seeded = 0
    for d in _seed_inputs():
        covers = set(d.covers)
        for g in _swaps(d):
            assert sorted(g) == list(range(d.n))
            assert {(g[a], g[b]) for a, b in covers} == covers, (d.covers, g)
            seeded += 1
    assert seeded > 2000


def test_chain_swaps_of_bundles():
    """Three bundles of three equal chains give two swaps each; chains of
    one bundle with different lengths are not swapped."""
    assert len(_swaps(bundles((1, 1, 1), (1, 1, 1), (1, 1, 1)))) == 6
    assert len(_swaps(bundles((2, 2, 2), (1, 1), ()))) == 3
    assert len(_swaps(bundles((1, 2, 3), (1, 1), ()))) == 1
    assert len(_swaps(atoms(6))) == 5
    assert _swaps(chain(5).digraph) == []


def test_seeded_search_matches_unseeded(monkeypatch):
    """The chain swaps prune only subtrees whose leaves the unseeded search
    also reaches: the rows and the labeling are those of the search without
    them, and both lists of automorphisms have the same vertex orbits."""
    digraphs = _seed_inputs()
    seeded = [canon._canonical(d.n, d.up_adjacency()) for d in digraphs]
    monkeypatch.setattr(canon, "_chain_swaps", lambda n, ups, dns: [])
    for d, (rows, perm, found) in zip(digraphs, seeded):
        plain_rows, plain_perm, plain_found = canon._canonical(d.n, d.up_adjacency())
        assert (rows, perm) == (plain_rows, plain_perm), d.covers
        assert orbits(d.n, found) == orbits(d.n, plain_found), d.covers


def test_chain_swaps_cut_the_block_table_search(monkeypatch, fresh_tables):
    """Building the r = 3 block tables for m <= 10 from scratch refines
    385 colourings in 385 canonicalizations, one per block, which the swaps
    do not change: each block's seed colouring, and no individualization,
    since every block that is not discrete at its seed has its one leaf
    read off the swaps.  Before that shortcut these were 441 refinements
    (521 without the chain swaps, which switches the shortcut off too), and
    before the canonizer's first two shortcuts 1,060 and 2,822."""
    calls = {"_refine": 0, "_canonical": 0}
    for name in calls:
        original = getattr(canon, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(canon, name, counted)
    for m in range(1, 11):
        oracle._block_table(m, 3)
    assert calls == {"_refine": 385, "_canonical": 385}


def _search_children(top):
    """The (n, up-cover rows) of every child that building search levels
    2..``top`` from scratch canonicalizes."""
    children = []
    certificate = canon._certificate

    def recording(n, up):
        children.append((n, tuple(up)))
        return certificate(n, up)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_LEVELS", {1: search._LEVELS[1]})
        mp.setattr(canon, "_certificate", recording)
        search._level(top)
    return children


def _relabeled(n, up, perm):
    """The up-cover rows ``up`` with vertex ``v`` renamed ``perm[v]``."""
    rows = [0] * n
    for v in range(n):
        rows[perm[v]] = sum(1 << perm[w] for w in _bits(up[v]))
    return tuple(rows)


@cache
def _shortcut_inputs():
    """Every search child of levels <= 7, every block of m <= 11 with r in
    {2, 3} and every general digraph, as (n, up-cover rows), each as built
    and under 3 seeded relabelings; built once per test run."""
    built = _search_children(7)
    built += [
        (block.n, block.digraph.up_adjacency())
        for m in range(1, 12)
        for r in (2, 3)
        for block in reference_blocks(m, r).values()
    ]
    built += [(d.n, d.up_adjacency()) for d in _general_digraphs()]
    rng = random.Random(20261020)
    inputs = []
    for n, up in built:
        inputs.append((n, up))
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            inputs.append((n, _relabeled(n, up, perm)))
    return inputs


def test_canonical_matches_reference():
    """The discrete root, the individualizations that split nothing and the
    single pass for heights and depths change no result: rows, labeling and
    the list of automorphisms equal those of the canonizer without them."""
    inputs = _shortcut_inputs()
    assert len(inputs) == 4 * (303 + 979 + 411)
    for n, up in inputs:
        assert canon._canonical(n, up) == canon_reference._canonical(n, up), up


def test_split_free_individualization_is_refinement(monkeypatch):
    """Every lower cover of an individualized vertex is alone in its cell.
    Wherever every upper cover is too, the colouring ranked without a round
    of refinement is the one ``_refine`` reaches from the split colouring;
    so is every other individualization, which refines.  The search
    individualizes only where no leaf is read off the chain swaps, so that
    shortcut is off."""
    inputs = _shortcut_inputs()  # built before the count starts
    swap_leaf_off(monkeypatch)
    individualize = canon._individualize
    refine = canon._refine
    applied = 0

    def checked(n, ups, dns, colors, cells, v):
        nonlocal applied
        assert all(len(cells[colors[w]]) == 1 for w in dns[v]), (ups, colors, v)
        out = individualize(n, ups, dns, colors, cells, v)
        split = [2 * c + 1 for c in colors]
        split[v] -= 1
        assert out == refine(n, ups, dns, split), (ups, colors, v)
        applied += all(len(cells[colors[w]]) == 1 for w in ups[v])
        return out

    monkeypatch.setattr(canon, "_individualize", checked)
    for n, up in inputs:
        canon._canonical(n, up)
    # 19,023 of the 20,879 individualizations when written
    assert applied > 18000


@pytest.mark.parametrize("n", [8, 9, 16, 17])
def test_decode_round_trips_across_row_widths(n):
    """Rows take one byte up to n = 8, two up to 16 and three at 17: each
    decoded certificate encodes back to its bytes, is the canonical form,
    and lists its covers sorted."""
    rng = random.Random(n)
    digraphs = [
        chain(n).digraph,
        atoms(n - 2),
        build_poset(n, []),
        random_poset(rng, n, 0.3),
        random_poset(rng, n, 0.1),
    ]
    for d in digraphs:
        cert = canonical_certificate(d)
        size, rows = canon._decode(cert)
        assert size == n and canon._encode(n, rows) == cert.data
        rebuilt = decode_certificate(cert)
        assert list(rebuilt.covers) == sorted(rebuilt.covers)
        assert rebuilt == relabel(d, canonical_rank(d)), d.covers
        assert canonical_certificate(rebuilt) == cert


def _recipe_inputs(sizes):
    """Every recipe of ``oracle._block_reps(m, r)`` for r = 2..5 and m in
    ``sizes``, realized, as (name, n, up-cover rows): as built, named
    ``(r, m, i)`` for the i-th recipe, and under a seeded relabeling, named
    ``(r, m, i, "relabeled")``."""
    rng = random.Random(20261022)
    inputs = []
    for r in range(2, 6):
        for m in sizes:
            for i, (rep, _) in enumerate(oracle._block_reps(m, r)):
                d = realize(rep).digraph
                up = d.up_adjacency()
                perm = list(range(d.n))
                rng.shuffle(perm)
                inputs.append(((r, m, i), d.n, up))
                inputs.append(((r, m, i, "relabeled"), d.n, _relabeled(d.n, up, perm)))
    return inputs


def swap_leaf_mismatches(inputs):
    """The names of the ``inputs`` whose rows, labeling or list of
    automorphisms change when the shortcut that reads a bundle's one leaf
    off its chain swaps is switched off."""
    found = [canon._canonical(n, up) for _, n, up in inputs]
    with pytest.MonkeyPatch.context() as mp:
        swap_leaf_off(mp)
        return [
            name
            for (name, n, up), triple in zip(inputs, found)
            if canon._canonical(n, up) != triple
        ]


def test_swap_leaf_is_the_search_leaf():
    """Every recipe for r = 2..5 with m <= 10, as built and relabeled: the
    leaf read off the chain swaps is the one the search reaches, and the
    rows and the automorphisms are the search's too."""
    inputs = _recipe_inputs(range(1, 11))
    assert len(inputs) == 2 * (58 + 385 + 1105 + 803)
    assert swap_leaf_mismatches(inputs) == []


@pytest.mark.slow
def test_swap_leaf_is_the_search_leaf_at_eleven_and_twelve():
    inputs = _recipe_inputs((11, 12))
    assert len(inputs) == 2 * (29 + 41 + 507 + 1021 + 2625 + 7585 + 3866 + 17481)
    assert swap_leaf_mismatches(inputs) == []


def test_swap_leaf_reach(monkeypatch):
    """The one leaf is read off the swaps for every block with m <= 12 that
    is not discrete at its seed: 96 of the 128 blocks with r = 2 and 1,640
    of the 1,913 with r = 3.  Of the 1,403 children that building search
    levels 2..8 canonicalizes, 862 are not discrete at their seed, and 773
    of those have their leaf read off."""
    children = _search_children(8)  # built before the count starts
    read = []  # per colouring that is not discrete: was its leaf read off?
    leaf = canon._swap_leaf

    def counted(*args):
        out = leaf(*args)
        read.append(out is not None)
        return out

    monkeypatch.setattr(canon, "_swap_leaf", counted)
    for r, blocks, hits in ((2, 128, 96), (3, 1913, 1640)):
        read.clear()
        digraphs = [
            realize(rep).digraph for m in range(1, 13) for rep, _ in oracle._block_reps(m, r)
        ]
        for d in digraphs:
            canon._canonical(d.n, d.up_adjacency())
        assert (len(digraphs), len(read), sum(read)) == (blocks, hits, hits), r
    read.clear()
    for n, up in children:
        canon._canonical(n, up)
    assert (len(children), len(read), sum(read)) == (1403, 862, 773)


def test_empty_digraph_round_trips():
    empty = CoverDigraph(0, ())
    cert = canonical_certificate(empty)
    assert cert == Certificate(b"\x00\x00")
    assert canonical_labeling(empty) == canonical_rank(empty) == ()
    assert decode_certificate(cert) == canonical_digraph(empty) == empty


@pytest.mark.parametrize(
    "below, above, message",
    [
        (0, -1, "above must be non-negative, got -1"),
        (0, -2, "above must be non-negative, got -2"),
        (-1, 0, "below must be non-negative, got -1"),
        (-1, -1, "below must be non-negative, got -1"),
    ],
)
def test_padded_certificate_rejects_negative_padding(monkeypatch, below, above, message):
    """Raised before the certificate is read: ``(0, -1)`` on the 2-chain
    returned a certificate of a one-element digraph with a cover."""
    cert = canonical_certificate(chain(2).digraph)
    monkeypatch.setattr(canon, "_decode", None)
    with pytest.raises(ValueError, match=message):
        padded_certificate(cert, below, above)
