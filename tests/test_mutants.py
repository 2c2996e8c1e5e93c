"""Mutants: a deliberate fault, put in by ``monkeypatch`` on a package name
and never by an edit to the source, must fail the exact check that guards
against it.  Each mutant that a process-wide cache could hide starts from
empty block tables, the search's two seed levels and an empty memo of
fundamental basic block classes (``fresh_tables``), so the fault reaches
every table it would reach in a new process, and the healthy caches come
back after it."""

import pytest

from latcount import adjunct, canon, documents, formulas, oracle, reduction, search
from latcount.adjunct import realize
from latcount.canon import canonical_certificate
from latcount.poset import as_lattice, build_poset
from latcount.reduction import FbbClass, m2
from test_adjunct import normal_forms
from test_canon import _recipe_inputs, swap_leaf_mismatches
from test_oracle import A006966

SWAP = {FbbClass.F3: FbbClass.F4, FbbClass.F4: FbbClass.F3}


def _swapping(classify):
    """``classify`` with F3 and F4 traded."""

    def mutant(*args):
        tag = classify(*args)
        return SWAP.get(tag, tag)

    return mutant


def test_block_class_trading_f3_and_f4_fails_their_cells(monkeypatch, fresh_tables):
    """Every f3 / f4 lattice cell and b3 / b4 block cell of ``verify(9)``
    whose two healthy counts differ reads ``ok is False``; every other cell
    agrees.  A flagged cell with members names one of them, which the
    retracting classifier puts in the other class."""
    monkeypatch.setattr(oracle, "_spine_class", _swapping(oracle._spine_class))
    records = oracle.verify(9)
    expected = set()
    for n in range(1, 10):
        if formulas.l3_lattices(n) != formulas.l4_lattices(n):
            expected |= {(n, "f3"), (n, "f4")}
        for k in range(max(n - 3, 1)):
            if formulas.b3_blocks(n, k) != formulas.b4_blocks(n, k):
                expected |= {(n, f"b3_blocks[k={k}]"), (n, f"b4_blocks[k={k}]")}
    flagged = {(r.n, r.name): r for r in records if r.ok is False}
    assert flagged.keys() == expected
    assert {(9, "f3"), (9, "f4"), (9, "b3_blocks[k=2]"), (9, "b4_blocks[k=2]")} <= expected
    for (n, name), record in flagged.items():
        assert (record.witness is not None) == (record.oracle > 0), (n, name)
        if record.witness is not None:
            member = as_lattice(build_poset(n, record.witness))
            claimed = FbbClass.F3 if name.startswith(("f3", "b3")) else FbbClass.F4
            assert reduction.classify_fbb(member) is SWAP[claimed], (n, name)


def test_classify_fbb_trading_f3_and_f4_splits_the_oracles(monkeypatch, fresh_tables):
    """``classify_fbb`` with F3 and F4 traded, in every module that binds
    it, moves the search's F3 and F4 fibers at n = 8 and leaves the
    constructive tags as they were: the two oracles no longer agree."""
    mutant = _swapping(reduction.classify_fbb)
    for module in (reduction, search, documents):
        monkeypatch.setattr(module, "classify_fbb", mutant)
    tags: dict[FbbClass, set] = {}
    for cert, fbb in oracle.reducible_class(8, 3).items():
        tags.setdefault(fbb, set()).add(cert)
    fibers = search.census(8).fbb_fibers
    assert fibers != tags
    assert fibers[FbbClass.F3] == tags[FbbClass.F4]
    assert fibers[FbbClass.F4] == tags[FbbClass.F3]
    assert fibers[FbbClass.F1] == tags[FbbClass.F1]


def test_cover_rows_without_lower_covers_fail_the_split(monkeypatch, fresh_tables):
    """The cover-row reader, as the search's reducible split reads it,
    returning no lower covers: join-reducible elements go uncounted, and
    ``verify(8)`` flags exactly the cells that compare the split with the
    constructive classes wherever those are non-empty."""
    rows = search._cover_rows

    def mutant(p):
        up, down = rows(p)
        return up, [0] * len(down)

    monkeypatch.setattr(search, "_cover_rows", mutant)
    flagged = {(r.n, r.name) for r in oracle.verify(8) if r.ok is False}
    assert flagged == {(n, "search_two_reducible") for n in range(4, 9)} | {
        (n, "search_three_reducible") for n in range(6, 9)
    }


def test_l4_off_by_one_fails_f4_and_its_total(monkeypatch):
    """``l4_lattices`` one too high at n = 9 fails the ``f4`` cell and the
    ``three_reducible`` total, which reads ``l4_lattices`` by module name;
    no other cell moves."""
    l4 = formulas.l4_lattices
    monkeypatch.setattr(formulas, "l4_lattices", lambda n: l4(n) + (n == 9))
    flagged = {(r.n, r.name) for r in oracle.verify(9) if r.ok is False}
    assert flagged == {(9, "f4"), (9, "three_reducible")}


def test_dropped_block_recipe_fails_its_cells(monkeypatch, fresh_tables):
    """The recipe at index 5 of the three-reducible recipes on 8 elements
    dropped: its F1 block is lost from the block stratum, from both
    lattice classes it pads into, and from the comparison with the
    search."""
    recipes = oracle._block_reps

    def mutant(m, r):
        for i, tagged in enumerate(recipes(m, r)):
            if (m, r, i) != (8, 3, 5):
                yield tagged

    monkeypatch.setattr(oracle, "_block_reps", mutant)
    flagged = {(r.n, r.name) for r in oracle.verify(9) if r.ok is False}
    assert flagged == {
        (8, "b1_blocks[k=2]"), (8, "f1"),
        (8, "three_reducible"), (8, "search_three_reducible"),
        (9, "f1"), (9, "three_reducible"),
    }


def test_rank_reading_labels_keeps_a_certificate_twice(monkeypatch, fresh_tables):
    """A canonical deletion ranked by the down-set's labels, which is no
    isomorphism invariant: the search still counts A006966 for n <= 6, and
    at n = 7 it keeps one certificate twice, which the duplicate guard
    raises."""
    monkeypatch.setattr(search, "_rank", lambda down, low, sizes: (down,))
    for n in range(1, 7):
        assert len(search._lattice_certificates(n)) == A006966[n], n
    with pytest.raises(RuntimeError, match="kept certificate [0-9a-f]+ twice"):
        search._lattice_certificates(7)


def test_two_reducible_block_stratum_off_by_one_fails_its_cell(monkeypatch):
    """``two_reducible_blocks`` one too high at (7, 1) fails that block
    cell alone: no lattice count reads the block strata."""
    blocks = formulas.two_reducible_blocks
    monkeypatch.setattr(
        formulas, "two_reducible_blocks", lambda m, k: blocks(m, k) + ((m, k) == (7, 1))
    )
    flagged = {(r.n, r.name) for r in oracle.verify(9) if r.ok is False}
    assert flagged == {(7, "two_reducible_blocks[k=1]")}


def test_b3_block_stratum_off_by_one_fails_its_cell(monkeypatch):
    """``b3_blocks`` one too high at (8, 1) fails that block cell alone."""
    b3 = formulas.b3_blocks
    monkeypatch.setattr(formulas, "b3_blocks", lambda m, k: b3(m, k) + ((m, k) == (8, 1)))
    flagged = {(r.n, r.name) for r in oracle.verify(9) if r.ok is False}
    assert flagged == {(8, "b3_blocks[k=1]")}


def test_second_five_chain_fails_the_chains_cell_with_a_witness(monkeypatch):
    """The search's split keeping its one 0-reducible lattice twice at n = 5
    fails the ``chains`` cell alone, and the cell names the 5-chain, as
    every disagreeing count cell names one oracle member."""
    split = oracle._reducible_split

    def mutant(n):
        classes = split(n)
        return {**classes, 0: classes[0] * 2} if n == 5 else classes

    monkeypatch.setattr(oracle, "_reducible_split", mutant)
    flagged = {(r.n, r.name): r for r in oracle.verify(6) if r.ok is False}
    assert flagged.keys() == {(5, "chains")}
    assert flagged[5, "chains"].witness == [[0, 1], [1, 2], [2, 3], [3, 4]]


def test_reader_ignoring_the_pairs_that_skip_a_b_fails_the_normal_form_check(monkeypatch):
    """``decompose`` dropping the chains it reads between the b's of a pair
    that skips a b: its forms still tell every class member apart for
    n <= 6, and at n = 7 the 15 three-reducible members give 10 forms.
    ``oracle._block_reps`` lays out its recipes through its own binding of
    the layout, so the classes themselves are healthy."""
    recipe = adjunct._spine_recipe

    def mutant(r, bundles, below=0, above=0):
        pairs = adjunct._spine_pairs(r)
        kept = [bundle if j == i + 1 else () for (i, j), bundle in zip(pairs, bundles)]
        return recipe(r, kept, below, above)

    monkeypatch.setattr(adjunct, "_spine_recipe", mutant)
    for n in range(1, 7):
        for r in (2, 3):
            members = oracle.reducible_class(n, r)
            assert len(normal_forms(members, seed=n * r)) == len(members), (n, r)
    members = oracle.reducible_class(7, 3)
    assert (len(members), len(normal_forms(members, seed=21))) == (15, 10)


def test_swap_leaf_in_descending_chain_rank_fails_on_the_diamond(monkeypatch):
    """The leaf read off the chain swaps with each bundle's chains in
    descending rank.  Trading chains is an automorphism, so its rows, and
    every certificate, stay as they were; the labeling is not the first
    leaf the search reaches, and the check of the shortcut against the
    search names the diamond, the first recipe with two equal chains, as
    built and relabeled."""
    leaf = canon._swap_leaf

    def mutant(n, dns, colors, swaps):
        found = leaf(n, dns, colors, swaps)
        if found is None:
            return None
        order, pos = found
        order = sorted(order, key=lambda v: (colors[v], -pos[v]))
        for i, v in enumerate(order):
            pos[v] = i
        return order, pos

    monkeypatch.setattr(canon, "_swap_leaf", mutant)
    (rep, _), *_ = oracle._block_reps(4, 2)
    assert canonical_certificate(realize(rep).digraph) == canonical_certificate(m2().digraph)
    inputs = _recipe_inputs(range(1, 6))
    assert swap_leaf_mismatches(inputs)[:2] == [(2, 4, 0), (2, 4, 0, "relabeled")]
