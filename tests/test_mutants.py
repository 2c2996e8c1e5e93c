"""Mutants: a deliberate fault, put in by ``monkeypatch`` on a package name
and never by an edit to the source, must fail the exact check that guards
against it.  Each mutant that a process-wide cache could hide starts from
empty block tables, the search's two seed levels and an empty memo of
fundamental basic block classes (``fresh_tables``), so the fault reaches
every table it would reach in a new process, and the healthy caches come
back after it."""

import pytest

from latcount import documents, formulas, oracle, reduction, search
from latcount.poset import as_lattice, build_poset
from latcount.reduction import FbbClass
from test_oracle import A006966

SWAP = {FbbClass.F3: FbbClass.F4, FbbClass.F4: FbbClass.F3}


def _swapping(classify):
    """``classify`` with F3 and F4 traded."""

    def mutant(l):
        tag = classify(l)
        return SWAP.get(tag, tag)

    return mutant


def test_block_class_trading_f3_and_f4_fails_their_cells(monkeypatch, fresh_tables):
    """Every f3 / f4 lattice cell and b3 / b4 block cell of ``verify(9)``
    whose two healthy counts differ reads ``ok is False``; every other cell
    agrees.  A flagged cell with members names one of them, which the
    retracting classifier puts in the other class."""
    monkeypatch.setattr(oracle, "_block_class", _swapping(oracle._block_class))
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


def test_cover_degrees_without_lower_covers_fail_the_split(monkeypatch, fresh_tables):
    """The cover-degree helper, as the search's reducible split reads it,
    counting no lower covers: join-reducible elements go uncounted, and
    ``verify(8)`` flags exactly the cells that compare the split with the
    constructive classes wherever those are non-empty."""
    count = search._cover_degrees

    def mutant(p):
        uppers, lowers = count(p)
        return uppers, [0] * len(lowers)

    monkeypatch.setattr(search, "_cover_degrees", mutant)
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
    recipes = oracle._three_reducible_block_reps

    def mutant(m):
        for i, rep in enumerate(recipes(m)):
            if (m, i) != (8, 5):
                yield rep

    monkeypatch.setattr(oracle, "_three_reducible_block_reps", mutant)
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
