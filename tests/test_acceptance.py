"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints exactly one ``ACCEPTANCE <id>: PASS/FAIL`` line (visible
with ``pytest -s`` or in the captured output).  All comparisons are exact;
the stated wall-clock budgets are asserted where the criterion names one.
"""

import time
from contextlib import contextmanager

from latcount import formulas, oracle
from latcount.adjunct import decompose, realize
from latcount.canon import canonical_certificate as cert, decode_certificate
from latcount.partitions import enumerate_partitions, partition_count
from latcount.poset import (
    as_lattice,
    classify_elements,
    contains_crown,
    induced_subposet,
    is_dismantlable,
    nullity,
    poset_classification,
    relabel,
)
from latcount.reduction import (
    FbbClass,
    basic_block_of,
    basic_retract_with_map,
    classify_fbb,
    fundamental_basic_block_of,
)
from class_reference import three_block_fibers
from search_reference import search_lattices


@contextmanager
def criterion(ident: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {ident}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    overtime = budget_s is not None and elapsed > budget_s
    print(f"ACCEPTANCE {ident}: {'FAIL (overtime)' if overtime else 'PASS'} "
          f"({elapsed:.1f}s)")
    assert not overtime, f"{ident} took {elapsed:.1f}s, budget {budget_s}s"


def euler_partition_numbers(n_max: int) -> list[int]:
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_criterion_1_partition_layer():
    with criterion("1 (partition layer)", 5.0):
        for n in range(0, 41):
            for k in range(0, n + 1):
                assert partition_count(n, k) == len(enumerate_partitions(n, k))
        totals = euler_partition_numbers(40)
        for n in range(1, 41):
            assert sum(partition_count(n, k) for k in range(1, n + 1)) == totals[n]


def test_criterion_2_two_reducible_block_strata():
    with criterion("2 (2-reducible block strata)", 60.0):
        for m in range(4, 11):
            strata = oracle.block_census(m, 2)
            for k in range(0, m - 3):
                members = strata.get(k, {})
                for c in members:
                    assert len(decode_certificate(c).covers) == m + k
                assert len(members) == partition_count(m - 2, k + 2)
            assert not any(k < 0 or k > m - 4 for k in strata)


def test_criterion_3_two_reducible_forms_and_oracle():
    with criterion("3 (2-reducible counts)", 120.0):
        for n in range(4, 61):
            assert formulas.two_reducible_lattices(
                n, "thakare"
            ) == formulas.two_reducible_lattices(n, "block_first")
        for n in range(4, 11):
            assert formulas.two_reducible_lattices(n) == len(
                oracle.enumerate_by_reducible(n, 2)
            )
        assert [formulas.two_reducible_lattices(n) for n in (4, 5, 6)] == [1, 4, 11]


def test_criterion_4_three_reducible_headline():
    with criterion("4 (3-reducible headline)", 600.0):
        assert formulas.three_reducible_lattices(6) == 2
        assert formulas.three_reducible_lattices(7) == 15
        for n in range(6, 11):
            assert formulas.three_reducible_lattices(n) == len(
                oracle.enumerate_by_reducible(n, 3)
            )


def test_criterion_5_class_split():
    with criterion("5 (class split)", 600.0):
        for n in range(6, 11):
            fibers: dict[FbbClass, int] = {}
            for c in oracle.reducible_class(n, 3):
                tag = classify_fbb(as_lattice(decode_certificate(c)))
                fibers[tag] = fibers.get(tag, 0) + 1
            assert fibers.get(FbbClass.F1, 0) == formulas.l1_lattices(n)
            assert fibers.get(FbbClass.F2, 0) == formulas.l1_lattices(n)
            assert fibers.get(FbbClass.F3, 0) == formulas.l3_lattices(n)
            assert fibers.get(FbbClass.F4, 0) == formulas.l4_lattices(n)
        assert formulas.l1_lattices(6) == 1
        assert formulas.l3_lattices(7) == 1
        assert formulas.l4_lattices(8) == 1
        assert formulas.l1_lattices(5) == 0
        assert formulas.l3_lattices(6) == 0
        assert formulas.l4_lattices(7) == 0


def test_criterion_6_block_families():
    with criterion("6 (block families)", 600.0):
        for m in range(6, 11):
            fibers = three_block_fibers(m)
            for k in range(0, m):
                assert fibers.get((FbbClass.F1, k), 0) == formulas.b1_blocks(m, k)
                assert fibers.get((FbbClass.F2, k), 0) == formulas.b2_blocks(m, k)
                assert fibers.get((FbbClass.F3, k), 0) == formulas.b3_blocks(m, k)
                assert fibers.get((FbbClass.F4, k), 0) == formulas.b4_blocks(m, k)
        assert formulas.b1_blocks(6, 1) == 1
        assert formulas.b1_blocks(7, 1) == 3
        assert formulas.b1_blocks(7, 2) == 2
        assert formulas.b3_blocks(7, 1) == 1
        assert formulas.b4_blocks(8, 2) == 1


def _structure_suite_members():
    for n in range(1, 8):
        full = oracle.census(n)
        lattices = search_lattices(n)
        for r, certs in full.classes.items():
            if r <= 3:
                for c in certs:
                    yield lattices[c]
    for n in range(8, 10):
        for r in (2, 3):
            for c in oracle.reducible_class(n, r):
                yield as_lattice(decode_certificate(c))


def test_criterion_7_decomposition_laws():
    with criterion("7 (decomposition laws)"):
        for lat in _structure_suite_members():
            red = classify_elements(lat).red
            assert is_dismantlable(lat)
            if len(red) == 3:
                for x in red:
                    for y in red:
                        assert lat.le(x, y) or lat.le(y, x)
            rep = decompose(lat)
            assert cert(realize(rep).digraph) == cert(lat.digraph)
            chains = len(rep.chains)
            assert len(lat.covers) == lat.n + chains - 2
            assert nullity(lat.digraph) == chains - 1
            if lat.n >= 3:
                assert lat.n - 1 <= len(lat.covers) <= 2 * lat.n - 4


def test_criterion_8_dismantlable_iff_crown_free():
    with criterion("8 (dismantlable = crown-free)", 900.0):
        totals = []
        for n in range(2, 8):
            lattices = search_lattices(n)
            totals.append(len(lattices))
            for lat in lattices.values():
                assert is_dismantlable(lat) == (not contains_crown(lat))
        assert totals == [1, 1, 2, 5, 15, 53]


def test_criterion_9_reduction_layer():
    import random

    rng = random.Random(987654321)
    with criterion("9 (reduction layer)"):
        for n in range(1, 9):
            for lat in search_lattices(n).values():
                retract, labels = basic_retract_with_map(lat.digraph)
                mapped = {labels[x] for x in poset_classification(retract).red}
                assert mapped == set(classify_elements(lat).red)
                assert cert(basic_retract_with_map(retract)[0]) == cert(retract)

                block = basic_block_of(lat.digraph)
                assert cert(basic_block_of(block)) == cert(block)
                if block.n > 1:
                    for x in poset_classification(block).irr:
                        rest = induced_subposet(
                            block, set(range(block.n)) - {x}
                        )
                        assert nullity(rest) == nullity(block) - 1

                r = len(classify_elements(lat).red)
                if r in (2, 3):
                    fbb = fundamental_basic_block_of(lat)
                    again = fundamental_basic_block_of(fbb)
                    assert cert(again.digraph) == cert(fbb.digraph)
                    tag = classify_fbb(lat)
                    perm = list(range(lat.n))
                    rng.shuffle(perm)
                    shuffled = as_lattice(relabel(lat.digraph, perm))
                    assert classify_fbb(shuffled) is tag
