from hypothesis import given, settings, strategies as st

from latcount.partitions import enumerate_partitions, partition_count


def euler_partition_numbers(n_max: int) -> list[int]:
    """Unrestricted partition numbers via the pentagonal-number recurrence."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
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


def test_examples():
    assert partition_count(2, 2) == 1
    assert partition_count(4, 2) == 2
    assert partition_count(7, 3) == 4


def test_boundaries():
    assert partition_count(0, 0) == 1
    assert partition_count(3, 0) == 0
    assert partition_count(2, 3) == 0
    assert partition_count(-1, 0) == 0
    assert partition_count(5, -1) == 0
    assert enumerate_partitions(0, 0) == [()]
    assert enumerate_partitions(3, 0) == []
    assert enumerate_partitions(-1, 0) == []
    for n in (-2, -1, 0, 3, 5):
        for k in (-3, -1):
            assert enumerate_partitions(n, k) == [], (n, k)
            assert partition_count(n, k) == 0, (n, k)


def test_enumerate_examples():
    assert enumerate_partitions(3, 3) == [(1, 1, 1)]
    assert enumerate_partitions(4, 2) == [(1, 3), (2, 2)]
    assert enumerate_partitions(2, 3) == []
    assert enumerate_partitions(7, 3) == [(1, 1, 5), (1, 2, 4), (1, 3, 3), (2, 2, 3)]


def test_enumeration_is_sorted_and_valid():
    for n in range(0, 12):
        for k in range(0, n + 2):
            tuples = enumerate_partitions(n, k)
            assert tuples == sorted(tuples)
            for t in tuples:
                assert len(t) == k and sum(t) == n
                assert all(a <= b for a, b in zip(t, t[1:]))
                assert all(a >= 1 for a in t)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 25), st.integers(-3, 25))
def test_count_matches_enumeration(n, k):
    assert partition_count(n, k) == len(enumerate_partitions(n, k))


def test_row_sums_match_euler_recurrence():
    p = euler_partition_numbers(40)
    for n in range(1, 41):
        assert sum(partition_count(n, k) for k in range(1, n + 1)) == p[n]


def test_recurrence_holds_on_stored_entries():
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert partition_count(n, k) == partition_count(
                n - 1, k - 1
            ) + partition_count(n - k, k)
