import pytest
from hypothesis import given, strategies as st

from radiosync.policy import (
    PolicyString,
    basic_policy,
    naive_policy,
    on_ticks,
    overlaps,
    policy_len,
)


def test_basic_policy_k1():
    assert basic_policy(1).as_string() == "11"


def test_basic_policy_k2():
    p = basic_policy(2)
    assert p.as_string() == "110101"
    assert p.initial_len == 2


def test_basic_policy_k5():
    p = basic_policy(5)
    assert len(p) == 30
    assert p.one_positions == (0, 1, 2, 3, 4, 9, 14, 19, 24, 29)


@pytest.mark.parametrize("k", range(1, 13))
def test_basic_policy_structure(k):
    p = basic_policy(k)
    assert len(p) == k * k + k
    assert len(p.one_positions) == 2 * k
    assert p.initial_len == k
    assert all(p.bits[i] == 1 for i in range(k))
    assert all(p.bits[(i + 2) * k - 1] == 1 for i in range(k))
    assert 2 * k - 1 in p.one_positions  # one main on-tick abuts the initial part


def test_basic_policy_rejects_zero():
    with pytest.raises(ValueError):
        basic_policy(0)


def test_policy_len():
    assert policy_len(basic_policy(2)) == 6
    assert policy_len(basic_policy(3)) == 12
    assert policy_len(PolicyString(bits=(0, 1, 0), initial_len=0)) == 1
    with pytest.raises(ValueError):
        policy_len(PolicyString(bits=(0, 0), initial_len=0))


@pytest.mark.parametrize("bits", [(1.0, True, 0, 1), (0, 1.0), (True, 0), (0, 2)])
def test_policy_bits_must_be_int_zero_or_one(bits):
    # floats and bools equal to 0 or 1 once passed, and as_string() wrote
    # (1.0, True, 0, 1) as '1.0True01'
    with pytest.raises(ValueError):
        PolicyString(bits, 0)


class _IntSubclass(int):
    pass


# entries the per-bit rule refuses: bools, floats, other ints, an int
# subclass, strings and unhashable values
_ODD = st.one_of(st.booleans(), st.floats(), st.integers(-3, 3).filter(lambda b: b not in (0, 1)),
                 st.sampled_from([_IntSubclass(0), _IntSubclass(1), "1", None, [1], {0}, {1: 1}]))


@given(st.lists(st.sampled_from([0, 1]), max_size=40),
       st.lists(st.tuples(st.integers(0, 40), _ODD), max_size=2))
def test_bit_check_matches_the_per_bit_rule(bits, odd):
    for at, entry in odd:
        bits.insert(at, entry)
    if all(type(b) is int and b in (0, 1) for b in bits):
        PolicyString(tuple(bits), 0)
    else:
        with pytest.raises(ValueError):
            PolicyString(tuple(bits), 0)


@given(st.lists(st.sampled_from([0, 1]), max_size=300))
def test_derived_fields_match_their_per_bit_definitions(bits):
    p = PolicyString(tuple(bits), 0)
    assert p.one_positions == tuple(j for j, b in enumerate(bits) if b)
    assert p.as_string() == "".join(str(b) for b in bits)
    mask = 0
    for j, b in enumerate(bits):
        mask |= b << j
    assert p.mask == mask


def test_on_ticks():
    assert on_ticks(basic_policy(2), 10) == {10, 11, 13, 15}
    assert on_ticks(PolicyString(bits=(0, 0, 0), initial_len=0), 0) == set()
    assert on_ticks(basic_policy(1), 0) == {0, 1}


def test_overlaps_examples():
    p3 = basic_policy(3)
    assert set(p3.one_positions) == {0, 1, 2, 5, 8, 11}
    assert overlaps(p3, 0, p3, 11)
    assert not overlaps(p3, 0, p3, 12)
    assert overlaps(p3, 0, p3, 0)


def test_overlap_symmetry():
    p, q = basic_policy(2), basic_policy(4)
    for d in range(-25, 26):
        assert overlaps(p, 0, q, d) == overlaps(q, d, p, 0)


def test_naive_policy():
    assert naive_policy(3).as_string() == "1111"
    assert naive_policy(1).as_string() == "11"
    assert naive_policy(3).initial_len == 4
    with pytest.raises(ValueError):
        naive_policy(0)


def test_naive_policy_always_overlaps():
    for n in range(1, 101):
        p = naive_policy(n)
        assert overlaps(p, 0, p, n)


def test_overlap_guarantee_exhaustive():
    # two copies at every offset below the policy span must meet; the span
    # itself is the tight non-overlap witness
    for k in range(1, 13):
        p = basic_policy(k)
        span = k * k + k
        for d in range(span):
            assert overlaps(p, 0, p, d), (k, d)
        assert not overlaps(p, 0, p, span)


def test_overlap_lands_in_later_initial_part():
    # for offsets past the initial part, some shared on-tick falls inside
    # the later schedule's first k ticks (what the relay argument needs)
    for k in range(1, 13):
        p = basic_policy(k)
        ons = set(p.one_positions)
        for d in range(k, k * k + k):
            shared = ons & {x + d for x in ons}
            assert any(d <= t <= d + k - 1 for t in shared), (k, d)


def test_no_long_silent_gap():
    for k in range(1, 13):
        ones = basic_policy(k).one_positions
        gaps = [b - a - 1 for a, b in zip(ones, ones[1:])]
        assert all(g < k for g in gaps)


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=-500, max_value=500))
def test_overlap_matches_set_intersection(k, d):
    p = basic_policy(k)
    expected = bool(on_ticks(p, 0) & on_ticks(p, d))
    assert overlaps(p, 0, p, d) == expected
