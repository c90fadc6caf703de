from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from radiosync import adversary
from radiosync.core import ConfigError
from radiosync.policy import basic_policy, naive_policy, on_ticks
from radiosync.protocols import ceil_sqrt


def test_two_clique_edge_count():
    assert len(adversary.two_clique(6).edges) == 7
    assert len(adversary.two_clique(2).edges) == 1
    with pytest.raises(ConfigError):
        adversary.two_clique(5)


def test_l_connected_structure():
    t = adversary.l_connected(16, 1)
    assert len(t.edges) == 2 * 28 + 3
    bridges = [(u, v) for u, v in t.edges if u <= 8 < v]
    assert sorted(bridges) == [(1, 9), (2, 10), (3, 11)]
    with pytest.raises(ConfigError):
        adversary.l_connected(16, 2)  # needs ell < m/4 - 2


def test_complete_topology_edge_count():
    t = adversary.build_topology("complete", 10)
    assert len(t.edges) == 45


@pytest.mark.parametrize("spec, m", [("two-clique", None), ("l-connected:1", None),
                                     ("unit-disk", None), ("complete", None),
                                     ("two-clique", "4"), (5, 4), (None, 4),
                                     # l_connected's odd m and ell = 0
                                     ("l-connected:1", 15), ("l-connected:0", 16)])
def test_malformed_topology_specs_raise_config_error(spec, m):
    with pytest.raises(ConfigError):
        adversary.build_topology(spec, m)


@pytest.mark.parametrize("build", [
    # each once raised TypeError from a comparison
    lambda: adversary.two_clique(None),
    lambda: adversary.two_clique("4"),
    lambda: adversary.unit_disk_two_clique(None),
    lambda: adversary.l_connected(16, "1"),
    lambda: adversary.l_connected(16, None),
    lambda: adversary.l_connected(None, 1),
    lambda: adversary.complete_topology(None),
], ids=["two-clique-None", "two-clique-str", "unit-disk-None", "l-connected-str-ell",
        "l-connected-None-ell", "l-connected-None-m", "complete-None"])
def test_topology_constructors_reject_non_int_sizes(build):
    with pytest.raises(ConfigError, match="must be an int"):
        build()


@pytest.mark.parametrize("call", [
    # each once raised TypeError or ValueError, or ran: a float coordinate
    # as its binary expansion, a negative radius as its absolute value
    lambda: adversary.unit_disk(None, 1),
    lambda: adversary.unit_disk([(0, 0), (1, 1)], "x"),
    lambda: adversary.unit_disk([(0, 0), (1,)], 1),
    lambda: adversary.unit_disk([(0, 0), (1, 0.5)], 1),
    lambda: adversary.unit_disk([(0, 0), (1, 0)], -1),
    lambda: adversary.unit_disk_two_clique(4, -2),
    lambda: adversary.schedule_family(None, 1),
    lambda: adversary.schedule_family(0, 1),
    lambda: adversary.budget_curve("8", 2),
    lambda: adversary.budget_curve(8, None),
], ids=["unit-disk-None", "unit-disk-str-radius", "unit-disk-short-pair",
        "unit-disk-float", "unit-disk-negative-radius", "unit-disk-placement-negative-radius",
        "schedule-family-None", "schedule-family-zero",
        "budget-curve-str", "budget-curve-None"])
def test_probes_reject_malformed_arguments(call):
    with pytest.raises(ConfigError):
        call()


def test_unit_disk_exact_boundary():
    # distance exactly r is an edge; anything farther is not
    t = adversary.unit_disk([(0, 0), (2, 0), (Fraction(41, 20), 0)], 2)
    assert (1, 2) in t.edges
    assert (1, 3) not in t.edges
    assert (2, 3) in t.edges


def test_unit_disk_placement_matches_two_clique():
    for m in (2, 4, 8, 16, 64):
        pos, r, topo = adversary.unit_disk_two_clique(m)
        expected = adversary.two_clique(m)
        assert topo.edges == expected.edges, m
        # the bridge endpoints sit at distance exactly r
        (x1, y1), (x2, y2) = pos[0], pos[m // 2]
        assert (x1 - x2) ** 2 + (y1 - y2) ** 2 == r * r


def test_witness_two_sparse_schedules():
    w = adversary.search_non_overlap([(1, 1), (1, 1)], 9)
    assert w is not None and w.certified
    a = on_ticks_from_bits((1, 1), w.offsets[0])
    b = on_ticks_from_bits((1, 1), w.offsets[1])
    assert not a & b


def on_ticks_from_bits(bits, off):
    return {off + i for i, b in enumerate(bits) if b}


def test_naive_schedules_never_defeated():
    for n in range(1, 51):
        bits = naive_policy(n).bits
        assert adversary.search_non_overlap([bits, bits], n) is None, n


def test_basic_schedules_never_defeated():
    for n in range(1, 201):
        bits = basic_policy(ceil_sqrt(n)).bits
        assert adversary.search_non_overlap([bits, bits], n) is None, n


def test_triple_search_and_verification():
    w = adversary.search_non_overlap([(1, 1), (1, 1), (1, 1)], 9)
    assert w is not None and w.certified
    sets = [on_ticks_from_bits((1, 1), off) for off in w.offsets]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not sets[i] & sets[j]


def test_four_schedule_search():
    schedules = [(1, 1)] * 4
    w = adversary.search_non_overlap(schedules, 20)
    assert w is not None and w.certified


def _brute_force_offsets(schedules, n):
    """The first offsets in [0, n]^k, in product order, under which no two
    schedules share an on-tick; None if there are none."""
    for offsets in product(range(n + 1), repeat=len(schedules)):
        ticks = [on_ticks_from_bits(bits, off) for bits, off in zip(schedules, offsets)]
        if not any(a & b for a, b in combinations(ticks, 2)):
            return offsets
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from((0, 1)), min_size=1, max_size=5).map(tuple),
                min_size=1, max_size=4),
       st.integers(0, 5))
# placing one schedule at a time at its first free offset, with no backtracking,
# finds no offsets here
@example([(0, 0, 1, 0), (1, 0, 1, 1), (0, 1), (0,)], 3)
def test_search_finds_a_witness_exactly_when_one_exists(schedules, n):
    w = adversary.search_non_overlap(schedules, n)
    assert (w is None) == (_brute_force_offsets(schedules, n) is None)
    if w is not None:
        assert w.certified and len(w.offsets) == len(schedules)
        assert min(w.offsets) == 0 and max(w.offsets) <= n
        ticks = [on_ticks_from_bits(bits, off) for bits, off in zip(schedules, w.offsets)]
        assert not any(a & b for a, b in combinations(ticks, 2))


@pytest.mark.parametrize("count", [3, 4], ids=["exhaustive", "four"])
def test_search_finds_no_witness_where_none_exists(count):
    # three on-ticks each and offsets in [0, 2]: every two schedules overlap
    assert adversary.search_non_overlap([(1, 1, 1)] * count, 2) is None
    for offsets in product(range(3), repeat=count):
        assert any(on_ticks_from_bits((1, 1, 1), a) & on_ticks_from_bits((1, 1, 1), b)
                   for a, b in combinations(offsets, 2))


@pytest.mark.parametrize("schedules, n", [
    # each once raised TypeError or ValueError, returned None as if no
    # offsets in [0, n] defeated the schedules, or ran a float bit as a 1
    ([(1, 1), (1, 1)], "9"),
    ([(1, 1), (1, 1)], 2.0),
    ([(1, 1), (1, 1)], -3),
    ([(1, 2), (1, 1)], 9),
    ([(1, 1.0), (1, 1)], 9),
    ([None, (1, 1)], 9),
    (5, 9),
], ids=["n-str", "n-float", "n-negative", "bit-two", "bit-float", "schedule-None",
        "not-iterable"])
def test_search_non_overlap_rejects_malformed_arguments(schedules, n):
    with pytest.raises(ConfigError):
        adversary.search_non_overlap(schedules, n)


def test_budget_curve_thresholds():
    rows = adversary.budget_curve(100, 20)
    by_budget = {r["budget"]: r for r in rows}
    assert by_budget[3]["all_defeated"]
    assert "basic-truncated" in by_budget[20]["safe"]


def test_budget_curve_always_on_is_safe():
    rows = adversary.budget_curve(4, 5)
    assert "prefix" in rows[4]["safe"]  # five consecutive ones with n=4


def test_multi_hop_two_clique_pairwise():
    rep = adversary.multi_hop_experiment(adversary.two_clique(8), 64, "pairwise")
    assert rep["all_edges_contacted"]
    assert rep["total_energy"] == 8 * 2 * ceil_sqrt(64)
    assert rep["edges"] == 2 * 6 + 1


def test_multi_hop_naive_energy():
    rep = adversary.multi_hop_experiment(adversary.two_clique(6), 16, "naive")
    assert rep["total_energy"] == 6 * 17
    assert rep["all_edges_contacted"]


def test_isolated_pair_matches_two_processor_bound():
    rep = adversary.multi_hop_experiment(
        adversary.build_topology("complete", 2), 100, "pairwise")
    assert rep["per_processor"] == {1: 20, 2: 20}
    assert rep["all_edges_contacted"]


def test_multi_hop_rejects_single_hop_algorithms():
    with pytest.raises(ConfigError):
        adversary.multi_hop_experiment(adversary.two_clique(4), 16, "synchronize")


def test_multi_hop_rejects_a_topology_spec():
    # a spec string names no m; it must be built first
    with pytest.raises(ConfigError, match="build_topology"):
        adversary.multi_hop_experiment("two-clique", 8, "naive")
