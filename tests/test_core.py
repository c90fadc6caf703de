import pytest
from hypothesis import given, settings, strategies as st

from radiosync.core import (
    WAKE_GENERATORS,
    ConfigError,
    SimConfig,
    Topology,
    ceil_log2,
    complete_topology,
    compute_k,
    generate_wakes,
    validate_config,
)
from radiosync import core
from radiosync.adversary import build_topology, two_clique
from radiosync.engine import World, run
from radiosync.fractional import run_fractional


def test_compute_k_examples():
    assert compute_k(800, 100) == 8
    assert compute_k(1, 1) == 3
    assert compute_k(50, 4) == 10


def test_compute_k_rejects_zero():
    with pytest.raises(ConfigError):
        compute_k(0, 1)
    with pytest.raises(ConfigError):
        compute_k(1, 0)


@pytest.mark.parametrize("n, m, name", [("a", 2, "n"), (2.0, 2, "n"), (4, True, "m")])
def test_compute_k_rejects_non_ints(n, m, name):
    # each once raised TypeError, or (m=True) returned 6
    with pytest.raises(ConfigError, match=f"{name} must be an int"):
        compute_k(n, m)


def test_compute_k_tightness_exhaustive():
    # k is the least integer with k^2 >= 8n/m, exhaustively over n <= 10^4
    # (vectorized: pure-python pairs would take minutes)
    np = pytest.importorskip("numpy")
    for n in range(1, 10_001):
        m = np.arange(1, n + 1, dtype=np.int64)
        a = (8 * n + m - 1) // m
        k = np.floor(np.sqrt(a.astype(np.float64))).astype(np.int64)
        k = np.where(k * k < a, k + 1, k)  # repair float rounding at squares
        k = np.where((k - 1) * (k - 1) >= a, k - 1, k)
        assert (k * k * m >= 8 * n).all(), n
        assert ((k - 1) * (k - 1) * m < 8 * n).all(), n
        if n % 997 == 0:  # spot-check agreement with the scalar implementation
            for mm in (1, n // 2 + 1, n):
                kk = compute_k(n, mm)
                assert kk * kk * mm >= 8 * n > (kk - 1) * (kk - 1) * mm


def test_compute_k_allows_more_processors_than_ticks():
    assert compute_k(1, 8) == 1
    assert compute_k(1, 100) == 1
    assert compute_k(2, 100) == 1


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(1024) == 10
    assert ceil_log2(1025) == 11


def test_normalization_shifts_min_to_zero():
    cfg = validate_config(SimConfig(n=10, m=2, wake_times=[3, 7]))
    assert cfg.wake_times == [0, 4]


def test_wake_out_of_range_rejected():
    with pytest.raises(ConfigError, match="exceeds n"):
        validate_config(SimConfig(n=10, m=2, wake_times=[0, 11]))


def test_wake_spread_checked_after_normalization():
    cfg = validate_config(SimConfig(n=10, m=2, wake_times=[5, 15]))
    assert cfg.wake_times == [0, 10]
    with pytest.raises(ConfigError):
        validate_config(SimConfig(n=10, m=2, wake_times=[5, 16]))


def test_single_hop_algorithms_need_complete_graph():
    topo = two_clique(4)
    with pytest.raises(ConfigError, match="complete"):
        validate_config(SimConfig(n=8, m=4, wake_times=[0, 1, 2, 3],
                                  topology=topo, algorithm="synchronize"))
    with pytest.raises(ConfigError, match="complete"):
        validate_config(SimConfig(n=8, m=4, wake_times=[0, 1, 2, 3],
                                  topology=topo, algorithm="dynamic-synch"))
    # multi-hop baselines accept it
    validate_config(SimConfig(n=8, m=4, wake_times=[0, 1, 2, 3],
                              topology=topo, algorithm="naive"))


def test_wake_count_must_match_m():
    with pytest.raises(ConfigError, match="wake"):
        validate_config(SimConfig(n=4, m=3, wake_times=[0, 1]))


@pytest.mark.parametrize("cfg, match", [
    (SimConfig(n=4, m=2, wake_times=[0, 1], topology=complete_topology(3), algorithm="naive"),
     "topology has 3 vertices, config has m=2"),
    (SimConfig(n=4, m=2, wake_times="uniform-spread", fractional=True),
     "fractional mode requires explicit wake times"),
], ids=["topology-m", "fractional-generator"])
def test_config_parts_must_agree(cfg, match):
    with pytest.raises(ConfigError, match=match):
        validate_config(cfg)


@pytest.mark.parametrize("bad", ["abc", "1/0", None, 0.1, True])
def test_malformed_fractional_wake_rejected(bad):
    with pytest.raises(ConfigError, match="rational"):
        validate_config(SimConfig(n=4, m=2, wake_times=["0", bad], fractional=True))


@pytest.mark.parametrize("field, value", [
    ("k_override", 2.5), ("max_ticks", 10.5), ("n", "8"), ("n", True), ("n", 8.5),
    ("m", 2.0), ("m", None), ("max_ticks", False),
    # with seeded-random wakes, seed=None drew other wakes on each run,
    # seed=True ran seed 1 under another digest and seed=[1] raised TypeError
    ("seed", None), ("seed", True), ("seed", [1]), ("seed", "7"),
])
def test_integer_fields_must_be_ints(field, value):
    # each once ran, or failed with another exception than ConfigError
    cfg = SimConfig(**{"n": 8, "m": 2, field: value})
    with pytest.raises(ConfigError, match=f"{field} must be an int"):
        validate_config(cfg)


@pytest.mark.parametrize("value", ["no", 1, 0, None])
def test_fractional_must_be_a_bool(value):
    # "no" once ran the fractional engine and wrote "no" into the digest
    cfg = SimConfig(n=4, m=2, wake_times=[0, 1], algorithm="naive", fractional=value)
    with pytest.raises(ConfigError, match="fractional must be a bool"):
        validate_config(cfg)


@pytest.mark.parametrize("field, value", [
    # once TypeError, AttributeError, or a run
    ("wake_times", 5), ("wake_times", None), ("wake_times", {0: 0, 1: 1}),
    ("topology", 5), ("topology", None), ("topology", [(1, 2)]),
])
def test_wake_times_and_topology_types(field, value):
    cfg = SimConfig(**{"n": 4, "m": 2, "algorithm": "naive", field: value})
    with pytest.raises(ConfigError, match=f"{field} must be"):
        validate_config(cfg)


@pytest.mark.parametrize("entry", [validate_config, run, run_fractional, World])
@pytest.mark.parametrize("cfg", [None, {"n": 3, "m": 2}, "synchronize", 5])
def test_a_config_must_be_a_simconfig(entry, cfg):
    # each once raised AttributeError: ... has no attribute 'n'
    with pytest.raises(ConfigError, match="must be a SimConfig"):
        entry(cfg)


def test_unknown_algorithm_rejected():
    # an unhashable name must not reach the registry's dict lookup
    for algorithm in ("bogus", ["naive"], None):
        with pytest.raises(ConfigError, match="algorithm"):
            validate_config(SimConfig(n=4, m=1, wake_times=[0], algorithm=algorithm))


def test_generators():
    assert generate_wakes("uniform-spread", 10, 1, 0) == [0]
    assert generate_wakes("uniform-spread", 10, 3, 0) == [0, 5, 10]
    assert generate_wakes("adversarial-clustered", 10, 5, 0) == [0, 0, 0, 10, 10]
    a = generate_wakes("seeded-random", 100, 8, 7)
    b = generate_wakes("seeded-random", 100, 8, 7)
    assert a == b
    assert all(0 <= w <= 100 for w in a)
    with pytest.raises(ConfigError, match="choose from") as err:
        generate_wakes("spread", 10, 3, 0)
    assert all(kind in str(err.value) for kind in WAKE_GENERATORS)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=6),
       st.data())
def test_validation_idempotent(n, m, data):
    wakes = data.draw(st.lists(st.integers(min_value=0, max_value=n),
                               min_size=m, max_size=m))
    cfg = SimConfig(n=n, m=m, wake_times=wakes)
    once = validate_config(cfg)
    twice = validate_config(once)
    assert once == twice


def test_topology_helpers():
    t = complete_topology(4)
    assert len(t.edges) == 6
    assert t.is_complete
    assert t.adjacency()[2] == {1, 3, 4}


# --- the complete topology, built once per m -----------------------------------

def test_complete_topology_is_built_once_per_m():
    assert complete_topology(6) is complete_topology(6)
    assert build_topology("complete", 6) is complete_topology(6)
    assert complete_topology(6) is not complete_topology(7)


def test_validated_configs_of_one_m_share_the_complete_topology():
    a = validate_config(SimConfig(n=8, m=5, wake_times=[0, 1, 2, 3, 4]))
    b = validate_config(SimConfig(n=16, m=5, wake_times="seeded-random", algorithm="naive"))
    c = validate_config(SimConfig(n=8, m=4, wake_times=[0, 1, 2, 3]))
    assert a.topology is b.topology is complete_topology(5)
    assert c.topology is not a.topology and c.topology.m == 4


# lru_cache takes True == 1 and 2.0 == 2 for one key (by keyword always, and
# positionally when the first call was not a plain int): the check runs first
@pytest.mark.parametrize("by_keyword", [False, True])
@pytest.mark.parametrize("bad", [True, False, 2.0, 1.0, "2", None])
def test_a_memo_hit_never_stands_in_for_a_rejected_m(bad, by_keyword):
    call = (lambda m: complete_topology(m=m)) if by_keyword else complete_topology
    call(1), call(2)
    with pytest.raises(ConfigError, match="m must be an int"):
        call(bad)


def test_a_refused_m_is_not_cached():
    core._complete_topology.cache_clear()
    for _ in range(2):
        with pytest.raises(ConfigError, match="m must be >= 1"):
            complete_topology(0)
    info = core._complete_topology.cache_info()
    assert info.currsize == 0 and info.hits == 0


def test_the_memo_keeps_at_most_eight_topologies():
    for m in range(1, 21):
        t = complete_topology(m)
        assert t.m == m and t.kind == "complete" and len(t.edges) == m * (m - 1) // 2
    assert core._complete_topology.cache_info().currsize <= 8


# (True, 2) once ran as (1, 2), with another digest: the config echo wrote true
@pytest.mark.parametrize("edge", [(1, 2, 3), (1,), (1, "2"), (2, 1), (0, 1), (1, 3), "12",
                                  (True, 2)])
def test_malformed_edges_rejected(edge):
    with pytest.raises(ConfigError, match="bad edge"):
        Topology(m=2, edges=frozenset({edge}))


@pytest.mark.parametrize("m, edges, kind, match", [
    # each once raised TypeError, or (m=True) built a graph
    pytest.param("2", frozenset({(1, 2)}), "edge-list", "m must be an int",
                 id="2-edges0-m must be an int"),
    pytest.param(True, frozenset(), "edge-list", "m must be an int",
                 id="True-edges1-m must be an int"),
    pytest.param(2.0, frozenset(), "edge-list", "m must be an int",
                 id="2.0-edges2-m must be an int"),
    pytest.param(2, None, "edge-list", "edges must be a set", id="2-None-edges must be a set"),
    pytest.param(2, 5, "edge-list", "edges must be a set", id="2-5-edges must be a set"),
    # each once built a Topology: validate_config's m check stopped the
    # first two later, and the trace echoed the third's "kind": 5
    pytest.param(-1, frozenset(), "edge-list", "m must be >= 1", id="m-negative"),
    pytest.param(0, frozenset(), "edge-list", "m must be >= 1", id="m-zero"),
    pytest.param(2, frozenset({(1, 2)}), 5, "kind must be a str", id="kind-int"),
])
def test_malformed_topology_rejected(m, edges, kind, match):
    with pytest.raises(ConfigError, match=match):
        Topology(m=m, edges=edges, kind=kind)


class Pair(tuple):
    """A tuple subclass: the per-edge rule takes it."""


def _edge_ok(e, m):
    """The per-edge rule, written out: a tuple of two int endpoints (not
    bools), 1 <= u < v <= m."""
    return (isinstance(e, tuple) and len(e) == 2 and all(type(x) is int for x in e)
            and 1 <= e[0] < e[1] <= m)


def assert_checked_by_the_rule(m, edges):
    """Topology raises ConfigError exactly when the rule rejects an edge, and
    names an edge it rejects."""
    bad = [e for e in edges if not _edge_ok(e, m)]
    if not bad:
        assert Topology(m=m, edges=edges).edges == edges
        return
    with pytest.raises(ConfigError, match="bad edge") as err:
        Topology(m=m, edges=edges)
    assert str(err.value) in {f"bad edge {e!r} for m={m}" for e in bad}


EDGE_JUNK = [(1.0, 2), (1, 2.0), (True, 2), (2, True), "12", 12, (2,), (1, 2, 3), (1, "2"),
             (None, 1), 1.5, ()]


@st.composite
def edge_sets(draw):
    """(m, edges): good edges and junk mixed, from none up to every pair."""
    m = draw(st.integers(1, 7))
    ends = st.integers(-1, m + 1)
    good = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    junk = st.tuples(ends, ends) | st.tuples(ends, ends).map(Pair) | st.sampled_from(EDGE_JUNK)
    edges = draw(st.frozensets(junk, max_size=3))
    if good:  # most pairs, so that many sets pass the check
        edges |= frozenset(good) - draw(st.frozensets(st.sampled_from(good)))
    return m, edges


@settings(max_examples=400)
@given(edge_sets())
def test_edge_check_matches_the_per_edge_rule(m_edges):
    assert_checked_by_the_rule(*m_edges)


# every pair of processors 1..5, alone and with one entry on processor 6
# that the per-edge rule must judge
@pytest.mark.parametrize("extra", [None, (0, 6), (1, 9), (6, 2), (6, 6), (True, 6), (1.0, 6),
                                   (1, 6.0), (1, "6"), (1, 2, 6), (6,), 16, "16", Pair((1, 6)),
                                   Pair((2, 9))])
@pytest.mark.parametrize("m", [6, 8])
def test_edge_check_one_odd_entry(m, extra):
    edges = complete_topology(5).edges
    assert_checked_by_the_rule(m, edges if extra is None else edges | {extra})
