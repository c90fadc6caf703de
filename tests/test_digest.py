"""SimTrace._json() writes the trace's JSON text by hand.

digest() hashes that text and deterministic_view() reads it back.  These
tests hold both against `reference_view`, an independent encoding of the
format as JSON data, whose json.dumps(..., sort_keys=True) must be the
written text.  They compare on runs of every algorithm on both engines, and
on a trace edited by hand so that every field is non-empty and holds the
cases the writer must get right: keys that sort differently as text than
as numbers, Fraction times, None, bools, and strings with quotes,
backslashes and non-ASCII text.
"""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from radiosync.adversary import build_topology
from radiosync.core import SimConfig, Topology, validate_config
from radiosync.engine import PolicyRecord, Stage2Record, _cfg_echo, run
from radiosync.fractional import run_fractional
from radiosync.policy import PolicyString
from radiosync.protocols import PROTOCOLS


def reference_view(trace):
    """The trace format as JSON data, built field by field; `cfg` is the
    trace's own dict."""
    return {
        "cfg": trace.cfg,
        "horizon": str(trace.horizon),
        "wakes": [str(w) for w in trace.wakes],
        "policies": [{
            "owner": p.owner,
            "kind": p.kind,
            "bits": p.policy.as_string(),
            "initial_len": p.policy.initial_len,
            "nominal_start": str(p.nominal_start),
            "effective_from": str(p.effective_from),
            "phase": p.phase,
            "meta": {k: str(v) for k, v in sorted(p.meta.items())},
        } for p in trace.policies],
        "on_sets": {str(t): list(s) for t, s in sorted(trace.on_sets.items())},
        "clock_events": [[str(t), o, str(tau), str(q)] for t, o, tau, q in trace.clock_events],
        "stage2": [{
            "owner": r.owner,
            "tick": str(r.tick),
            "frozen_j": str(r.frozen_j),
            "member_ids": list(r.member_ids),
            "len_c": str(r.len_c),
            "ell": r.ell,
            "mu": r.mu,
            "next_local": str(r.next_local),
            "next_global": str(r.next_global),
            "phase": r.phase,
            "clamped": r.clamped,
        } for r in trace.stage2],
        "dyn_events": [[str(t), kind, owner, [str(x) for x in payload]]
                       for t, kind, owner, payload in trace.dyn_events],
        "edge_contacts": {f"{u}-{v}": [str(t), str(d)]
                          for (u, v), (t, d) in sorted(trace.edge_contacts.items())},
        "flags": sorted(trace.flags),
        "energy": {str(o): c for o, c in sorted(trace.energy_counts.items())},
        "sync_complete_tick": None if trace.sync_complete_tick is None
        else str(trace.sync_complete_tick),
        "final_clocks": {str(o): [str(a), str(b)]
                         for o, (a, b) in sorted(trace.final_clocks.items())},
    }


def assert_written_as_reference(trace):
    ref = reference_view(trace)
    blob = json.dumps(ref, sort_keys=True).encode()
    assert trace.digest() == hashlib.sha256(blob).hexdigest()
    view = trace.deterministic_view()
    assert view == ref
    assert view["cfg"] is trace.cfg


def simulate(cfg):
    return run_fractional(cfg) if cfg.fractional else run(cfg)


@st.composite
def small_configs(draw):
    algorithm = draw(st.sampled_from(list(PROTOCOLS)))
    fractional = algorithm != "dynamic-synch" and draw(st.booleans())
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 6))
    topology = "complete"
    if algorithm in ("naive", "pairwise") and m % 2 == 0:
        topology = draw(st.sampled_from(["complete", "two-clique", "unit-disk"]))
    if fractional:
        den = draw(st.integers(1, 6))
        wakes = [Fraction(draw(st.integers(0, n * den)), den) for _ in range(m)]
    else:
        wakes = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    return SimConfig(n=n, m=m, wake_times=wakes, topology=build_topology(topology, m),
                     algorithm=algorithm, fractional=fractional,
                     k_override=draw(st.none() | st.integers(1, 8)),
                     max_ticks=draw(st.none() | st.integers(0, 8 * n)))


@settings(max_examples=150, deadline=None)
@given(small_configs())
# l-connected needs m >= 14
@example(SimConfig(n=20, m=14, wake_times="seeded-random", seed=3,
                   topology=build_topology("l-connected:1", 14), algorithm="naive"))
@example(SimConfig(n=20, m=14, wake_times=[Fraction(i, 3) for i in range(14)],
                   topology=build_topology("l-connected:1", 14), algorithm="pairwise",
                   fractional=True))
# more than nine processors: energy and final_clocks keys sort as "10" < "2"
@example(SimConfig(n=64, m=12, wake_times="seeded-random", seed=5, algorithm="synchronize"))
@example(SimConfig(n=32, m=11, wake_times="seeded-random", seed=2, algorithm="dynamic-synch"))
def test_written_digest_is_the_hash_of_the_view(cfg):
    assert_written_as_reference(simulate(cfg))


@pytest.mark.parametrize("fractional", [False, True])
def test_run_cut_short_writes_null_sync_tick(fractional):
    cfg = SimConfig(n=16, m=4, wake_times=[0, 5, 9, 16], algorithm="synchronize",
                    max_ticks=12, fractional=fractional)
    trace = simulate(cfg)
    assert trace.sync_complete_tick is None
    assert_written_as_reference(trace)


def test_every_field_filled_by_hand():
    trace = run(SimConfig(n=64, m=12, wake_times="seeded-random", seed=1,
                          algorithm="synchronize"))
    assert trace.stage2 and trace.final_clocks
    odd = 'q"uote \\back café ☃'
    # the view hands out the trace's own cfg, as a benchmark job edits it
    trace.deterministic_view()["cfg"].pop("fractional")
    trace.cfg["note"] = odd
    trace.wakes[1] = Fraction(7, 3)
    trace.on_sets = {100: (10,), 9: (1,), 99: (2, 10), 10: (1, 2, 11), Fraction(21, 2): (3,)}
    trace.clock_events.append((Fraction(9, 2), 10, Fraction(5, 2), Fraction(-1, 2)))
    trace.dyn_events = [(Fraction(7, 2), odd, 3, (1, odd, Fraction(1, 3))), (12, "q", 10, ())]
    trace.edge_contacts = {(1, 10): (5, -1), (1, 2): (Fraction(9, 2), 0), (2, 10): (7, 3),
                           (10, 11): (1, Fraction(-1, 4))}
    trace.flags = ["z", odd, "pass-without-head p3 t12", "é"]
    trace.energy_counts[10] = 7
    trace.final_clocks[11] = (Fraction(41, 2), Fraction(1, 2))
    trace.sync_complete_tick = Fraction(77, 2)
    trace.policies[0].meta = {odd: odd, "slot": 3, "origin": 10}
    trace.policies.append(PolicyRecord(owner=10, kind=odd, policy=PolicyString((0, 1), 1),
                                       nominal_start=Fraction(5, 2), effective_from=4,
                                       phase=None, meta={"ü": Fraction(1, 2)}))
    trace.stage2.append(Stage2Record(owner=11, tick=Fraction(13, 2), frozen_j=-1,
                                     member_ids=(2, 10, 11), len_c=4, ell=3, mu=0,
                                     next_local=20, next_global=Fraction(41, 2), phase=2,
                                     clamped=True))
    view = reference_view(trace)
    assert all(value not in (None, [], {}) for value in view.values())
    assert {rec["phase"] is None for rec in view["policies"]} == {True, False}
    assert {rec["clamped"] for rec in view["stage2"]} == {True, False}
    assert_written_as_reference(trace)


# the complete topology's echo is built from combinations() without a sort;
# every topology must echo the sorted [u, v] pairs of its edges
@pytest.mark.parametrize("spec, m", [("complete", 1), ("complete", 2), ("complete", 9),
                                     ("two-clique", 8), ("l-connected:1", 14),
                                     ("unit-disk", 8)])
def test_cfg_echo_edges_are_the_sorted_pairs(spec, m):
    topology = build_topology(spec, m)
    cfg = validate_config(SimConfig(n=8, m=m, topology=topology, algorithm="naive"))
    edges = _cfg_echo(cfg, 3, 8)["topology"]["edges"]
    assert edges == sorted(list(e) for e in topology.edges)
    assert {type(x) for e in edges for x in e} <= {int}


# a Topology keeps a frozen copy of the set it is given: an edge added to that
# set afterwards would make is_complete true, and adjacency() and the echo
# those of the complete graph
def test_topology_edges_frozen_at_construction():
    given_edges = {(1, 2), (1, 3)}
    topology = Topology(m=3, edges=given_edges)
    given_edges.add((2, 9))
    cfg = validate_config(SimConfig(n=8, m=3, topology=topology, algorithm="naive"))
    assert topology.adjacency() == {1: {2, 3}, 2: {1}, 3: {1}}
    assert _cfg_echo(cfg, 3, 8)["topology"]["edges"] == [[1, 2], [1, 3]]
    assert run(cfg).cfg["topology"]["edges"] == [[1, 2], [1, 3]]
