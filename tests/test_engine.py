import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from radiosync import protocols
from radiosync.adversary import build_topology
from radiosync.core import SimConfig
from radiosync.engine import Message, World, energy, run
from radiosync.fractional import FracWorld, run_fractional
from radiosync.policy import PolicyString, basic_policy

ALGORITHMS = list(protocols.PROTOCOLS)


def test_naive_two_processors_sync_in_overlap_window():
    # wakes 0 and 2 with n=4: both radios on over [2, 4]; first shared tick
    # already equalizes the clocks
    tr = run(SimConfig(n=4, m=2, wake_times=[0, 2], algorithm="naive"))
    rep = energy(tr)
    assert rep.sync_complete_tick == 2
    assert rep.sync_complete_tick <= 5
    assert rep.per_processor == {1: 5, 2: 5}


def test_naive_energy_exact():
    for n, m in ((7, 3), (20, 5)):
        tr = run(SimConfig(n=n, m=m, wake_times="uniform-spread", algorithm="naive"))
        assert all(c == n + 1 for c in tr.energy_counts.values())


def test_single_processor_trivially_synchronized():
    for alg in ("synchronize", "dynamic-synch", "naive", "pairwise"):
        tr = run(SimConfig(n=1, m=1, wake_times=[0], algorithm=alg))
        assert tr.sync_complete_tick == 0, alg


def test_determinism_double_run():
    cfg = SimConfig(n=64, m=8, wake_times="seeded-random", seed=3,
                    algorithm="synchronize")
    assert run(cfg).digest() == run(cfg).digest()


def test_step_advances_one_tick():
    w = World(SimConfig(n=4, m=2, wake_times=[0, 2], algorithm="naive"))
    assert w.tick == 0
    w.step()
    assert w.tick == 1


def test_schedule_rejects_policy_ending_off():
    w = World(SimConfig(n=4, m=2, wake_times=[0, 2], algorithm="naive"))
    with pytest.raises(ValueError, match="end with an on-tick"):
        w.procs[1].schedule("naive", PolicyString((1, 0), 1), nominal_start=0)


def test_off_grid_times_raise():
    # an event key is the time times the engine's unit, exactly: a time off
    # that grid must raise, not round onto it
    w = World(SimConfig(n=4, m=2, wake_times=[0, 2], algorithm="naive"))
    assert w.unit == 1
    with pytest.raises(ValueError, match="not a multiple of 1/1"):
        w.procs[1].schedule("naive", PolicyString((1,), 1), nominal_start=Fraction(1, 2))
    fw = FracWorld(SimConfig(n=4, m=3, wake_times=[Fraction(0), Fraction(1, 4), Fraction(5, 6)],
                             algorithm="naive", fractional=True))
    assert fw.unit == 2 * 12
    assert fw._key(Fraction(13, 24)) == 13
    for t in (Fraction(1, 5), Fraction(1, 48)):
        with pytest.raises(ValueError, match="not a multiple of 1/24"):
            fw.procs[1].schedule("naive", PolicyString((1,), 1), nominal_start=t)


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("algorithm", ["synchronize", "naive", "pairwise"])
def test_handled_instants_leave_the_radio_on_map(algorithm, fractional):
    wakes = [0, 3, 5, 9]
    cfg = SimConfig(n=16, m=4, algorithm=algorithm, fractional=fractional,
                    wake_times=[Fraction(w, 2) for w in wakes] if fractional else wakes)
    world = FracWorld(cfg) if fractional else World(cfg)
    trace = world.run()
    assert trace.on_sets and not world._on_map


@pytest.mark.parametrize("algorithm", ["synchronize", "dynamic-synch", "naive", "pairwise"])
def test_stepping_matches_run(algorithm):
    cfg = SimConfig(n=16, m=4, wake_times="seeded-random", seed=5, algorithm=algorithm)
    world = World(cfg)
    while world.tick <= world.horizon:
        world.step()
    ref = run(cfg)
    for attr in ("on_sets", "energy_counts", "clock_events", "policies"):
        assert getattr(world.trace, attr) == getattr(ref, attr), attr


@pytest.mark.parametrize("algorithm", ["synchronize", "dynamic-synch", "naive", "pairwise"])
def test_clock_events_in_tick_order(algorithm):
    cfg = SimConfig(n=16, m=4, wake_times="seeded-random", seed=5, algorithm=algorithm)
    world = World(cfg)
    while world.tick <= world.horizon:
        world.step()
    for trace in (run(cfg), world.trace):
        ticks = [t for t, _o, _tau, _q in trace.clock_events]
        assert len(ticks) >= cfg.m
        assert ticks == sorted(ticks)
    if algorithm == "dynamic-synch":
        return  # not defined on sub-unit offsets
    # the fractional engine logs an adoption at the receiver's slot start,
    # up to half a unit back, so only each owner's events are in tick order
    # (these wakes break the global order for synchronize and naive)
    rng = random.Random(2)
    wakes = [Fraction(rng.randint(0, 16 * 4), 4) for _ in range(4)]
    trace = FracWorld(SimConfig(n=16, m=4, wake_times=wakes, algorithm=algorithm,
                                fractional=True)).run()
    for owner in range(1, cfg.m + 1):
        ticks = [t for t, o, _tau, _q in trace.clock_events if o == owner]
        assert ticks and ticks == sorted(ticks)


def _record_audits(monkeypatch, algorithm):
    calls = []
    monkeypatch.setattr(protocols.PROTOCOLS[algorithm], "audit",
                        lambda self, t: calls.append((self.id, t)))
    return calls


@pytest.mark.parametrize("algorithm, n, wakes, radio_on_at_2n", [
    # dynamic-synch's step-5 policy always turns the earliest radio on at
    # 2n, so the audit on an otherwise empty tick is checked on synchronize
    ("dynamic-synch", 8, [0, 3, 5], True),
    ("synchronize", 4, [0, 0], False),
])
def test_audit_runs_once_per_processor_at_2n(monkeypatch, algorithm, n, wakes,
                                             radio_on_at_2n):
    calls = _record_audits(monkeypatch, algorithm)
    tr = run(SimConfig(n=n, m=len(wakes), wake_times=wakes, algorithm=algorithm))
    assert (2 * n in tr.on_sets) == radio_on_at_2n
    assert calls == [(pid, 2 * n) for pid in range(1, len(wakes) + 1)]


def test_no_audit_when_horizon_ends_before_2n(monkeypatch):
    calls = _record_audits(monkeypatch, "dynamic-synch")
    run(SimConfig(n=8, m=3, wake_times=[0, 3, 5], algorithm="dynamic-synch",
                  max_ticks=15))
    assert calls == []


def test_no_delivery_between_non_neighbors():
    # a two-clique keeps the halves apart except through the bridge
    from radiosync.adversary import two_clique

    topo = two_clique(4)
    cfg = SimConfig(n=4, m=4, wake_times=[0, 0, 0, 0], topology=topo,
                    algorithm="naive")
    tr = World(cfg, record_messages=True).run()
    assert tr.messages
    for t, records in tr.messages.items():
        for sender, kind, payload, receivers in records:
            for r in receivers:
                assert (min(sender, r), max(sender, r)) in topo.edges


def test_radio_off_receives_nothing():
    # processor 2 wakes at n: before that it is off and must hear nothing
    cfg = SimConfig(n=6, m=2, wake_times=[0, 6], algorithm="pairwise")
    tr = World(cfg, record_messages=True).run()
    assert tr.messages
    for t, records in tr.messages.items():
        for sender, kind, payload, receivers in records:
            for r in receivers:
                assert t in tr.on_sets and r in tr.on_sets[t]


def test_message_log_is_opt_in():
    cfg = SimConfig(n=4, m=2, wake_times=[0, 2], algorithm="naive")
    assert run(cfg).messages is None
    assert World(cfg, record_messages=True).run().messages


# synchronize and dynamic-synch run on the complete topology only
@pytest.mark.parametrize("topology, algorithm", [
    *(("complete", alg) for alg in ALGORITHMS),
    *((topo, alg) for topo in ("two-clique", "l-connected:1", "unit-disk")
      for alg in ("naive", "pairwise")),
])
def test_receivers_are_radio_on_neighbours(topology, algorithm):
    cfg = SimConfig(n=16, m=16, wake_times="seeded-random", seed=2,
                    topology=build_topology(topology, 16), algorithm=algorithm)
    tr = World(cfg, record_messages=True).run()
    adj = cfg.topology.adjacency()
    assert tr.messages
    for t, records in tr.messages.items():
        for sender, _kind, _payload, receivers in records:
            assert sender in tr.on_sets[t]
            assert receivers == tuple(v for v in tr.on_sets[t] if v in adj[sender])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_lone_radio_builds_no_messages(monkeypatch, algorithm):
    # a lone radio has no receiver, and a quiet tick runs no handler, so
    # neither calls `transmissions`; any other shared tick calls it once per
    # radio.  Each algorithm has both kinds of shared tick here.  A shared
    # tick with no verdict repeats the radios of the last tick judged quiet,
    # with no busy tick between them (World._on_instant).
    cls = protocols.PROTOCOLS[algorithm]
    calls = []

    def counted(self, t, _orig=cls.transmissions):
        calls.append((t, self.id))
        return _orig(self, t)

    monkeypatch.setattr(cls, "transmissions", counted)
    world = World(SimConfig(n=16, m=4, wake_times="seeded-random", seed=5,
                            algorithm=algorithm))
    verdicts = {}
    world._quiet = lambda procs, t, _quiet=world._quiet: verdicts.setdefault(t, _quiet(procs, t))
    tr = world.run()
    sizes = {len(s) for s in tr.on_sets.values()}
    assert 1 in sizes and max(sizes) > 1
    shared = [t for t, s in tr.on_sets.items() if len(s) > 1]
    last_quiet = None
    for t in sorted({*shared, *verdicts}):
        if t in verdicts:
            last_quiet = tr.on_sets[t] if verdicts[t] else None
        else:
            assert tr.on_sets[t] == last_quiet, t
    busy = [t for t in shared if t in verdicts and not verdicts[t]]
    assert busy and len(busy) < len(shared)
    assert sorted(calls) == sorted((t, pid) for t in busy for pid in tr.on_sets[t])


def _gapped_naive(monkeypatch, k):
    """naive's handlers on the k-basic policy, whose radio sets recur."""
    monkeypatch.setattr(protocols.NaiveProto, "policies",
                        staticmethod(lambda n, _k: {"naive": basic_policy(k)}))


def _same_run_without_repeats(monkeypatch, cfg):
    cls = protocols.PROTOCOLS[cfg.algorithm]
    assert cls.QUIET_BY_STATE
    tr = World(cfg, record_messages=True).run()
    monkeypatch.setattr(cls, "QUIET_BY_STATE", False)
    ref = World(cfg, record_messages=True).run()
    assert tr.messages and tr.messages == ref.messages
    assert tr.digest() == ref.digest()


# naive's radios are on over one stretch each, so a repeated radio set
# follows a quiet tick directly.  On the 4-basic policy ("naive-gapped") the
# radios of a quiet tick come back after busy ticks that moved their clocks.
@pytest.mark.parametrize("algorithm, topology, n, wakes", [
    *((alg, topo, 16, "seeded-random") for alg in ("naive", "pairwise")
      for topo in ("complete", "two-clique", "l-connected:1")),
    ("naive-gapped", "two-clique", 20, [11, 11, 2, 16]),
])
def test_repeated_quiet_radios_change_no_trace(monkeypatch, algorithm, topology, n, wakes):
    if algorithm == "naive-gapped":
        algorithm = "naive"
        _gapped_naive(monkeypatch, 4)
    m = 16 if wakes == "seeded-random" else len(wakes)
    _same_run_without_repeats(monkeypatch, SimConfig(
        n=n, m=m, wake_times=wakes, seed=2, topology=build_topology(topology, m),
        algorithm=algorithm))


def test_the_audit_forgets_the_quiet_radios(monkeypatch):
    # both radios are on at 0-2, 5, 8 and 11 (the 3-basic policy from 0),
    # quiet from 1; processor 1's clock moves at the 2n audit, after tick
    # 8's radio-on event, so tick 11 is busy again
    def audit(self, t):
        if self.id == 1:
            self.set_clock(t, self.tau(t) + 5)

    _gapped_naive(monkeypatch, 3)
    monkeypatch.setattr(protocols.NaiveProto, "audit", audit)
    _same_run_without_repeats(monkeypatch, SimConfig(n=4, m=2, wake_times=[0, 0],
                                                     algorithm="naive"))


def test_repeated_quiet_radios_skip_the_verdict():
    # a dense naive run: most radio-on ticks repeat the radios of the quiet
    # tick before them, and only the others reach `quiet`
    world = World(SimConfig(n=64, m=16, wake_times="seeded-random", seed=0,
                            algorithm="naive"))
    visits, verdicts = [], []
    world._on_instant = lambda key, t, _on=world._on_instant: visits.append(t) or _on(key, t)
    world._quiet = lambda procs, t, _quiet=world._quiet: verdicts.append(t) or _quiet(procs, t)
    world.run()
    assert (len(visits), len(visits) - len(verdicts)) == (116, 76)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_basic_policy_built_once_per_world(algorithm):
    tr = run(SimConfig(n=16, m=4, wake_times="seeded-random", seed=5, algorithm=algorithm))
    basics = [r.policy for r in tr.policies
              if r.kind in ("basic", "dyn-step5", "pairwise", "naive")]
    assert len(basics) >= 4 and len({id(p) for p in basics}) == 1


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_integer_carry_is_int_zero(algorithm):
    tr = run(SimConfig(n=16, m=4, wake_times="seeded-random", seed=5,
                       algorithm=algorithm))
    carries = [q for _t, _o, _tau, q in tr.clock_events]
    carries += [q for _tau, q in tr.final_clocks.values()]
    assert len(carries) >= 2 * 4
    assert all(type(q) is int and q == 0 for q in carries)


def test_zero_carry_adoption_resets_carry():
    cfg = SimConfig(n=4, m=2, wake_times=[Fraction(0), Fraction(1, 2)],
                    algorithm="naive", fractional=True)
    world = FracWorld(cfg)
    world.step()
    proto = world.procs[1]
    t = world.tick
    proto.q_frac = Fraction(1, 3)
    tau = proto.tau(t) + 10
    proto.adopt(t, [Message(kind="sync", sender=2, tau=tau, j=tau)])
    assert proto.q_frac == 0
    assert proto.tau(t) == tau
    assert world.trace.clock_events[-1] == (t, 1, tau, 0)


def test_absorb_must_not_emit(monkeypatch):
    monkeypatch.setattr(protocols.DynamicProto, "absorb",
                        lambda self, t, inbox: [self._msg(t, "sync")])
    # tick 7 of wakes [0] has one radio on and ends dyn-initial, so it is
    # visited; tick 0 of [0, 0, 0] has three
    for wakes, max_ticks in (([0], 7), ([0, 0, 0], 0)):
        cfg = SimConfig(n=8, m=len(wakes), wake_times=wakes, algorithm="dynamic-synch",
                        max_ticks=max_ticks)
        with pytest.raises(RuntimeError, match="absorb phase must not emit"):
            run(cfg)


def test_dropped_world_is_freed_without_the_cycle_collector():
    cfg = SimConfig(n=16, m=4, wake_times="seeded-random", seed=5,
                    algorithm="synchronize")
    gc.disable()
    try:
        world = World(cfg)
        world.step()
        trace = world.run()
        refs = [weakref.ref(world), weakref.ref(trace)]
        del world, trace
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_energy_conservation_recount():
    # the per-processor counters must equal an independent recount of the
    # recorded radio-on sets
    rng = random.Random(1)
    for _ in range(10):
        n = rng.choice([8, 16, 32])
        m = rng.choice([2, 3, 4, 8])
        alg = rng.choice(["synchronize", "dynamic-synch", "naive", "pairwise"])
        tr = run(SimConfig(n=n, m=m, wake_times="seeded-random",
                           seed=rng.randint(0, 999), algorithm=alg))
        recount = {i: 0 for i in range(1, m + 1)}
        for t, on in tr.on_sets.items():
            for pid in on:
                recount[pid] += 1
        assert recount == tr.energy_counts, (n, m, alg)


def test_causality_no_action_before_wake():
    cfg = SimConfig(n=10, m=3, wake_times=[0, 5, 10], algorithm="synchronize")
    tr = run(cfg)
    wakes = {i + 1: w for i, w in enumerate(tr.wakes)}
    for t, on in tr.on_sets.items():
        for pid in on:
            assert t >= wakes[pid]
    for t, pid, _tau, _q in tr.clock_events:
        assert t >= wakes[pid]


def test_horizon_defaults():
    tr = run(SimConfig(n=16, m=4, wake_times="uniform-spread", algorithm="synchronize"))
    k = tr.k
    assert tr.horizon == 4 * 4 * 16 + 2 * 16 + k * k + k + 1
    tr = run(SimConfig(n=16, m=4, wake_times="uniform-spread", algorithm="dynamic-synch"))
    k = tr.k
    assert tr.horizon == 4 * 16 + k * k + k + 2
    tr = run(SimConfig(n=16, m=4, wake_times="uniform-spread", algorithm="naive"))
    assert tr.horizon == 2 * 16 + 17


def test_max_ticks_override_reports_never():
    cfg = SimConfig(n=16, m=4, wake_times="uniform-spread",
                    algorithm="synchronize", max_ticks=3)
    tr = run(cfg)
    assert tr.horizon == 3
    assert tr.sync_complete_tick is None


def test_tau_reconstruction_matches_wake_clock():
    tr = run(SimConfig(n=6, m=2, wake_times=[0, 4], algorithm="naive"))
    # earliest processor never adopts: its clock equals elapsed ticks
    for t in range(0, tr.horizon + 1):
        assert tr.tau_at(1, t) == t
    assert tr.tau_at(2, 3) is None  # before wake
    # snapshots are end-of-tick: at its wake tick the late processor has
    # already heard the earlier clock and adopted it
    assert tr.tau_at(2, 4) == 4


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALGORITHMS), st.integers(1, 12),
       st.lists(st.tuples(st.sampled_from([1, 2, 3, 4]), st.integers(0, 48)),
                min_size=1, max_size=6))
# wakes 0, 7/2 and 9/4: tau_at read 143, 287/2 and 571/4 at the horizon
@example("synchronize", 8, [(1, 0), (2, 7), (4, 9)])
# wakes 0, 1, 1, 1 and 3/2: processor 5 adopts at 167/2, past the horizon 83
@example("synchronize", 5, [(1, 0), (1, 1), (1, 1), (1, 1), (2, 3)])
def test_tau_at_horizon_is_the_final_clock(algorithm, n, raw):
    # the clock at each processor's last tick or slot by the horizon, on
    # integer wakes and, where the algorithm has a fractional timing, on
    # rational ones
    wakes = [Fraction(x % (n * d + 1), d) for d, x in raw]
    traces = [run(SimConfig(n=n, m=len(wakes), wake_times=[math.floor(w) for w in wakes],
                            algorithm=algorithm))]
    if protocols.PROTOCOLS[algorithm].PHASES == ("react",):
        traces.append(run_fractional(SimConfig(n=n, m=len(wakes), wake_times=wakes,
                                               algorithm=algorithm, fractional=True)))
    for tr in traces:
        for pid in range(1, tr.m + 1):
            events = [(t, q) for t, o, _tau, q in tr.clock_events if o == pid]
            tau, q = tr.final_clocks[pid]
            if events[-1][0] <= tr.horizon:
                assert tr.tau_at(pid, tr.horizon) == tau, (pid, tr.wakes)
            else:
                # The fractional engine also runs the slots in (horizon,
                # horizon + 1), and final_clocks reads the clock an adoption
                # there left.  At a default horizon the clocks agree by then,
                # so that adoption can only move the carry between -1/2 and
                # 1/2: the displayed time tau + q is the same.
                q_then = [q for t, q in events if t <= tr.horizon][-1]
                assert tr.tau_at(pid, tr.horizon) + q_then == tau + q, (pid, tr.wakes)
