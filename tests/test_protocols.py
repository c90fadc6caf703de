import dataclasses
import random
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from radiosync.core import SimConfig, ceil_log2
from radiosync.engine import World, energy, run
from radiosync.protocols import (INBOX_ORDER, PROTOCOLS, DynamicProto, Inbox, Message,
                                 NaiveProto, ceil_sqrt, dynamic_next, flatten_next,
                                 sync_winner)


# --- pure operations -------------------------------------------------------

def _beacon(sender, tau, j):
    return Message(kind="sync", sender=sender, tau=tau, j=j)


def _adopted(state, inbox):
    """(id, tau, j) after the early-sync rule over (id, tau, j) messages."""
    pid, tau, j = state
    best = sync_winner(j, pid, [_beacon(*msg) for msg in inbox])
    return state if best is None else (pid, best.tau, best.j)


def test_early_sync_adopts_larger_progress():
    best = sync_winner(3, 7, [_beacon(2, 25, 9)])
    assert (best.sender, best.tau, best.j) == (2, 25, 9)
    assert _adopted((7, 10, 3), [(2, 25, 9)]) == (7, 25, 9)


def test_early_sync_tie_breaks_on_id():
    # equal progress: the smaller id yields
    assert sync_winner(4, 1, [_beacon(2, 12, 4)]).tau == 12
    assert _adopted((1, 10, 4), [(2, 12, 4)]) == (1, 12, 4)
    assert sync_winner(4, 2, [_beacon(1, 12, 4)]) is None


def test_early_sync_keeps_earlier_clock():
    assert sync_winner(9, 1, [_beacon(2, 3, 3)]) is None


def test_early_sync_winner_is_first_maximum():
    inbox = [_beacon(3, 40, 8), _beacon(5, 20, 6), _beacon(4, 41, 8)]
    assert sync_winner(5, 1, inbox) is inbox[2]
    assert sync_winner(8, 4, inbox) is None
    assert sync_winner(8, 3, inbox) is inbox[2]


def _shared_inboxes(on, beacons):
    """The inboxes of one shared sub-phase on the complete topology: the
    radios `on` send the (sender, tau, j) `beacons`."""
    world = World(SimConfig(n=8, m=max(on), algorithm="naive"))
    outs = [[_beacon(*b) for b in beacons if b[0] == pid] for pid in on]
    return world._exchange(0, on, outs)


@pytest.mark.parametrize("on, beacons, receiver, j, winner", [
    # the receiver sent the best pair, but its progress is lower now
    ([1, 2, 3, 4], [(1, 30, 5), (2, 31, 5), (3, 40, 9)], 3, 4, 2),
    ([1, 2, 3, 4], [(1, 40, 9), (2, 30, 5), (3, 31, 5)], 1, 4, 3),
    # one sender: the others hear it, it hears nothing
    ([1, 2, 3, 4], [(2, 20, 3)], 1, 1, 2),
    ([1, 2, 3, 4], [(2, 20, 3)], 2, 3, None),
    # equal progress: the larger id wins, and yields to a larger receiver
    ([2, 3, 4, 5], [(2, 12, 7), (3, 14, 7), (4, 13, 7)], 3, 7, 4),
    ([2, 3, 4, 5], [(2, 12, 7), (3, 14, 7), (4, 13, 7)], 5, 7, None),
    # the best other sender does not beat the receiver's own pair
    ([1, 2, 3, 4], [(1, 8, 2), (2, 9, 3), (4, 1, 6)], 4, 6, None),
    ([1, 2, 3, 4], [(1, 8, 2), (2, 9, 3), (4, 1, 6)], 3, 7, None),
    # two radios on: the receiver sent lead[0], and the other sender is lead[1]
    ([1, 2], [(1, 30, 5), (2, 40, 9)], 2, 4, 1),
    ([1, 2], [(1, 30, 5), (2, 40, 9)], 1, 4, 2),
    # three radios on, two senders: the receiver sent lead[0], the other is heard
    ([1, 2, 3], [(1, 40, 9), (3, 30, 5)], 1, 4, 3),
    ([1, 2, 3], [(1, 40, 9), (3, 30, 5)], 2, 9, None),
], ids=["receiver-best", "receiver-best-tie", "one-sender-heard", "one-sender-itself", "tie-on-j",
        "tie-on-j-receiver-larger", "no-beat-receiver-best", "no-beat", "two-radios-receiver-best",
        "two-radios-other-best", "three-radios-receiver-best", "three-radios-no-beat"])
def test_early_sync_on_a_shared_inbox(on, beacons, receiver, j, winner):
    box = _shared_inboxes(on, beacons)[receiver]
    assert type(box) is Inbox
    best = sync_winner(j, receiver, box)
    assert best is sync_winner(j, receiver, list(box))  # the scan over the same messages
    assert (best and best.sender) == winner


@given(st.integers(1, 50), st.integers(0, 100),
       st.lists(st.tuples(st.integers(2, 60), st.integers(0, 100)), min_size=1, max_size=8))
def test_early_sync_matches_sequential_processing(own_j, own_tau, peers):
    # sequential ascending-id processing equals the one-shot maximum rule
    # whenever equal-progress senders carry equal clocks, which is what the
    # protocols guarantee (progress and clock travel together)
    base_tau = {}
    inbox = []
    seen = set()
    for pid, j in peers:
        if pid in seen:
            continue
        seen.add(pid)
        tau = base_tau.setdefault(j, j + 17)
        inbox.append((pid, tau, j))
    inbox.sort()
    state = (1, own_tau, own_j)
    sequential = state
    for msg in inbox:
        sequential = _adopted(sequential, [msg])
    assert _adopted(state, inbox) == sequential


def test_flatten_next_examples():
    assert flatten_next(20, 40, 10, 4, 0, 2) == 77
    assert flatten_next(20, 40, 10, 4, 3, 2) == 89
    # a lone schedule recentres exactly 2n later
    for n, k in ((7, 2), (50, 5)):
        assert flatten_next(n, 0, k * k, 1, 0, k) == 2 * n


def test_flatten_next_floor_is_exact():
    # odd differences must round toward minus infinity
    assert flatten_next(10, 0, 5, 2, 0, 2) == 2 * 10 + (5 - 8) // 2
    assert (5 - 8) // 2 == -2


def test_flatten_next_validates():
    with pytest.raises(ValueError):
        flatten_next(10, 0, 5, 0, 0, 2)
    with pytest.raises(ValueError):
        flatten_next(10, 0, 5, 2, 2, 2)


def test_dynamic_next_examples():
    assert dynamic_next(3, True, True, 0, 0) == 3
    assert dynamic_next(3, False, True, 2, 0) == 9
    assert dynamic_next(3, False, False, 3, 4) == 14


def test_ceil_sqrt():
    assert ceil_sqrt(1) == 1
    assert ceil_sqrt(99) == 10
    assert ceil_sqrt(100) == 10
    assert ceil_sqrt(101) == 11


# --- phased algorithm behaviour --------------------------------------------

def test_relay_chain_adopts_earliest_clock():
    # wakes 0, k, 2k with k=3: hand-traced contacts at ticks 5 and 8 pull
    # every clock onto processor 1's
    tr = run(SimConfig(n=6, m=3, wake_times=[0, 3, 6],
                       algorithm="synchronize", k_override=3))
    assert tr.sync_complete_tick == 8
    for pid in (1, 2, 3):
        assert tr.tau_at(pid, 10) == 10


def test_simultaneous_wakers_adopt_larger_id():
    tr = run(SimConfig(n=4, m=2, wake_times=[0, 0],
                       algorithm="synchronize", k_override=2))
    # both display the same value from the very first tick; the larger id
    # is the one that never adopts
    events_p2 = [e for e in tr.clock_events if e[1] == 2]
    assert len(events_p2) == 1  # wake only, no adoption
    assert tr.sync_complete_tick == 0


def test_single_processor_policy_progress_at_completion():
    tr = run(SimConfig(n=6, m=1, wake_times=[0],
                       algorithm="synchronize", k_override=3))
    recs = [r for r in tr.stage2 if r.phase == 1]
    assert len(recs) == 1
    assert recs[0].frozen_j == 3 * 3 + 3 - 1
    assert recs[0].tick == 0 + 2 * 6  # rendezvous lands 2n after the start


def test_synchronize_runs_fixed_phase_count():
    n, m = 16, 4
    tr = run(SimConfig(n=n, m=m, wake_times="uniform-spread", algorithm="synchronize"))
    L = ceil_log2(n)
    for pid in range(1, m + 1):
        basics = [r for r in tr.policies if r.owner == pid and r.kind == "basic"]
        blips = [r for r in tr.policies if r.owner == pid and r.kind == "stage2"]
        assert len(basics) == L + 1
        assert len(blips) == L


def test_clock_monotonicity():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.choice([8, 16, 64, 256])
        m = rng.choice([2, 4, 8])
        alg = rng.choice(["synchronize", "dynamic-synch", "naive"])
        tr = run(SimConfig(n=n, m=m, wake_times="seeded-random",
                           seed=rng.randint(0, 10**6), algorithm=alg))
        per = {}
        for t, pid, tau, _q in tr.clock_events:
            if pid in per:
                t0, tau0 = per[pid]
                assert tau >= tau0 + (t - t0), (alg, n, m, pid)
            per[pid] = (t, tau)


# --- queue-based algorithm behaviour ----------------------------------------

def test_lone_leader_block_follows_initial_part():
    tr = run(SimConfig(n=8, m=1, wake_times=[0], algorithm="dynamic-synch",
                       k_override=3))
    blocks = [r for r in tr.policies if r.kind == "dyn-block"]
    assert len(blocks) == 1
    assert blocks[0].meta["origin"] == 3 - 1  # wake + next - 1 with next = k
    # main on-rounds 2k..k^2+k from wake, hand-off k later
    assert sorted(tr.on_sets) [:3] == [0, 1, 2]


def test_follower_block_abuts_leader_pass_tick():
    # two processors, second wakes mid-initial-part of the first: the
    # follower's first main on-tick is exactly the leader's hand-off tick
    k = 3
    tr = run(SimConfig(n=6, m=2, wake_times=[0, 2], algorithm="dynamic-synch",
                       k_override=k))
    blocks = {r.owner: r.meta["origin"] for r in tr.policies if r.kind == "dyn-block"}
    assert blocks[2] == blocks[1] + k * k
    leader_pass = blocks[1] + k * k + k
    follower_first_main = blocks[2] + k
    assert follower_first_main == leader_pass
    assert not tr.flags


def test_simultaneous_wakers_smaller_id_follows():
    k = 3
    tr = run(SimConfig(n=4, m=2, wake_times=[0, 0], algorithm="dynamic-synch",
                       k_override=k))
    leads = [(t, pid) for t, kind, pid, _p in tr.dyn_events if kind == "lead"]
    assert leads == [(k - 1, 2)]  # the larger id wins at round k
    accepts = [(pid, payload) for t, kind, pid, payload in tr.dyn_events
               if kind == "accept"]
    assert accepts == [(1, (2, 2, 0))]  # queue position 2 from the winner
    blocks = {r.owner: r.meta["origin"] for r in tr.policies if r.kind == "dyn-block"}
    assert blocks[1] == blocks[2] + k * k


def test_dynamic_chain_origins_are_block_aligned():
    tr = run(SimConfig(n=64, m=8, wake_times="uniform-spread",
                       algorithm="dynamic-synch"))
    k = tr.k
    origins = sorted(r.meta["origin"] for r in tr.policies if r.kind == "dyn-block")
    assert origins == [origins[0] + i * k * k for i in range(len(origins))]
    assert not tr.flags


def test_dynamic_extra_policy_runs_at_two_n():
    n = 16
    tr = run(SimConfig(n=n, m=4, wake_times=[0, 3, 9, 16], algorithm="dynamic-synch"))
    wakes = {i + 1: w for i, w in enumerate(tr.wakes)}
    step5 = [r for r in tr.policies if r.kind == "dyn-step5"]
    assert len(step5) == 4
    for r in step5:
        assert r.nominal_start == wakes[r.owner] + 2 * n


class _OneByOne(DynamicProto):
    """Builds every message by keyword, one at a time, each resp through _msg."""

    def _msg(self, t, kind, payload=()):
        return Message(kind=kind, sender=self.id, tau=self.tau(t), j=self.j(t),
                       payload=tuple(payload), q=self.carry)

    def _responses(self, t, progress):
        return [self._msg(t, "resp", (dest, pos, progress))
                for pos, dest in enumerate(self.q, start=1)]


def _messages_built(cls, cfg):
    """A dynamic-synch run with cls as its protocol: its trace, and every
    message its handlers built, field by field, in the order sent."""
    built = []
    exchange = World._exchange

    def recording(world, t, on_sorted, outs):
        built.extend((t, pid, dataclasses.astuple(msg))
                     for pid, out in zip(on_sorted, outs) for msg in out)
        return exchange(world, t, on_sorted, outs)

    with patch.dict(PROTOCOLS, {"dynamic-synch": cls}), patch.object(World, "_exchange", recording):
        return World(cfg, record_messages=True).run(), built


@pytest.mark.parametrize("n, m, wakes, seed", [
    (64, 8, "uniform-spread", 0), (256, 16, "seeded-random", 3), (16, 4, [0, 0, 5, 16], 0),
])
def test_batched_responses_match_one_by_one(n, m, wakes, seed):
    cfg = SimConfig(n=n, m=m, wake_times=wakes, seed=seed, algorithm="dynamic-synch")
    trace, built = _messages_built(DynamicProto, cfg)
    reference, reference_built = _messages_built(_OneByOne, cfg)
    assert any(fields[0] == "resp" for _t, _pid, fields in built)
    assert built == reference_built
    assert trace.messages == reference.messages
    assert trace.digest() == reference.digest()


@pytest.mark.parametrize("algorithm, kinds", [
    ("dynamic-synch", ("dyn-initial", "dyn-block", "dyn-step5")),
    ("synchronize", ("basic", "stage2")), ("naive", ("naive",)), ("pairwise", ("pairwise",)),
])
def test_each_kind_shares_one_policy_per_world(algorithm, kinds):
    cfg = SimConfig(n=64, m=8, wake_times="seeded-random", algorithm=algorithm)
    one, other = World(cfg), World(cfg)
    trace = one.run()
    for kind in kinds:
        held = [r.policy for r in trace.policies if r.kind == kind]
        assert len(held) >= cfg.m
        assert all(p is one.policies[kind] for p in held)
        assert other.policies[kind] == one.policies[kind]
        assert other.policies[kind] is not one.policies[kind]


def test_dynamic_energy_bound():
    for seed in range(5):
        tr = run(SimConfig(n=256, m=16, wake_times="seeded-random", seed=seed,
                           algorithm="dynamic-synch"))
        rep = energy(tr)
        assert rep.max_energy <= 4 * tr.k + 2


# --- baselines ---------------------------------------------------------------

def test_pairwise_energy_and_contacts():
    n = 100
    tr = run(SimConfig(n=n, m=2, wake_times=[0, n], algorithm="pairwise"))
    rep = energy(tr)
    assert rep.per_processor == {1: 20, 2: 20}  # 2*ceil(sqrt(n)) each
    assert (1, 2) in tr.edge_contacts
    assert rep.sync_complete_tick is None  # differences learned, clocks untouched


def test_pairwise_extreme_offset_always_meets():
    for n in range(1, 201):
        tr = run(SimConfig(n=n, m=2, wake_times=[0, n], algorithm="pairwise"))
        assert (1, 2) in tr.edge_contacts, n


def test_pairwise_learned_difference_is_wake_gap():
    tr = run(SimConfig(n=25, m=2, wake_times=[0, 7], algorithm="pairwise"))
    t, diff = tr.edge_contacts[(1, 2)]
    assert diff in (7, -7)  # clock gap equals the wake offset, sign per side


@st.composite
def contact_subphases(draw):
    """(m, on, sends, deltas, unmet): the sorted radios on, each one's
    messages (0 to 2, one (tau, j) each, payloads apart), every clock, and
    symmetric sets of unmet neighbours, which may name radios that are off."""
    m = draw(st.integers(2, 7))
    on = sorted(draw(st.sets(st.integers(1, m), min_size=2)))
    sends = {v: draw(st.lists(st.sampled_from([(), (1,), (2,)]), max_size=2, unique=True))
             for v in on}
    deltas = {v: draw(st.integers(-5, 5)) for v in range(1, m + 1)}
    pairs = draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, m))
                         .filter(lambda e: e[0] < e[1])))
    unmet = {v: {b if a == v else a for a, b in pairs if v in (a, b)} for v in range(1, m + 1)}
    return m, on, sends, deltas, unmet


@given(contact_subphases())
def test_edge_contacts_agree_on_shared_and_plain_inboxes(case):
    m, on, sends, deltas, unmet = case
    t = 9
    worlds = [World(SimConfig(n=8, m=m, algorithm="naive")) for _ in range(2)]
    for world in worlds:
        for v, p in world.procs.items():
            p._delta, p._unmet = deltas[v], set(unmet[v])
    # each sender's payloads in reverse, so the sort decides its first message
    outs = [[Message("sync", v, t + deltas[v], t, payload) for payload in sends[v][::-1]]
            for v in on]
    shared = worlds[0]._exchange(t, on, outs)
    plain = sorted([msg for out in outs for msg in out], key=INBOX_ORDER)
    for v in on:
        box = shared.get(v, ())
        assert type(box) is (Inbox if shared else tuple)
        worlds[0].procs[v].edge_contacts(t, box)
        worlds[1].procs[v].edge_contacts(t, [msg for msg in plain if msg.sender != v])
    # both against the rule: each receiver in turn meets every unmet sender
    expected, left = {}, {v: set(u) for v, u in unmet.items()}
    for v in on:
        for s in on:
            if sends[s] and s in left[v]:
                left[v].discard(s)
                left[s].discard(v)
                expected[min(v, s), max(v, s)] = (t, deltas[s] - deltas[v])
    for world in worlds:
        assert list(world.trace.edge_contacts.items()) == list(expected.items())
        assert {v: p._unmet for v, p in world.procs.items()} == left


# --- trace-level invariants ---------------------------------------------------

def test_phase_one_relay_exhaustive(sync_exhaustive):
    # every member of a first-phase cluster displays the earliest member's
    # clock by the end of its initial part
    from radiosync import analysis
    from radiosync.engine import SimTrace

    for (n, m, wakes), tr in sync_exhaustive:
        if m == 1:
            continue
        phase1 = [r for r in tr.policies if r.kind == "basic" and r.phase == 1]
        view = SimTrace(cfg={}, n=tr.n, m=tr.m, k=tr.k, horizon=tr.horizon, wakes=[])
        view.policies = phase1
        for c in analysis.clusters(view):
            members = {r.owner: r for r in phase1 if r.owner in c.members}
            starts = sorted((r.nominal_start, -r.owner) for r in members.values())
            first_start = starts[0][0]
            earliest = -starts[0][1]  # greatest id among the first starters
            for pid, r in members.items():
                t_done = r.nominal_start + tr.k - 1  # end of the initial part
                want = tr.tau_at(earliest, t_done)
                got = tr.tau_at(pid, t_done)
                assert got == want, ((n, m, wakes), pid, t_done)


def test_recentring_keeps_members_over_their_offsets():
    # in the clean regime, a processor active at tick t in one phase lies in
    # the cluster covering t + 4n in the next phase
    from radiosync import analysis
    from radiosync.engine import SimTrace, run as _run

    tr = _run(SimConfig(n=1024, m=64, wake_times="seeded-random", seed=7,
                        algorithm="synchronize"))
    n = tr.n
    for phase in (1, 2):
        cur = [r for r in tr.policies if r.kind == "basic" and r.phase == phase]
        nxt = [r for r in tr.policies if r.kind == "basic" and r.phase == phase + 1]
        if any(r.active_start != r.nominal_start for r in cur + nxt):
            continue  # clipped reschedule: coverage guarantee ends here
        view = SimTrace(cfg={}, n=n, m=tr.m, k=tr.k, horizon=tr.horizon, wakes=[])
        view.policies = nxt
        nxt_clusters = analysis.clusters(view)
        for r in cur:
            for pos in r.policy.one_positions:
                target = r.nominal_start + pos + 4 * n
                homes = [c for c in nxt_clusters
                         if c.interval[0] <= target <= c.interval[1]]
                assert homes and all(r.owner in c.members for c in homes), \
                    (phase, r.owner, target)


def test_queue_hand_off_receiver_is_on_and_head():
    for seed in range(4):
        tr = run(SimConfig(n=256, m=16, wake_times="seeded-random", seed=seed,
                           algorithm="dynamic-synch"))
        passes = [(t, pid, payload) for t, kind, pid, payload in tr.dyn_events
                  if kind == "pass-sent"]
        owns = {(t, pid): payload for t, kind, pid, payload in tr.dyn_events
                if kind == "own"}
        for t, sender, queue in passes:
            if not queue:
                continue  # last owner hands an empty queue into the void
            head = queue[0]
            assert head in tr.on_sets.get(t, ()), (seed, t, head)
            assert (t, head) in owns, (seed, t, head)
            assert owns[(t, head)][0] == head


def test_pass_without_head_is_flagged_by_a_lone_radio():
    # a lone processor at its pass tick with another id at its queue head
    # must raise the flag although the engine builds none of its messages
    world = World(SimConfig(n=16, m=1, wake_times=[0], algorithm="dynamic-synch"))
    world.step()
    p1 = world.procs[1]
    while p1.pass_tick is None or world.tick < p1.pass_tick:
        world.step()
    t = world.tick
    p1.q = [2, 1]
    trace = world.trace
    before = (list(trace.flags), list(trace.clock_events))
    for _ in range(2):
        p1.transmissions(t)
    assert (trace.flags, trace.clock_events) == before
    world.step()
    assert trace.on_sets[t] == (1,)
    assert f"pass-without-head p1 t{t}" in trace.flags


class LostHandOffWorld(World):
    """Delivers every message but the queue hand-offs ("pass")."""

    def _exchange(self, t, on_sorted, outs):
        outs = [[msg for msg in out if msg.kind != "pass"] for out in outs]
        return super()._exchange(t, on_sorted, outs)


def test_missing_hand_off_is_flagged_at_the_first_main_tick():
    cfg = SimConfig(n=64, m=8, wake_times="uniform-spread", algorithm="dynamic-synch")
    assert not run(cfg).flags
    # each follower's first main tick is its predecessor's pass tick
    flags = LostHandOffWorld(cfg).run().flags
    assert flags[:2] == ["missing-pass p2 t79", "missing-pass p3 t143"]


# --- quiet ticks -------------------------------------------------------------

def _quiet_procs(algorithm):
    """A finished run's processors, each set to one clock and one j, with no
    report tick, policy end, main tick or pass tick pending, past their
    initial rounds at tick 10, and every edge contact made."""
    world = World(SimConfig(n=8, m=4, wake_times=[0, 2, 3, 5], algorithm=algorithm))
    world.run()
    for p in world.procs.values():
        p._delta = 5
        p._jdelta = 3  # j, where the class keeps its own
        p.stage2_tick = p.cur_end = None
        p.pass_tick, p.main_ticks = None, set()
        if isinstance(p, NaiveProto):  # pairwise is one
            p._unmet = set()
    return world, list(world.procs.values())


@pytest.mark.parametrize("algorithm, change, quiet_after", [
    ("naive", "clock", False), ("naive", "unmet", False),
    # pairwise never adopts, so clocks that differ leave it nothing to do
    ("pairwise", "clock", True), ("pairwise", "unmet", False),
    ("synchronize", "clock", False), ("synchronize", "j", False),
    ("synchronize", "stage2_tick", False), ("synchronize", "cur_end", False),
    ("dynamic-synch", "clock", False), ("dynamic-synch", "wake", False),
    ("dynamic-synch", "main_ticks", False), ("dynamic-synch", "pass_tick", False),
])
def test_each_condition_alone_turns_quiet_off(algorithm, change, quiet_after):
    world, procs = _quiet_procs(algorithm)
    quiet, t, last = PROTOCOLS[algorithm].quiet, 10, procs[-1]
    assert quiet(procs, t)
    if change == "clock":
        last._delta += 1
    elif change == "j":
        last._jdelta = 4
    elif change == "unmet":
        last._unmet = {procs[0].id}
        assert quiet(procs[1:], t)  # an unmet neighbour whose radio is off
    else:
        # the tick itself; for a wake, t is the last initial round
        value = {"wake": t - last.k + 1, "main_ticks": {t}}.get(change, t)
        setattr(last, change, value)
        assert quiet(procs, t + 1)
    assert quiet(procs, t) is quiet_after
