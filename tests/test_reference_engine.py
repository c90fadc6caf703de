"""Each engine against a reference engine that visits every tick.

`World.run` pops events from a heap, gives a lone radio-on tick no event
unless it ends a policy, runs no handler on a tick its protocol class
calls quiet, and delivers each sub-phase from one sorted list, shared on
the complete topology (see the engine module docstring).  The reference
here shares `World`'s set-up, `_schedule` and clock bookkeeping, but not
its loop or its delivery: it steps through every tick from 0 to the
horizon, runs `transmissions`, every PHASES handler and `tick_end` for
every radio on at every radio-on tick, lone radios and quiet ticks
included, and builds each receiver's inbox from the topology, as a plain
list.  The two must give the same digest.

`FracWorld` exchanges at each slot start from one sorted list, filtered
per receiver by which open slots it hears.  Its reference,
`FracReferenceWorld`, walks every key of the slot grid and pairs slots
by the overlap of their radio-on intervals instead.

The engine tallies `sync_complete_tick` as clocks change; a replay of
the trace's clock log alone must find the same tick.

`synchronize` keeps its progress counter J as one int, `t + _jdelta`,
which a reschedule overwrites at its report tick although the next
policy may start later.  Both engines, and the fractional one, run it
here as `StepHistoryProto`, which also keeps J the long way, as a
history of steps, and asserts that the two agree on every read.
"""

import bisect
import dataclasses
import math
from fractions import Fraction
from operator import itemgetter
from unittest.mock import patch

from hypothesis import example, given, settings, strategies as st

from radiosync.adversary import build_topology
from radiosync.core import SimConfig
from radiosync.engine import World
from radiosync.fractional import FracWorld, overlap_fraction, q_prime, run_fractional
from radiosync.protocols import INBOX_ORDER, PROTOCOLS, SynchronizeProto

ALGORITHMS = ["synchronize", "dynamic-synch", "naive", "pairwise"]


class StepHistoryProto(SynchronizeProto):
    """J as a history of (effective tick, jdelta) steps, strictly ascending
    in tick: a step at wake and at each adoption, effective then, and one
    at each reschedule, effective at the first tick the new policy can be
    on.  `j(t)` bisects for the step in force at t, checks it against the
    one int, and counts the read."""

    def __init__(self, world, pid):
        super().__init__(world, pid)
        self._jsteps = []
        self.j_reads = 0

    def _push_jstep(self, eff, val):
        """j(t) = t + val from eff on; steps effective at or after eff are
        dropped, and one of the value the last step holds is not pushed."""
        steps = self._jsteps
        while steps and steps[-1][0] >= eff:
            steps.pop()
        if not steps or steps[-1][1] != val:
            steps.append((eff, val))

    def j(self, t):
        i = bisect.bisect_right(self._jsteps, t, key=itemgetter(0))
        want = t + self._jsteps[i - 1][1] if i else self.tau(t)
        got = super().j(t)
        assert got == want, (self.id, t, got, want, self._jsteps)
        self.j_reads += 1
        return got

    def on_wake(self, t):
        super().on_wake(t)
        self._push_jstep(t, -t)

    def adopt(self, t, inbox):
        msg = super().adopt(t, inbox)
        if msg is not None:
            self._push_jstep(t, msg.j - t)
        return msg

    def _start_execution(self, t, gstart, *args):
        super()._start_execution(t, gstart, *args)
        self._push_jstep(max(gstart, t + 1), -gstart)


def with_step_history(world_cls, cfg):
    """world_cls(cfg), its synchronize processors StepHistoryProto."""
    with patch.dict(PROTOCOLS, synchronize=StepHistoryProto):
        return world_cls(cfg)


class ReferenceWorld(World):
    """Every tick, every handler of every radio on, per-receiver inboxes."""

    def __init__(self, cfg):
        with patch.dict(PROTOCOLS, synchronize=StepHistoryProto):
            super().__init__(cfg)
        self._skip_lone = False  # so every radio-on tick is in _on_map

    def run(self):
        wakes = {}
        for pid, w in enumerate(self.cfg.wake_times, start=1):
            wakes.setdefault(w, []).append(pid)
        for t in range(self.horizon + 1):
            self._settle(t)
            self.tick = t
            for pid in wakes.get(t, ()):
                self._wake(t, pid)
            on = self._on_map.pop(t, None)
            if on:
                self._visit(t, sorted(on))
            if t == 2 * self.n:
                for pid in sorted(self._awake):
                    self.procs[pid].audit(t)
        return self._finish()

    def _visit(self, t, on):
        self.trace.on_sets[t] = tuple(on)
        procs = [self.procs[pid] for pid in on]
        # why one int is J: no radio on holds a j step effective after t
        assert all(p._jsteps[-1][0] <= t for p in procs if getattr(p, "_jsteps", None)), t
        outs = {p.id: p.transmissions(t) for p in procs}
        for name in type(procs[0]).PHASES:
            inboxes = {v: sorted([msg for u in on if u != v and u in self.adj[v]
                                  for msg in outs[u]], key=INBOX_ORDER)
                       for v in on}
            outs = {p.id: getattr(p, name)(t, inboxes[p.id]) for p in procs}
        assert not any(outs.values()), t
        for p in procs:
            p.tick_end(t)


def draw_topology(draw, algorithm):
    """A topology for `algorithm`, multi-hop ones for the baselines."""
    topology = "complete"
    if algorithm in ("naive", "pairwise"):
        topology = draw(st.sampled_from(["complete", "two-clique", "l-connected:1",
                                         "unit-disk"]))
    if topology == "l-connected:1":
        m = draw(st.sampled_from([14, 16]))  # the smallest with L = 1 < m/4 - 2
    elif topology == "complete":
        m = draw(st.integers(1, 8))
    else:
        m = 2 * draw(st.integers(1, 4))
    return build_topology(topology, m)


@st.composite
def small_configs(draw):
    algorithm = draw(st.sampled_from(ALGORITHMS))
    topology = draw_topology(draw, algorithm)
    m, n = topology.m, draw(st.integers(1, 24))
    return SimConfig(n=n, m=m, wake_times=draw(st.lists(st.integers(0, n), min_size=m,
                                                        max_size=m)),
                     topology=topology, algorithm=algorithm,
                     k_override=draw(st.none() | st.integers(1, 6)),
                     max_ticks=draw(st.none() | st.integers(0, 8 * n)))


@settings(max_examples=200, deadline=None)
@given(small_configs())
# fails when naive's quiet ignores _unmet: the shared clock hides the first contact
@example(SimConfig(n=1, m=2, wake_times=[0, 0], algorithm="naive"))
# fails when synchronize's quiet ignores stage2_tick, or when a lone policy
# end gets no event: a lone processor's report ticks and policy ends
@example(SimConfig(n=2, m=1, wake_times=[0], algorithm="synchronize"))
# fails when synchronize's quiet ignores j: one clock, two progress counters
@example(SimConfig(n=3, m=2, wake_times=[0, 1], algorithm="synchronize"))
# fails when dynamic-synch's quiet ignores the initial rounds or the pass
# tick: a lone processor leads at its last initial round, hands off at its
# pass tick
@example(SimConfig(n=1, m=1, wake_times=[0], algorithm="dynamic-synch"))
# fails when dynamic-synch's quiet ignores the initial rounds on a shared
# tick: processor 2 adopts at its wake, then hears init messages on one clock
@example(SimConfig(n=2, m=2, wake_times=[0, 1], algorithm="dynamic-synch"))
# multi-hop: contacts made and missed along a sparse topology, cut short
@example(SimConfig(n=12, m=14, wake_times=[0, 3, 3, 5, 7, 12, 1, 0, 9, 9, 2, 4, 11, 6],
                   topology=build_topology("l-connected:1", 14), algorithm="naive",
                   max_ticks=30))
def test_run_matches_the_reference_engine(cfg):
    want = ReferenceWorld(cfg).run().digest()
    assert with_step_history(World, cfg).run().digest() == want


def sync_tick_from_clock_log(trace):
    """`sync_complete_tick` rebuilt from `trace.clock_events` alone: the
    first tick from which, at the end of every tick to the horizon, all m
    processors are awake (have logged a clock) and hold one global delta
    tau + q - t; None if the horizon's tick ends unsynchronized."""
    by_tick = {}
    for t, owner, tau, q in trace.clock_events:
        by_tick.setdefault(t, {})[owner] = tau + q - t
    deltas, last_unequal, synced = {}, -1, False
    for t in sorted(by_tick):
        if not synced:  # the ticks before t ended as the last event left them
            last_unequal = t - 1
        deltas.update(by_tick[t])
        synced = len(deltas) == trace.m and len(set(deltas.values())) == 1
    return last_unequal + 1 if synced else None


@settings(max_examples=200, deadline=None)
@given(small_configs())
# fails when the tally ignores which processors are awake: processor 1 is
# alone, so on one clock, for five ticks before processor 2 wakes
@example(SimConfig(n=6, m=2, wake_times=[0, 5], algorithm="naive"))
def test_sync_complete_tick_matches_the_clock_log(cfg):
    trace = World(cfg).run()
    assert trace.sync_complete_tick == sync_tick_from_clock_log(trace)


class FracReferenceWorld(FracWorld):
    """Every key of the grid, every pair of recent slots probed by overlap.

    It shares `FracWorld`'s set-up, `_schedule`, `_wake`, `_settle` and
    `_finish`, not its loop, exchange or closes.  At each key it settles,
    wakes, opens the slots that start there, exchanges, closes the slots
    that opened half a unit before (`react`, then `tick_end`, by pid) and
    runs the audit at 2n.  The exchange probes every adjacent pair of slots
    that started within the last unit, one of them now, by
    `overlap_fraction` on their global [start, start + 1) intervals, takes
    q' from `q_prime`, scaled to event keys, and builds each inbox per
    receiver.
    """

    def run(self):
        unit = self.unit
        wakes, slots = {}, {}  # slots: pid -> (start key, start instant, inbox), its latest
        for pid, w in enumerate(self.cfg.wake_times, start=1):
            wakes.setdefault(self._key(w), []).append(pid)
        for key in range((self.horizon + 1) * unit):
            instant = Fraction(key, unit) if key % unit else key // unit
            self._settle(key // unit)
            self.tick = instant
            for pid in wakes.get(key, ()):
                self._wake(instant, pid)
            starters = sorted(self._on_map.pop(key, ()))
            if starters:
                self.trace.on_sets[instant] = tuple(starters)
                for pid in starters:
                    slots[pid] = (key, instant, [])
                self._exchange_at(key, starters, slots)
            for pid in sorted(p for p, (s_key, _, _) in slots.items()
                              if s_key == key - unit // 2):
                self.tick = slots[pid][1]  # a close runs at its slot's start
                t = self._local(pid, slots)
                self.procs[pid].react(t, slots[pid][2])
                self.procs[pid].tick_end(t)
            if key == 2 * self.n * unit:
                self.tick = instant
                for pid in sorted(self._awake):
                    self.procs[pid].audit(instant)
        return self._finish()

    def _local(self, pid, slots):
        """pid's local tick at the start of its latest slot."""
        return math.floor(slots[pid][1] - self.procs[pid].phi)

    def _exchange_at(self, key, starters, slots):
        """Every pair of adjacent slots that overlap by half a unit or more,
        one of them starting at `key`, hears each other."""
        def interval(pid):
            start = slots[pid][1]
            return (start, start + 1)

        recent = [pid for pid, (s_key, _, _) in slots.items() if s_key > key - self.unit]
        inboxes = {}
        for rx in sorted(recent):
            for tx in sorted(recent):
                if tx == rx or tx not in self.adj[rx] or (rx not in starters
                                                          and tx not in starters):
                    continue
                overlap = overlap_fraction(interval(rx), interval(tx))
                if overlap is None:
                    continue
                qp = q_prime(overlap, slots[rx][1] > slots[tx][1]) * self.unit
                assert qp.denominator == 1  # q' in event keys, as the engine counts it
                inboxes.setdefault(rx, []).extend(
                    dataclasses.replace(msg, qp=int(qp))
                    for msg in self.procs[tx].transmissions(self._local(tx, slots)))
        for rx in sorted(inboxes):
            inbox = sorted(inboxes[rx], key=INBOX_ORDER)
            slots[rx][2].extend(inbox)
            self.procs[rx].adopt(self._local(rx, slots), inbox)


@st.composite
def fractional_configs(draw):
    algorithm = draw(st.sampled_from(["synchronize", "naive", "pairwise"]))
    topology = draw_topology(draw, algorithm)
    m, n = topology.m, draw(st.integers(1, 16))
    # rational wakes in [0, n], denominators up to 6
    wakes = [Fraction(x % (n * d + 1), d)
             for d, x in draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 10**6)),
                                       min_size=m, max_size=m))]
    return SimConfig(n=n, m=m, wake_times=wakes, topology=topology,
                     algorithm=algorithm, fractional=True,
                     k_override=draw(st.none() | st.integers(1, 6)),
                     max_ticks=draw(st.none() | st.integers(0, 4 * n)))


@settings(max_examples=150, deadline=None)
@given(fractional_configs())
# fails when the slot that started at 0 hears the other slot that started
# at 0 again at 1/2: it hears only the slots that start after it
@example(SimConfig(n=1, m=3, wake_times=[Fraction(0), Fraction(1, 2), Fraction(0)],
                   algorithm="synchronize", fractional=True))
# fails when q' is the sender's slot start less the receiver's
@example(SimConfig(n=1, m=2, wake_times=[Fraction(0), Fraction(1, 2)],
                   algorithm="synchronize", fractional=True))
def test_run_fractional_matches_the_reference_engine(cfg):
    assert run_fractional(cfg).digest() == FracReferenceWorld(cfg).run().digest()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24), st.lists(st.tuples(st.integers(1, 8), st.integers(0, 10**6)),
                                    min_size=1, max_size=8),
       st.none() | st.integers(1, 6), st.booleans())
def test_fractional_j_matches_the_step_history(n, raw, k_override, cut):
    # rational wakes in [0, n], denominators up to 8
    wakes = [Fraction(x % (n * d + 1), d) for d, x in raw]
    cfg = SimConfig(n=n, m=len(wakes), wake_times=wakes, algorithm="synchronize",
                    fractional=True, k_override=k_override,
                    max_ticks=4 * n if cut else None)
    want = FracWorld(cfg).run().digest()
    assert with_step_history(FracWorld, cfg).run().digest() == want


def test_j_matches_the_step_history():
    # reschedules whose next policy starts later than, and before, the
    # tick after the report: the one int is set early, and J still holds
    for world_cls in (World, ReferenceWorld):
        world = with_step_history(world_cls, SimConfig(n=16, m=8, wake_times="seeded-random",
                                                       seed=2))
        trace = world.run()
        starts = [(r.next_global > r.tick + 1) for r in trace.stage2]
        assert True in starts and False in starts
        for proto in world.procs.values():
            assert len(proto._jsteps) >= 2 and proto.j_reads >= 10, proto.id
