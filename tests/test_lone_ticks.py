"""Lone-tick skipping must leave every trace as it is, and must happen.

On the integer engine a radio-on tick with one radio on gets no event when
the protocol class declares its lone ticks inert (LONE_TICKS_INERT, see
the engine module docstring).  Each run here is compared with the same run
with that declaration switched off, so that every radio-on tick is visited.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from radiosync import protocols
from radiosync.adversary import build_topology
from radiosync.core import SimConfig
from radiosync.engine import World, run

INERT = ["synchronize", "naive", "pairwise"]


class VisitLog(World):
    """A World that logs the key of every radio-on instant it handles."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.visited = []

    def _on_instant(self, key, t):
        self.visited.append(key)
        super()._on_instant(key, t)


def run_both(cfg):
    """The run with lone ticks skipped, and the run that visits them all."""
    skipping = VisitLog(cfg)
    skipping.run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocols.PROTOCOLS[cfg.algorithm], "LONE_TICKS_INERT", False)
        full = VisitLog(cfg)
        full.run()
    assert skipping._skip_lone and not full._skip_lone
    return skipping, full


def alarmed(trace):
    """Every tick SynchronizeProto may alarm: each basic policy's last tick
    and each report exchange."""
    return ({rec.span_end for rec in trace.policies if rec.kind == "basic"}
            | {rec.nominal_start for rec in trace.policies if rec.kind == "stage2"})


@st.composite
def small_configs(draw):
    algorithm = draw(st.sampled_from(INERT))
    n = draw(st.integers(1, 32))
    m = draw(st.integers(1, 8))
    topology = "complete"
    if algorithm != "synchronize" and m % 2 == 0:
        topology = draw(st.sampled_from(["complete", "two-clique", "unit-disk"]))
    return SimConfig(n=n, m=m, wake_times=draw(st.lists(st.integers(0, n), min_size=m,
                                                        max_size=m)),
                     topology=build_topology(topology, m), algorithm=algorithm,
                     k_override=draw(st.none() | st.integers(1, 8)),
                     max_ticks=draw(st.none() | st.integers(0, 8 * n)))


@settings(max_examples=120, deadline=None)
@given(small_configs())
# a late joiner's basic policy ends alone, so completion needs cur_end's alarm
@example(SimConfig(n=16, m=2, wake_times=[0, 16], algorithm="synchronize"))
# clamped and fully-past reschedules: lone report exchanges need stage2's alarm
@example(SimConfig(n=16, m=4, wake_times=[0, 5, 9, 16], algorithm="synchronize",
                   k_override=3))
@example(SimConfig(n=4, m=8, wake_times=[0, 1, 1, 2, 3, 3, 4, 4], algorithm="synchronize",
                   k_override=8))
@example(SimConfig(n=8, m=4, wake_times=[0, 3, 5, 8], topology=build_topology("two-clique", 4),
                   algorithm="naive", max_ticks=12))
@example(SimConfig(n=30, m=6, wake_times=[0, 9, 30, 2, 17, 25],
                   topology=build_topology("unit-disk", 6), algorithm="pairwise"))
def test_skipping_lone_ticks_changes_no_trace(cfg):
    skipping, full = run_both(cfg)
    assert skipping.trace.digest() == full.trace.digest()
    on_sets = full.trace.on_sets
    assert full.visited == sorted(on_sets)
    shared = {t for t, on in on_sets.items() if len(on) > 1}
    lone_visits = set(skipping.visited) - shared
    assert len(skipping.visited) == len(shared) + len(lone_visits)
    if cfg.algorithm == "synchronize":
        assert lone_visits <= alarmed(full.trace)
    else:
        assert not lone_visits


def test_sparse_synchronize_visits_few_radio_on_ticks():
    skipping, full = run_both(SimConfig(n=1024, m=8, wake_times="seeded-random", seed=0,
                                        algorithm="synchronize"))
    on_ticks = len(skipping.trace.on_sets)
    assert len(full.visited) == on_ticks
    assert 10 * len(skipping.visited) < on_ticks


def test_alarm_outside_pending_lone_ticks_does_nothing():
    cfg = SimConfig(n=16, m=2, wake_times=[0, 16], algorithm="naive")
    world = World(cfg)
    world.step()
    trace = world.trace
    lone = sorted(t for t in trace.on_sets if t > world.tick)
    assert lone and not world._on_map
    before = (dict(trace.on_sets), dict(trace.energy_counts))
    for t in (0, world.tick, world.horizon + 1):  # past, current, past the horizon
        world.alarm(1, t)
    assert (trace.on_sets, trace.energy_counts) == before and not world._on_map
    world.alarm(1, lone[0])
    assert world._on_map == {lone[0]: {1}} and lone[0] not in trace.on_sets
    world.alarm(1, lone[0])  # already has its event
    assert world._on_map == {lone[0]: {1}}
    assert world.run().digest() == run(cfg).digest()
