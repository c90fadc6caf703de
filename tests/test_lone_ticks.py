"""Lone-tick skipping must leave every trace as it is, and must happen.

On the integer engine a radio-on tick with one radio on gets no event
unless it is the last tick of one of its owner's policies (see the engine
module docstring).  Each run here is compared with the reference run that
visits every radio-on tick: the same world with `_skip_lone` cleared before
`run()`, which is the fractional engine's path.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from radiosync.adversary import build_topology
from radiosync.core import SimConfig
from radiosync.engine import World, run
from radiosync.policy import PolicyString

ALGORITHMS = ["synchronize", "dynamic-synch", "naive", "pairwise"]


class VisitLog(World):
    """A World that logs the key of every radio-on instant it handles."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.visited = []

    def _on_instant(self, key, t):
        self.visited.append(key)
        super()._on_instant(key, t)


def run_both(cfg):
    """The run with lone ticks skipped, and the reference run that visits
    them all."""
    skipping = VisitLog(cfg)
    assert skipping._skip_lone
    skipping.run()
    full = VisitLog(cfg)
    full._skip_lone = False
    full.run()
    return skipping, full


def policy_ends(trace):
    """The last tick of every policy that is radio-on there: at or after its
    effective_from and within the horizon."""
    return {rec.span_end for rec in trace.policies
            if rec.effective_from <= rec.span_end <= trace.horizon}


@st.composite
def small_configs(draw):
    algorithm = draw(st.sampled_from(ALGORITHMS))
    n = draw(st.integers(1, 32))
    m = draw(st.integers(1, 8))
    topology = "complete"
    if algorithm in ("naive", "pairwise") and m % 2 == 0:
        topology = draw(st.sampled_from(["complete", "two-clique", "unit-disk"]))
    return SimConfig(n=n, m=m, wake_times=draw(st.lists(st.integers(0, n), min_size=m,
                                                        max_size=m)),
                     topology=build_topology(topology, m), algorithm=algorithm,
                     k_override=draw(st.none() | st.integers(1, 8)),
                     max_ticks=draw(st.none() | st.integers(0, 8 * n)))


@settings(max_examples=160, deadline=None)
@given(small_configs())
# a late joiner's basic policy ends alone, so completion needs cur_end's visit
@example(SimConfig(n=16, m=2, wake_times=[0, 16], algorithm="synchronize"))
# clamped and fully-past reschedules: lone report exchanges need a visit
@example(SimConfig(n=16, m=4, wake_times=[0, 5, 9, 16], algorithm="synchronize",
                   k_override=3))
@example(SimConfig(n=4, m=8, wake_times=[0, 1, 1, 2, 3, 3, 4, 4], algorithm="synchronize",
                   k_override=8))
@example(SimConfig(n=8, m=4, wake_times=[0, 3, 5, 8], topology=build_topology("two-clique", 4),
                   algorithm="naive", max_ticks=12))
@example(SimConfig(n=30, m=6, wake_times=[0, 9, 30, 2, 17, 25],
                   topology=build_topology("unit-disk", 6), algorithm="pairwise"))
# each fails when lone policy ends are not visited
@example(SimConfig(n=5, m=1, wake_times=[5], algorithm="dynamic-synch"))
@example(SimConfig(n=3, m=2, wake_times=[2, 2], algorithm="synchronize"))
@example(SimConfig(n=32, m=2, wake_times=[21, 10], algorithm="synchronize", max_ticks=229))
def test_skipping_lone_ticks_changes_no_trace(cfg):
    skipping, full = run_both(cfg)
    assert skipping.trace.digest() == full.trace.digest()
    on_sets = full.trace.on_sets
    assert full.visited == sorted(on_sets)
    shared = {t for t, on in on_sets.items() if len(on) > 1}
    # strictly increasing, and exactly the shared ticks and the policy ends
    assert skipping.visited == sorted(shared | policy_ends(full.trace))


@pytest.mark.parametrize("algorithm, n, m", [("synchronize", 1024, 8),
                                             ("dynamic-synch", 4096, 8)],
                         ids=["synchronize", "dynamic-synch"])
def test_sparse_runs_visit_few_radio_on_ticks(algorithm, n, m):
    skipping, full = run_both(SimConfig(n=n, m=m, wake_times="seeded-random", seed=0,
                                        algorithm=algorithm))
    on_ticks = len(skipping.trace.on_sets)
    assert len(full.visited) == on_ticks
    assert 10 * len(skipping.visited) < on_ticks


def test_policy_ending_before_effective_from_gets_no_event():
    cfg = SimConfig(n=16, m=2, wake_times=[0, 16], algorithm="naive")
    world = World(cfg)
    world.step()
    world.step()  # tick 0 was processor 1's lone tick; now at tick 2
    trace = world.trace
    assert trace.on_sets[0] == (1,)
    before = (dict(trace.on_sets), dict(trace.energy_counts), dict(world._on_map),
              list(world._events))
    # radio-on only from tick 3, so its last tick, 0, is dropped
    rec = world._schedule(1, "naive", PolicyString((1,), 1), 0, None, {})
    assert rec.effective_from == 3 and rec.fully_past
    assert (trace.on_sets, trace.energy_counts, world._on_map, world._events) == before


def test_step_then_run_matches_run():
    for algorithm in ALGORITHMS:
        cfg = SimConfig(n=64, m=4, wake_times="seeded-random", seed=3, algorithm=algorithm)
        world = World(cfg)
        for _ in range(40):
            world.step()
        assert world.run().digest() == run(cfg).digest(), algorithm
