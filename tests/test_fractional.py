import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from radiosync import fractional
from radiosync.adversary import build_topology
from radiosync.core import ConfigError, SimConfig
from radiosync.engine import World, run
from radiosync.fractional import (
    FracWorld,
    adopt_fractional,
    anchors,
    overlap_fraction,
    q_prime,
    run_fractional,
    timeline_anchor,
)

HALF = Fraction(1, 2)


def test_overlap_fraction_cases():
    assert overlap_fraction((0, 1), (0, 1)) == 1
    assert overlap_fraction((Fraction(1, 4), Fraction(5, 4)), (0, 1)) == Fraction(3, 4)
    assert overlap_fraction((Fraction(3, 5), Fraction(8, 5)), (0, 1)) is None


def test_q_prime_cases():
    assert q_prime(1, True) == 0
    assert q_prime(1, False) == 0
    assert q_prime(Fraction(3, 4), True) == Fraction(1, 4)
    assert q_prime(Fraction(3, 4), False) == Fraction(-1, 4)
    with pytest.raises(ValueError):
        q_prime(Fraction(1, 4), True)
    with pytest.raises(ValueError):
        q_prime(Fraction(5, 4), True)


@given(st.fractions(min_value=Fraction(1, 2), max_value=Fraction(1)),
       st.booleans())
def test_q_prime_stays_in_half_unit(q, after):
    assert abs(q_prime(q, after)) <= HALF


def test_adopt_fractional_cases():
    assert adopt_fractional(10, 0, 0) == (10, 0)
    assert adopt_fractional(10, Fraction(2, 5), Fraction(1, 4)) == (11, Fraction(-7, 20))
    assert adopt_fractional(10, Fraction(-2, 5), Fraction(-1, 4)) == (9, Fraction(7, 20))


@st.composite
def carries(draw):
    """(unit, q_v, q'): unit is 2 * lcm of wake denominators up to 16, as
    the fractional engine's, and the carries are ints in [-unit/2, unit/2],
    counted in 1/unit steps."""
    unit = 2 * math.lcm(*draw(st.lists(st.integers(1, 16), min_size=1, max_size=4)))
    half = unit // 2
    return unit, draw(st.integers(-half, half)), draw(st.integers(-half, half))


@given(carries(), st.integers(min_value=0, max_value=100))
# a sum of exactly +-unit/2 stays unnormalized, as +-1/2 does
@example((2, 1, 0), 7)
@example((48, -7, -17), 7)
@example((24, 12, 12), 7)  # a sum of unit carries once, to 0
def test_adopt_fractional_single_normalization_suffices(case, tau):
    unit, q_v, qp = case
    # the carry rule at two scales: ints in 1/unit steps, and the rationals they count
    tau2, q2 = adopt_fractional(tau, q_v, qp, unit)
    assert (tau2, Fraction(q2, unit)) == adopt_fractional(tau, Fraction(q_v, unit),
                                                          Fraction(qp, unit))
    # |q_v + q'| <= unit, so at most one carry is ever needed
    assert abs(q_v + qp) <= unit
    assert abs(2 * q2) <= unit
    assert tau2 * unit + q2 == tau * unit + q_v + qp  # the carry never changes the sum
    if abs(2 * (q_v + qp)) <= unit:  # no carry while the sum is in range
        assert (tau2, q2) == (tau, q_v + qp)


def test_timeline_anchor_identity():
    # a never-adopting processor anchors at its own wake
    assert timeline_anchor(Fraction(5, 2), 7, 7, 0) == Fraction(5, 2)


def test_dynamic_not_supported_in_fractional_mode():
    cfg = SimConfig(n=4, m=2, wake_times=[Fraction(0), Fraction(1, 2)],
                    algorithm="dynamic-synch", fractional=True)
    with pytest.raises(ConfigError):
        run_fractional(cfg)


def test_integer_engine_rejects_fractional_configs():
    cfg = SimConfig(n=8, m=2, wake_times=[Fraction(0), Fraction(5, 2)],
                    algorithm="naive", fractional=True)
    for engine in (run, World):
        with pytest.raises(ConfigError, match="run_fractional"):
            engine(cfg)
    assert run_fractional(cfg).sync_complete_tick is not None


def test_fractional_runners_reject_integer_configs():
    # every run* entry point of the fractional module ends in ConfigError
    cfg = SimConfig(n=8, m=2, wake_times=[0, 3], algorithm="naive")
    runners = [getattr(fractional, name) for name in dir(fractional)
               if name.startswith("run")]
    assert runners
    for runner in runners:
        with pytest.raises(ConfigError):
            runner(cfg)


def test_integral_offsets_project_onto_integer_engine():
    for alg in ("synchronize", "naive", "pairwise"):
        ci = SimConfig(n=16, m=4, wake_times=[0, 5, 9, 16], algorithm=alg)
        cf = SimConfig(n=16, m=4, wake_times=[Fraction(w) for w in (0, 5, 9, 16)],
                       algorithm=alg, fractional=True)
        vi = run(ci).deterministic_view()
        vf = run_fractional(cf).deterministic_view()
        vi["cfg"] = {k: v for k, v in vi["cfg"].items() if k != "fractional"}
        vf["cfg"] = {k: v for k, v in vf["cfg"].items() if k != "fractional"}
        assert vi == vf, alg


def test_half_offset_still_communicates():
    # a half-unit offset sits exactly at the communication threshold
    cfg = SimConfig(n=4, m=2, wake_times=[Fraction(0), Fraction(1, 2)],
                    algorithm="naive", fractional=True)
    tr = run_fractional(cfg)
    assert (1, 2) in tr.edge_contacts
    A = anchors(tr)
    assert A[1] == A[2]


def test_offset_past_half_needs_the_other_alignment():
    # 0.6 apart: the same-index slots overlap by only 0.4, but the adjacent
    # alignment overlaps by 0.6, so the pair still synchronizes
    cfg = SimConfig(n=4, m=2, wake_times=[Fraction(0), Fraction(3, 5)],
                    algorithm="naive", fractional=True)
    tr = run_fractional(cfg)
    A = anchors(tr)
    assert A[1] == A[2]
    q2 = tr.final_clocks[2][1]
    assert abs(q2) <= HALF
    assert q2 != 0


def test_fractional_synchronize_seeded_sweep():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.choice([16, 32, 64])
        m = rng.choice([2, 3, 4, 8])
        den = rng.choice([2, 4, 8, 16])
        wakes = [Fraction(rng.randint(0, n * den), den) for _ in range(m)]
        cfg = SimConfig(n=n, m=m, wake_times=wakes, algorithm="synchronize",
                        fractional=True)
        tr = run_fractional(cfg)
        A = anchors(tr)
        assert len(set(A.values())) == 1, (n, m, wakes)
        for _tau, q in tr.final_clocks.values():
            assert abs(q) <= HALF


def test_displayed_clocks_within_one_unit():
    cfg = SimConfig(n=32, m=4,
                    wake_times=[Fraction(0), Fraction(13, 8), Fraction(9, 4), Fraction(31, 8)],
                    algorithm="synchronize", fractional=True)
    tr = run_fractional(cfg)
    A = anchors(tr)
    assert len(set(A.values())) == 1
    taus = [tau for tau, _q in tr.final_clocks.values()]
    assert max(taus) - min(taus) <= 1


class _HeardLog(FracWorld):
    """Records, at each slot start, every message the exchange delivered."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.heard = {}

    def _on_instant(self, key, instant):
        before = {pid: len(box) for pid, (_, _, box) in self._slots.items()}
        super()._on_instant(key, instant)
        self.heard[instant] = Counter(
            (pid, msg.sender, Fraction(msg.qp, self.unit))
            for pid, (_, _, box) in self._slots.items()
            for msg in box[before.get(pid, 0):] if msg.kind == "sync")


def _overlap_definition(trace, adj):
    """(receiver, sender, slot-start difference) of every exchange the
    model requires, by instant: two adjacent radio-on slots talk iff they
    overlap by at least half a unit, once, at the later of their starts."""
    want = {}
    for inst, starters in trace.on_sets.items():
        got = want.setdefault(inst, Counter())
        for s, others in trace.on_sets.items():
            if not inst - HALF <= s <= inst:
                continue
            for p in starters:
                for q in others:
                    if q in adj[p] and (s < inst or p < q):
                        got[(p, q, inst - s)] += 1
                        got[(q, p, s - inst)] += 1
    return want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("synchronize", "complete"), ("naive", "complete"),
                        ("naive", "two-clique"), ("pairwise", "complete"),
                        ("pairwise", "two-clique")]),
       st.sampled_from([4, 8, 12]),
       st.lists(st.tuples(st.sampled_from([1, 2, 3, 4, 6]), st.integers(0, 72)),
                min_size=2, max_size=6).filter(lambda ws: len(ws) % 2 == 0),
       st.booleans())
def test_slot_pairing_matches_overlap_definition(case, n, raw, cut):
    # random rational wakes in [0, n]; small denominators make half-unit
    # offsets, the threshold, common
    algorithm, topology = case
    wakes = [Fraction(k % (n * d + 1), d) for d, k in raw]
    cfg = SimConfig(n=n, m=len(wakes), wake_times=wakes, algorithm=algorithm,
                    topology=build_topology(topology, len(wakes)), fractional=True,
                    max_ticks=n // 2 if cut else None)
    world = _HeardLog(cfg)
    trace = world.run()
    assert world.heard == _overlap_definition(trace, world.adj)


@pytest.mark.parametrize("algorithm", ["synchronize", "naive"])
def test_each_slot_transmits_once_per_instant(algorithm, monkeypatch):
    # quarter-unit wakes on a complete topology: slots meet several open
    # slots at once, and each still builds its messages only once
    rng = random.Random(3)
    wakes = [Fraction(rng.randint(0, 16 * 4), 4) for _ in range(8)]
    cfg = SimConfig(n=16, m=8, wake_times=wakes, algorithm=algorithm, fractional=True)
    want = run_fractional(cfg).digest()
    world = FracWorld(cfg)
    calls = Counter()
    cls = type(world.procs[1])
    original = cls.transmissions

    def counted(proto, t):
        calls[(world.tick, proto.id)] += 1  # world.tick: the instant handled
        return original(proto, t)

    monkeypatch.setattr(cls, "transmissions", counted)
    trace = world.run()
    assert trace.digest() == want
    assert calls and max(calls.values()) == 1
    # the exchange met some slot more than once in an instant
    met = Counter()
    for inst, starters in trace.on_sets.items():
        for s, others in trace.on_sets.items():
            if inst - HALF <= s <= inst:
                for p in starters:
                    met[(inst, p)] += sum(q != p for q in others)
    assert max(met.values()) >= 2


class _FrameLog(FracWorld):
    """Collects, at every slot close, the closing processor's inbox and
    clock state, and every local tick a policy is scheduled at."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.ticks, self.carries = [], []

    def _schedule(self, owner, kind, policy, nominal_start, phase, meta):
        self.ticks.append(nominal_start)
        return super()._schedule(owner, kind, policy, nominal_start, phase, meta)

    def _slot_close(self, close_key, pid):
        inbox = self._slots[pid][2]
        super()._slot_close(close_key, pid)
        proto = self.procs[pid]
        self.ticks += [x for x in (proto._delta, getattr(proto, "_jdelta", None),
                                   getattr(proto, "stage2_tick", None),
                                   getattr(proto, "cur_end", None)) if x is not None]
        for msg in inbox:
            self.ticks += [msg.tau, msg.j]
            self.carries += [msg.q, msg.qp]
        self.carries.append(proto.carry)


@pytest.mark.parametrize("algorithm", ["synchronize", "naive", "pairwise"])
def test_protocols_run_on_integer_local_ticks(algorithm):
    # wakes off the integer grid: handlers still see, store and send ints
    # only, and every carry they see is an int in 1/unit steps
    rng = random.Random(4)
    wakes = [Fraction(rng.randint(0, 32 * 8), 8) for _ in range(6)]
    cfg = SimConfig(n=32, m=6, wake_times=wakes, algorithm=algorithm, fractional=True)
    world = _FrameLog(cfg)
    trace = world.run()
    assert trace.digest() == run_fractional(cfg).digest()
    assert any(proto.phi for proto in world.procs.values())
    assert len(world.ticks) > 100
    assert all(type(t) is int for t in world.ticks)
    assert all(type(q) is int for q in world.carries)
    assert any(world.carries)
    if algorithm == "synchronize":
        assert trace.stage2 and all(type(r.frozen_j) is int for r in trace.stage2)
