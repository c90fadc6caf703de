import copy
import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from radiosync import analysis
from radiosync.core import SimConfig
from radiosync.engine import PolicyRecord, SimTrace, run
from radiosync.fractional import run_fractional
from radiosync.policy import PolicyString, basic_policy


def make_trace(policies, horizon=20, n=4, m=2, k=2):
    tr = SimTrace(cfg={}, n=n, m=m, k=k, horizon=horizon, wakes=[])
    tr.policies = policies
    return tr


def rec(owner, bits, start, initial_len=0, kind="basic", phase=1, eff=None):
    return PolicyRecord(owner=owner, kind=kind, policy=PolicyString(tuple(bits), initial_len),
                        nominal_start=start, effective_from=start if eff is None else eff,
                        phase=phase)


# --- discontinuity points ----------------------------------------------------

def test_empty_schedule_every_tick_is_discontinuity():
    tr = make_trace([], horizon=10)
    assert analysis.discontinuity_points(tr) == set(range(11))


def test_single_policy_discontinuities():
    tr = make_trace([rec(1, basic_policy(2).bits, 0, 2)], horizon=10)
    d = analysis.discontinuity_points(tr)
    assert 5 in d
    assert all(t not in d for t in range(5))
    assert all(t in d for t in range(6, 11))


def test_two_overlapping_policies_bridge_the_gap():
    p = basic_policy(2).bits
    tr = make_trace([rec(1, p, 0, 2), rec(2, p, 3, 2)], horizon=12)
    d = analysis.discontinuity_points(tr)
    assert all(t not in d for t in range(0, 8))
    assert 8 in d


def _discontinuity_oracle(trace, lo, hi):
    """The definition: no performed span covers both t and t+1."""
    spans = [(a, b) for _i, a, b in analysis._performed(trace)]
    return {t for t in range(lo, hi + 1)
            if not any(a <= t and t + 1 <= b for a, b in spans)}


# merged continuing intervals [2, 4] (an overlap and a shared end tick)
# and [12, 14]; the blip at 9 continues nothing
_GAPPY = make_trace([rec(1, [1, 0, 1], 2), rec(2, [1, 1], 4), rec(1, [1], 9),
                     rec(2, [1, 0, 0, 1], 12)], horizon=20)
_SYNC = run(SimConfig(n=8, m=3, wake_times=[0, 3, 6], algorithm="synchronize"))
# spans start off the integer grid, so the merged intervals have Fraction ends
_FRAC = run_fractional(SimConfig(n=4, m=2, wake_times=[0, Fraction(1, 2)],
                                 algorithm="synchronize", fractional=True))


@pytest.mark.parametrize("trace", [_GAPPY, _SYNC, _FRAC],
                         ids=["gappy", "synchronize", "fractional"])
@settings(max_examples=150, deadline=None)
@given(lo=st.integers(-5, 160), hi=st.integers(-5, 160))
@example(lo=3, hi=3)  # inside a merged interval
@example(lo=3, hi=13)  # both bounds inside merged intervals
@example(lo=10, hi=5)  # empty range
@example(lo=15, hi=160)  # past the horizon
@example(lo=-3, hi=1)
def test_discontinuity_points_match_definition(trace, lo, hi):
    want = _discontinuity_oracle(trace, lo, hi)
    assert analysis.discontinuity_points(trace, lo, hi) == want
    assert analysis.check_continuity(trace, (lo, hi)) == (not want)


# --- clusters ----------------------------------------------------------------

def test_single_policy_cluster_weight():
    tr = make_trace([rec(1, basic_policy(2).bits, 0, 2)], horizon=10)
    (c,) = analysis.clusters(tr)
    assert c.interval == (0, 5)
    assert c.members == {1}
    assert c.cwet == 6  # the policy's first-to-last-on length
    assert c.cden == Fraction(1)


def test_merged_cluster():
    p = basic_policy(2).bits
    tr = make_trace([rec(1, p, 0, 2), rec(2, p, 3, 2)], horizon=12)
    (c,) = analysis.clusters(tr)
    assert c.interval == (0, 8)
    assert c.members == {1, 2}
    assert c.cwet == 12
    assert c.cden == Fraction(12, 9)


def test_isolated_blip_forms_own_cluster():
    tr = make_trace([rec(1, (1,), 7, 1, kind="stage2")], horizon=10)
    (c,) = analysis.clusters(tr)
    assert c.interval == (7, 7)
    assert c.cwet == 1


def test_blip_at_completion_tick_joins_cluster():
    tr = make_trace([rec(1, basic_policy(2).bits, 0, 2),
                     rec(2, (1,), 5, 1, kind="stage2")], horizon=10)
    (c,) = analysis.clusters(tr)
    assert c.members == {1, 2}
    assert c.interval == (0, 5)


def test_every_policy_lands_in_exactly_one_cluster():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.choice([8, 16, 32])
        m = rng.choice([2, 4])
        alg = rng.choice(["synchronize", "dynamic-synch"])
        tr = run(SimConfig(n=n, m=m, wake_times="seeded-random",
                           seed=rng.randint(0, 999), algorithm=alg))
        cl = analysis.clusters(tr)
        performed = [i for i, r in enumerate(tr.policies)
                     if r.active_start <= r.span_end]
        seen = [i for c in cl for i in c.records]
        assert sorted(seen) == sorted(performed)


def brute_clusters(trace):
    """Per-tick scan straight from the definitions (test oracle)."""
    spans = [(i, r.active_start, r.span_end) for i, r in enumerate(trace.policies)
             if r.active_start <= r.span_end]
    if not spans:
        return []
    hi = max(b for _, _, b in spans)

    def performing(t):
        return [i for i, a, b in spans if a <= t <= b]

    def is_disc(t):
        ps = performing(t)
        return all(trace.policies[i].span_end == t for i in ps)

    runs = []
    t = 0
    while t <= hi:
        if not is_disc(t):
            a = t
            while t <= hi and not is_disc(t):
                t += 1
            runs.append((a, t))  # covered interval ends at the completion tick
        else:
            t += 1
    out = []
    used = set()
    for a, b in runs:
        idxs = [i for i, s, e in spans if s <= b and e >= a]
        used.update(idxs)
        out.append(((a, b), frozenset(trace.policies[i].owner for i in idxs),
                    tuple(sorted(idxs))))
    leftovers = {}
    for i, a, b in spans:
        if i not in used:
            leftovers.setdefault((a, b), []).append(i)
    for (a, b), idxs in leftovers.items():
        out.append(((a, b), frozenset(trace.policies[i].owner for i in idxs),
                    tuple(sorted(idxs))))
    return sorted(out)


def test_clusters_agree_with_per_tick_oracle():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.choice([4, 8, 16])
        m = rng.choice([1, 2, 3])
        alg = rng.choice(["synchronize", "dynamic-synch", "naive", "pairwise"])
        tr = run(SimConfig(n=n, m=m, wake_times="seeded-random",
                           seed=rng.randint(0, 999), algorithm=alg))
        if tr.horizon > 200:
            continue
        got = sorted((c.interval, c.members, c.records) for c in analysis.clusters(tr))
        assert got == brute_clusters(tr), (alg, n, m)


# --- interval statistics -----------------------------------------------------

def test_interval_stats_clips_main_parts():
    # main part spans ticks 2..5; clipping at 4 keeps three of them
    tr = make_trace([rec(1, basic_policy(2).bits, 0, 2)], horizon=10)
    st = analysis.interval_stats(tr, 0, 10)
    assert st.cwet == 4
    st = analysis.interval_stats(tr, 0, 4)
    assert st.cwet == 3
    st = analysis.interval_stats(tr, 6, 10)
    assert st.cwet == 0


@pytest.mark.parametrize("lo, hi", [(5, 4), (4, 1)])
def test_interval_stats_rejects_an_empty_interval(lo, hi):
    # an interval with no ticks has no density
    tr = run(SimConfig(n=8, m=2, wake_times=[0, 3]))
    with pytest.raises(ValueError, match=rf"empty interval \[{lo}, {hi}\]"):
        analysis.interval_stats(tr, lo, hi)
    one = analysis.interval_stats(tr, 4, 4)
    assert one.interval == (4, 4) and one.cden == one.cwet <= 1


def test_interval_weight_additive_at_boundaries():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.choice([8, 16])
        tr = run(SimConfig(n=n, m=3, wake_times="seeded-random",
                           seed=rng.randint(0, 999), algorithm="synchronize"))
        mid = tr.horizon // 2
        whole = analysis.interval_stats(tr, 0, tr.horizon).cwet
        left = analysis.interval_stats(tr, 0, mid).cwet
        right = analysis.interval_stats(tr, mid + 1, tr.horizon).cwet
        assert whole == left + right


def test_first_window_is_heavily_covered():
    # with the computed parameter, every processor's main part fits inside
    # [0, 2n], so the window's covering weight reaches k^2 * m >= 8n
    tr = run(SimConfig(n=1024, m=64, wake_times="seeded-random", seed=3,
                       algorithm="synchronize"))
    st = analysis.interval_stats(tr, 0, 2 * tr.n)
    assert st.cwet >= tr.k * tr.k * tr.m >= 8 * tr.n
    assert st.cden * (2 * tr.n + 1) >= 8 * tr.n


def _main_stats_oracle(trace, lo, hi):
    """interval_stats written out from the record properties, per record."""
    cwet = touched = 0
    for r in trace.policies:
        ma = max(r.active_start, r.nominal_start + r.policy.initial_len)
        lo2, hi2 = max(ma, lo), min(r.span_end, hi)
        if lo2 <= hi2:
            touched += 1
            cwet += hi2 - lo2 + 1
    return cwet, touched


@pytest.mark.parametrize("alg, n, m, seed", [("dynamic-synch", 256, 16, 2),
                                             ("synchronize", 64, 8, 1),
                                             ("synchronize", 32, 4, 3)])
def test_interval_stats_over_spans_computed_once(alg, n, m, seed):
    tr = run(SimConfig(n=n, m=m, wake_times="seeded-random", seed=seed, algorithm=alg))
    spans = analysis._performed(tr)
    intervals = [c.interval for c in analysis.clusters(tr)] + [(0, 2 * n), (n, 3 * n)]
    for lo, hi in intervals:
        once = analysis.interval_stats(tr, lo, hi, spans)
        assert once == analysis.interval_stats(tr, lo, hi)
        assert (once.cwet, once.policies_touched) == _main_stats_oracle(tr, lo, hi)


# --- the performed spans ------------------------------------------------------

_TIME = st.integers(-6, 30) | st.fractions(-6, 30, max_denominator=8)


@st.composite
def policy_records(draw):
    """A record started at an int or a Fraction: as scheduled, clipped, fully
    past, or effective only beyond the trace's horizon (20)."""
    bits = draw(st.lists(st.sampled_from((0, 1)), min_size=1, max_size=8))
    start = draw(_TIME)
    end = start + len(bits) - 1
    eff = draw(st.sampled_from(["start", "clipped", "past", "beyond"]))
    eff = {"start": start, "clipped": start + draw(st.integers(0, len(bits) - 1)),
           "past": end + draw(st.integers(1, 4)), "beyond": draw(st.integers(21, 40))}[eff]
    return PolicyRecord(owner=draw(st.integers(1, 4)), kind="basic",
                        policy=PolicyString(tuple(bits), draw(st.integers(0, len(bits)))),
                        nominal_start=start, effective_from=eff)


@settings(max_examples=300, deadline=None)
@given(st.lists(policy_records(), max_size=12))
def test_performed_matches_its_definition(recs):
    tr = make_trace(recs)
    want = [(i, r.active_start, r.span_end) for i, r in enumerate(recs)
            if r.active_start <= r.span_end]
    got = analysis._performed(tr)
    assert got == want
    assert [tuple(map(type, g)) for g in got] == [tuple(map(type, w)) for w in want]
    for lo, hi in [(0, 20), (-6, 40), (3, 9)]:
        stats = analysis.interval_stats(tr, lo, hi)
        assert (stats.cwet, stats.policies_touched) == _main_stats_oracle(tr, lo, hi)


# --- continuity --------------------------------------------------------------

def test_check_continuity_examples():
    tr = make_trace([], horizon=10)
    assert not analysis.check_continuity(tr, (0, 5))
    assert not analysis.check_continuity(tr, (3, 3))
    p = basic_policy(2).bits
    tr = make_trace([rec(1, p, 0, 2), rec(2, p, 3, 2)], horizon=12)
    assert analysis.check_continuity(tr, (0, 7))
    assert not analysis.check_continuity(tr, (0, 8))  # ends exactly at completion


def test_dynamic_interval_two_n_four_n_is_continuous():
    for wakes, seed in (("uniform-spread", 0), ("adversarial-clustered", 0),
                        ("seeded-random", 7)):
        tr = run(SimConfig(n=1024, m=64, wake_times=wakes, seed=seed,
                           algorithm="dynamic-synch"))
        assert analysis.check_continuity(tr, (2 * tr.n, 4 * tr.n)), wakes


def test_synchronize_final_window_continuous_small_parameter():
    # the completion window stays continuous while reschedules remain
    # in-future; once every processor has merged, k^2*m >= 8n makes the
    # reschedule reach into the past and the guarantee degrades, so this
    # asserts the clean regime only
    for seed in (7, 42):
        tr = run(SimConfig(n=1024, m=64, wake_times="seeded-random", seed=seed,
                           algorithm="synchronize"))
        assert analysis.check_final_continuity(tr).passed


# --- protocol checkers -------------------------------------------------------

def test_flatten_checker_small_exhaustive(sync_exhaustive):
    for key, tr in sync_exhaustive[:500]:
        assert analysis.check_flatten(tr).passed, key


def test_check_flatten_sees_mutated_policies():
    tr = run(SimConfig(n=64, m=8, wake_times="seeded-random", algorithm="synchronize"))
    before = analysis.check_flatten(tr)
    # a degenerate group adds one detail line, a pristine one none
    assert len(before.details) < len({r.tick for r in tr.stage2})
    # an outsider shadowing every phase policy joins every cluster, so no
    # group can stay pristine
    for r in [r for r in tr.policies if r.kind == "basic"]:
        tr.policies.append(dataclasses.replace(r, owner=tr.m + 1))
    again = analysis.check_flatten(tr)
    fresh = analysis.check_flatten(copy.deepcopy(tr))
    assert (again.passed, again.details) == (fresh.passed, fresh.details)
    assert len(fresh.details) > len(before.details)


def test_check_flatten_uses_first_basic_policy_of_a_phase():
    tr = run(SimConfig(n=64, m=8, wake_times="seeded-random", algorithm="synchronize"))
    before = analysis.check_flatten(tr)
    # later never-performed duplicates, one tick off: they join no cluster,
    # and the successor check must keep reading the earliest record
    for r in [r for r in tr.policies if r.kind == "basic"]:
        tr.policies.append(dataclasses.replace(r, nominal_start=r.nominal_start + 1,
                                               effective_from=tr.horizon + 10**6))
    after = analysis.check_flatten(tr)
    assert (after.passed, after.details) == (before.passed, before.details)


def _phase_policy(tr, r):
    """The basic policy whose completion a report record's J was sampled on."""
    return next(p for p in tr.policies
                if p.kind == "basic" and (p.owner, p.phase) == (r.owner, r.phase))


# each cause on the smallest run found to show it, with the fact behind it;
# every cause is checked in a passing run, on one detail line of its group
@pytest.mark.parametrize("cfg, tick, cause, fact", [
    (dict(n=3, m=2, wake_times=[0, 0]), 39, "clipped",
     lambda tr, g: any(not _phase_policy(tr, r).fully_past
                       and _phase_policy(tr, r).active_start > _phase_policy(tr, r).nominal_start
                       for r in g)),
    (dict(n=2, m=3, wake_times=[0, 0, 1]), 13, "clamped by an inherited J",
     lambda tr, g: any(r.clamped and r.frozen_j > tr.k ** 2 + tr.k - 1 for r in g)),
    (dict(n=4, m=1, wake_times=[0]), 42, "clamped by its own long policy",
     lambda tr, g: any(r.clamped and 2 * tr.n <= r.frozen_j <= tr.k ** 2 + tr.k - 1
                       for r in g)),
    (dict(n=16, m=16, wake_times="seeded-random"), 37, "policy fully past",
     lambda tr, g: any(_phase_policy(tr, r).fully_past for r in g)),
    (dict(n=9, m=3, wake_times=[0, 8, 0]), 185, "phase-skewed",
     lambda tr, g: len({r.phase for r in g}) > 1),
    (dict(n=16, m=8, wake_times="seeded-random"), 32, "no matching cluster",
     lambda tr, g: not any(r.clamped for r in g) and len({r.phase for r in g}) == 1),
], ids=lambda v: v.replace(" ", "-") if isinstance(v, str) else None)
def test_check_flatten_names_each_cause(cfg, tick, cause, fact):
    tr = run(SimConfig(algorithm="synchronize", **cfg))
    report = analysis.check_flatten(tr)
    assert report.passed
    group = [r for r in tr.stage2 if r.tick == tick]
    assert group and fact(tr, group)
    lines = [d for d in report.details if d.startswith(f"tick {tick}:")]
    assert len(lines) == 1 and "degenerate" in lines[0], lines
    named = lines[0].split("degenerate (")[1].split(")")[0].split(", ")
    assert cause in named
    if cause == "no matching cluster":  # named only when no other cause applies
        assert named == [cause]


def test_dynamic_checker_examples():
    tr = run(SimConfig(n=64, m=8, wake_times="uniform-spread",
                       algorithm="dynamic-synch"))
    rep = analysis.check_dynamic(tr)
    assert rep.passed, rep.details


def test_dynamic_checker_queue_at_two_n():
    tr = run(SimConfig(n=1024, m=64, wake_times="seeded-random", seed=5,
                       algorithm="dynamic-synch"))
    rep = analysis.check_dynamic(tr)
    assert rep.passed
    assert any("queue at 2n" in d for d in rep.details)


# --- the checkers on broken traces -------------------------------------------
# Each test breaks one guarantee of a run that passes, by hand, and expects the
# checker to fail and to name what broke.

def sync_run_and_group():
    """A passing synchronize run and the index of the first stage-2 record
    of its largest report group (7 members)."""
    tr = run(SimConfig(n=64, m=8, wake_times="seeded-random", algorithm="synchronize"))
    assert analysis.check_flatten(tr).passed
    sizes = {}
    for r in tr.stage2:
        sizes[r.tick] = sizes.get(r.tick, 0) + 1
    tick = max(sizes, key=sizes.get)
    assert sizes[tick] > 1
    return tr, next(i for i, r in enumerate(tr.stage2) if r.tick == tick)


def assert_fails_naming(report, detail):
    assert report.passed is False
    assert any(detail in d for d in report.details), report.details


@pytest.mark.parametrize("field", ["member_ids", "len_c", "next_global"])
def test_check_flatten_fails_on_a_changed_report(field):
    tr, i = sync_run_and_group()
    r = tr.stage2[i]
    changed = {"member_ids": r.member_ids[1:], "len_c": r.len_c + 1,
               "next_global": r.next_global + 1}[field]
    tr.stage2[i] = dataclasses.replace(r, **{field: changed})
    detail = {"member_ids": f"tick {r.tick}: inconsistent report sets",
              "len_c": f"tick {r.tick}: members disagree on cluster data",
              "next_global": f"p{r.owner} scheduled {r.next_global + 1},"
                             f" expected {r.next_global}"}[field]
    assert_fails_naming(analysis.check_flatten(tr), detail)


@pytest.mark.parametrize("how", ["dropped", "moved"])
def test_check_flatten_fails_on_a_broken_successor(how):
    tr, i = sync_run_and_group()
    r = tr.stage2[i]
    succ = [j for j, p in enumerate(tr.policies)
            if p.kind == "basic" and (p.owner, p.phase) == (r.owner, r.phase + 1)]
    assert tr.policies[succ[0]].nominal_start == r.next_global
    if how == "dropped":
        for j in reversed(succ):
            del tr.policies[j]
        detail = f"successor policy missing for p{r.owner}"
    else:
        p = tr.policies[succ[0]]
        tr.policies[succ[0]] = dataclasses.replace(p, nominal_start=p.nominal_start + 1)
        detail = f"p{r.owner} policy at {r.next_global + 1}, scheduled {r.next_global}"
    assert_fails_naming(analysis.check_flatten(tr), detail)


def pristine_group():
    """A passing synchronize run and the stage-2 indices of its one pristine
    report group (p4 and p5 at tick 714, learned length 74), the one group
    whose recentring geometry check_flatten checks in full."""
    tr = run(SimConfig(n=64, m=8, wake_times="seeded-random", algorithm="synchronize"))
    report = analysis.check_flatten(tr)
    assert report.passed
    assert not any(d.startswith("tick 714:") for d in report.details)
    group = [i for i, r in enumerate(tr.stage2) if r.tick == 714]
    assert [(tr.stage2[i].owner, tr.stage2[i].len_c) for i in group] == [(4, 74), (5, 74)]
    return tr, group


def test_a_report_is_true_exactly_when_it_passed():
    # a dataclass without __bool__ is always true, a failing report too
    tr, group = pristine_group()
    passing = analysis.check_flatten(tr)
    for i in group:
        tr.stage2[i] = dataclasses.replace(tr.stage2[i], len_c=tr.stage2[i].len_c + 2)
    failing = analysis.check_flatten(tr)
    assert (bool(passing), bool(failing)) == (passing.passed, failing.passed) == (True, False)


@pytest.mark.parametrize("how, detail", [
    ("len_c", "tick 714: learned length 76 != span 74"),
    ("tick", "tick 715: cluster start 586 + 2n = 714"),
    ("target", "tick 714: successor [1015,1150] misses target [815,943]"),
])
def test_check_flatten_fails_on_broken_geometry(how, detail):
    tr, group = pristine_group()
    for i in group:
        r = tr.stage2[i]
        if how == "len_c":
            tr.stage2[i] = dataclasses.replace(r, len_c=r.len_c + 2)
        elif how == "tick":
            tr.stage2[i] = dataclasses.replace(r, tick=r.tick + 1)
        else:  # the successors, consistent with their reports, 200 ticks late
            tr.stage2[i] = dataclasses.replace(r, next_global=r.next_global + 200)
            for j, p in enumerate(tr.policies):
                if p.kind == "basic" and (p.owner, p.phase) == (r.owner, r.phase + 1):
                    tr.policies[j] = dataclasses.replace(p, nominal_start=p.nominal_start + 200)
    assert_fails_naming(analysis.check_flatten(tr), detail)


def dynamic_run():
    tr = run(SimConfig(n=64, m=8, wake_times="uniform-spread", algorithm="dynamic-synch"))
    assert analysis.check_dynamic(tr).passed
    return tr


def test_check_dynamic_fails_on_overlapping_blocks():
    tr = dynamic_run()
    block = next(r for r in tr.policies if r.kind == "dyn-block")
    assert block.meta["origin"] + 1 <= 2 * tr.n
    tr.policies.append(dataclasses.replace(block, owner=tr.m + 1))
    assert_fails_naming(analysis.check_dynamic(tr), "windows overlap in [0,2n]")


def test_check_dynamic_fails_on_a_dense_cluster():
    tr = dynamic_run()
    assert analysis.clusters(tr)[0].interval == (0, 7)
    for owner in (1, 2):  # two main parts on at every tick of the cluster
        tr.policies.append(rec(owner, [1] * 8, 0))
    assert_fails_naming(analysis.check_dynamic(tr), "cluster (0, 7) has main density 2 > 1")


def test_check_dynamic_fails_without_a_queue_lineage():
    tr = dynamic_run()
    tr.dyn_events = [e for e in tr.dyn_events if e[1] not in ("lead", "own")]
    assert_fails_naming(analysis.check_dynamic(tr), "no queue lineage alive at 2n")


def test_check_dynamic_fails_on_a_short_queue():
    tr = dynamic_run()
    tr.dyn_events = [(t, kind, pid, payload[:1] if kind in ("lead", "own", "q") else payload)
                     for t, kind, pid, payload in tr.dyn_events]
    assert_fails_naming(analysis.check_dynamic(tr), "has 1 < m/2 entries")
