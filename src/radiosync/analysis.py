"""Post-hoc trace analysis: discontinuity points, clusters, covering
weights/densities, and executable checkers for the protocol guarantees.

Conventions (all exact, no floats):

* A policy is "performed" over its whole active span, zero bits included.
* A global tick t is a discontinuity point iff no performed span covers
  both t and t+1 (this single rule captures both "nobody performing" and
  "every performer completes at t").
* A cluster's covered interval runs from its first performed tick to the
  completion tick; its length is the tick count of that closed interval.
* Cluster covering-weight sums the members' policy lengths (first to last
  on-tick); interval covering-weight sums main-part sub-interval lengths
  clipped at the interval boundary.  Densities are exact rationals.
"""

import bisect
import functools
import math

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .core import ceil_log2


@dataclass(frozen=True)
class Cluster:
    interval: tuple  # (first tick, last tick), inclusive
    members: frozenset
    records: tuple  # indices into trace.policies
    cwet: int
    cden: Fraction


@dataclass(frozen=True)
class IntervalStats:
    interval: tuple
    cwet: int
    cden: Fraction
    policies_touched: int


@dataclass
class CheckReport:
    name: str
    passed: bool
    details: list

    def __bool__(self):
        return self.passed


_SPAN_FIELDS = attrgetter("nominal_start", "effective_from", "policy.bits")


def _performed(trace):
    """(record_index, start, end) for every non-empty active span: each
    record's active_start and span_end, from fields read in one pass."""
    return [(i, s, e) for i, (a, f, bits) in enumerate(map(_SPAN_FIELDS, trace.policies))
            if (s := f if f > a else a) <= (e := a + len(bits) - 1)]


def _record_length(rec) -> int:
    """Length of the performed part: first to last active on-tick (a
    performed record has one: _schedule lays no policy ending on a 0)."""
    ones = rec.policy.one_positions
    first = bisect.bisect_left(ones, rec.effective_from - rec.nominal_start)
    return ones[-1] - ones[first] + 1


def discontinuity_points(trace, lo=None, hi=None) -> set:
    """All discontinuity ticks in [lo, hi] (defaults to the whole trace):
    the gaps between the merged continuing intervals."""
    if lo is None:
        lo = 0
    if hi is None:
        hi = trace.horizon
    out = set()
    t = lo  # first tick not yet classified
    for a, b in _continuing_union(_performed(trace)):
        if a > hi:
            break
        if b >= t:
            out.update(range(t, math.ceil(a)))  # ticks: a and b may be Fractions
            t = math.floor(b) + 1
    out.update(range(t, hi + 1))
    return out


def _continuing_union(spans):
    """Merged intervals of ticks t where some span (of _performed) covers t and t+1."""
    halves = sorted((a, b - 1) for _i, a, b in spans if b > a)
    merged = []
    for a, b in halves:
        if merged and a <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def clusters(trace) -> list:
    """Maximal continuous intervals with members and exact weight/density.

    Isolated single-tick policies (rendezvous blips between phases) form
    their own clusters: they are performed and complete at the same tick.
    A span joins the covered interval holding its start: they are disjoint,
    and only a single-tick span can lie outside them all.
    """
    spans = _performed(trace)
    covered = [(a, b + 1) for a, b in _continuing_union(spans)]
    starts = [a for a, _b in covered]
    groups = {}  # interval -> record indices, ascending
    for i, a, b in spans:
        j = bisect.bisect_right(starts, a) - 1
        iv = covered[j] if j >= 0 and a <= covered[j][1] else (a, b)
        groups.setdefault(iv, []).append(i)

    out = []
    for iv, idxs in sorted(groups.items()):
        members = frozenset(trace.policies[i].owner for i in idxs)
        cwet = sum(_record_length(trace.policies[i]) for i in idxs)
        length = iv[1] - iv[0] + 1
        out.append(Cluster(interval=iv, members=members, records=tuple(idxs),
                           cwet=cwet, cden=Fraction(cwet, length)))
    return out


def interval_stats(trace, lo: int, hi: int, spans=None) -> IntervalStats:
    """Main-part covering weight of [lo, hi], boundary-straddlers clipped;
    `spans` is _performed(trace), computed here when not given."""
    if hi < lo:  # no ticks: a density over them is undefined
        raise ValueError(f"empty interval [{lo}, {hi}]")
    cwet = 0
    touched = 0
    recs = trace.policies
    for i, a, b in _performed(trace) if spans is None else spans:
        rec = recs[i]
        lo2 = max(a, rec.nominal_start + rec.policy.initial_len, lo)  # main part from here
        hi2 = min(b, hi)
        if lo2 <= hi2:
            touched += 1
            cwet += hi2 - lo2 + 1
    return IntervalStats(interval=(lo, hi), cwet=cwet,
                         cden=Fraction(cwet, hi - lo + 1), policies_touched=touched)


def check_continuity(trace, interval) -> bool:
    """True iff no tick of the closed interval is a discontinuity point,
    that is, iff one merged continuing interval holds all of it."""
    lo, hi = interval
    return lo > hi or any(a <= lo and hi <= b for a, b in _continuing_union(_performed(trace)))


def final_window(trace) -> tuple:
    """The completion window of the phased algorithm: the last 2n-wide
    stretch in which the final policies execute."""
    L = ceil_log2(trace.n)
    return (L * 4 * trace.n, L * 4 * trace.n + 2 * trace.n)


def _check_rendezvous_group(trace, tick, recs, details, first_basic, cluster_of):
    """Validate one same-tick report exchange; returns False on any error.

    Every reporter at the tick must have heard exactly the others, rank
    itself consistently, and schedule its successor at the common base plus
    rank * k^2 (successor main parts covering exactly ell*k^2 ticks).

    A group is *pristine* when all its members are at the same phase, their
    phase policies ran exactly as scheduled (no on-ticks clipped away by a
    start lying in the past) and no wait was clamped.  Pristine groups
    additionally satisfy the full recentring geometry: the group equals the
    member set of one performed cluster [p, q], meets at exactly p + 2n
    having learnt length q - p, and the successors cover every integer tick
    of [4n + (p+q)/2 - ell*k^2/2, 4n + (p+q)/2 + ell*k^2/2].  The others are
    checked for arithmetic only, and their one detail line names each cause:
    clipped, policy fully past, clamped by an inherited J (above the policy
    span k^2 + k - 1) or by its own long policy (a span of 2n or more),
    phase-skewed, or no performed cluster matching the group.
    first_basic maps (owner, phase) to the index of that owner's first basic
    policy of the phase; cluster_of() maps a record index to the cluster
    holding it, and only pristine groups call it.
    """
    n, k = trace.n, trace.k
    ok = True
    recs = sorted(recs, key=lambda r: r.owner)
    ids = tuple(r.owner for r in recs)
    b_sets = {r.member_ids for r in recs}
    if len(b_sets) != 1 or set(next(iter(b_sets))) != set(ids):
        details.append(f"tick {tick}: inconsistent report sets {b_sets} vs {ids}")
        return False
    if len({(r.len_c, r.ell) for r in recs}) != 1:
        details.append(f"tick {tick}: members disagree on cluster data")
        return False
    len_c = recs[0].len_c
    ell = recs[0].ell

    causes = set()  # why the group is degenerate: it is pristine when there is none
    for r in recs:
        i = first_basic.get((r.owner, r.phase))
        own = None if i is None else trace.policies[i]  # the policy its J was sampled on
        lost = own is not None and own.effective_from > own.nominal_start  # on-ticks lost
        if lost:
            causes.add("policy fully past" if own.fully_past else "clipped")
        if r.clamped and not (lost and own.fully_past):  # its J at completion reached 2n
            causes.add("clamped by an inherited J" if r.frozen_j > k * k + k - 1
                       else "clamped by its own long policy")
    if len({r.phase for r in recs}) != 1:
        causes.add("phase-skewed")
    phase = recs[0].phase
    cluster = None
    if not causes:
        # the cluster actually containing this group's policies, over the
        # full policy pool: a neighbour's clipped policy can share the
        # interval without ever sharing an on-tick, leaving it unsynced
        target = first_basic.get((ids[0], phase))
        cluster = None if target is None else cluster_of().get(target)
        crecs = [] if cluster is None else [trace.policies[i] for i in cluster.records]
        if (cluster is None or cluster.members != set(ids)
                or any(r.kind != "basic" or r.phase != phase for r in crecs)
                or any(r.active_start != r.nominal_start for r in crecs)):
            causes.add("no matching cluster")
    if not causes:
        p, q = cluster.interval
        if tick != p + 2 * n:
            ok = False
            details.append(f"tick {tick}: cluster start {p} + 2n = {p + 2 * n}")
        if len_c != q - p:
            ok = False
            details.append(f"tick {tick}: learned length {len_c} != span {q - p}")
    else:
        details.append(f"tick {tick}: group {ids} degenerate ({', '.join(sorted(causes))});"
                       " arithmetic checks only")

    base = tick + 2 * n + (len_c - ell * k * k) // 2
    starts = {}
    for idx, r in enumerate(recs):
        expect = base + idx * k * k
        if r.next_global != expect or r.mu != idx:
            ok = False
            details.append(f"tick {tick}: p{r.owner} scheduled {r.next_global},"
                           f" expected {expect}")
        starts[r.owner] = r.next_global
    for r in recs:
        i = first_basic.get((r.owner, r.phase + 1))
        succ = None if i is None else trace.policies[i]
        if succ is None:
            ok = False
            details.append(f"tick {tick}: successor policy missing for p{r.owner}")
        elif succ.nominal_start != starts[r.owner]:
            ok = False
            details.append(f"tick {tick}: p{r.owner} policy at {succ.nominal_start},"
                           f" scheduled {starts[r.owner]}")
    env_lo = min(starts.values()) + k
    env_hi = max(starts.values()) + k * k + k - 1
    if env_hi - env_lo + 1 != ell * k * k:
        ok = False
        details.append(f"tick {tick}: main envelope {env_hi - env_lo + 1} != {ell * k * k}")
    if not causes:
        p, q = cluster.interval
        centre = Fraction(p + q, 2) + 4 * n
        target_lo = centre - Fraction(ell * k * k, 2)
        target_hi = centre + Fraction(ell * k * k, 2)
        span_lo = min(starts.values())
        span_hi = max(starts.values()) + k * k + k - 1
        if span_lo > math.ceil(target_lo) or span_hi < math.floor(target_hi):
            ok = False
            details.append(f"tick {tick}: successor [{span_lo},{span_hi}] misses"
                           f" target [{target_lo},{target_hi}]")
    return ok


def check_flatten(trace, cl=None) -> CheckReport:
    """Validate every report-exchange group of a phased-algorithm trace;
    `cl` is clusters(trace), computed here when not given."""
    details = []
    ok = True
    groups = {}
    for rec in trace.stage2:
        groups.setdefault(rec.tick, []).append(rec)
    first_basic = {}
    for i, rec in enumerate(trace.policies):
        if rec.kind == "basic":
            first_basic.setdefault((rec.owner, rec.phase), i)

    @functools.cache
    def cluster_of():
        out = {}
        for c in clusters(trace) if cl is None else cl:
            for i in c.records:
                out.setdefault(i, c)
        return out

    for tick, recs in sorted(groups.items()):
        ok = _check_rendezvous_group(trace, tick, recs, details,
                                     first_basic, cluster_of) and ok
    return CheckReport(name="flatten", passed=ok, details=details)


def check_final_continuity(trace) -> CheckReport:
    """The phased algorithm's completion window must be continuous."""
    lo, hi = final_window(trace)
    good = check_continuity(trace, (lo, hi))
    return CheckReport(name="continuity", passed=good,
                       details=[] if good else [f"discontinuity inside [{lo},{hi}]"])


def check_dynamic(trace, cl=None) -> CheckReport:
    """The dynamic algorithm's structural guarantees on one trace; `cl` is
    clusters(trace), computed here when not given.

    (1) main-part windows of distinct processors are disjoint within
        [0, 2n]; (2) every cluster inside [0, 2n] has main-part density
        at most 1 (exact rational); (3) the queue held by the scheduling
        lineage at tick 2n contains at least half the processors.
    """
    n = trace.n
    details = []
    ok = True

    blocks = [r for r in trace.policies if r.kind == "dyn-block"]
    windows = []
    for rec in blocks:
        o = rec.meta["origin"]
        windows.append((rec.owner, o + 1, o + trace.k * trace.k))
    windows.sort(key=lambda w: w[1])
    for (o1, a1, b1), (o2, a2, b2) in zip(windows, windows[1:]):
        lo = max(a1, 0)
        hi = min(b1, 2 * n)
        lo2 = max(a2, 0)
        hi2 = min(b2, 2 * n)
        if lo <= hi and lo2 <= hi2 and lo2 <= hi:
            ok = False
            details.append(f"windows overlap in [0,2n]: p{o1} [{a1},{b1}] vs p{o2} [{a2},{b2}]")

    spans = _performed(trace)
    for c in clusters(trace) if cl is None else cl:
        if c.interval[0] >= 0 and c.interval[1] <= 2 * n:
            stats = interval_stats(trace, c.interval[0], c.interval[1], spans)
            if stats.cden > 1:
                ok = False
                details.append(f"cluster {c.interval} has main density {stats.cden} > 1")

    holder = _queue_holder_at(trace, 2 * n)
    if holder is None:
        ok = False
        details.append("no queue lineage alive at 2n")
    else:
        owner, q = holder
        if 2 * len(q) < trace.m:
            ok = False
            details.append(f"queue at 2n held by p{owner} has {len(q)} < m/2 entries")
        else:
            details.append(f"queue at 2n: p{owner} holds {len(q)} of {trace.m}")
    return CheckReport(name="dynamic", passed=ok, details=details)


def _queue_holder_at(trace, tick):
    """Who owns the scheduling queue at the end of `tick`, and its content.

    Ownership changes at lead/hand-off events; the content is the owner's
    latest recorded queue snapshot.  Events are scanned in trace order, so
    a hand-off at exactly `tick` resolves to the receiving processor.
    """
    owner, when = None, None
    for t, kind, pid, _payload in trace.dyn_events:
        if kind in ("lead", "own") and t <= tick and (when is None or t >= when):
            owner, when = pid, t
    if owner is None:
        return None
    q = (owner,)
    for t, kind, pid, payload in trace.dyn_events:
        if pid == owner and t <= tick and kind in ("lead", "own", "q"):
            q = payload
    return owner, q
