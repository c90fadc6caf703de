"""Deterministic global-tick simulation engine.

Nothing happens while every radio is off, so the engine does not visit
ticks one by one: its event loop pops instants from a heap of wakes,
radio-on instants and the 2n audit, in that order within an instant.
Event keys are integers, the instant times the engine's `unit` (1 here,
finer on the fractional engine).  Handlers see ticks in their processor's
own frame (protocols._Proto), which on this engine is the global tick.

A processor's energy is the number of ticks its radio is on, and
`_schedule` counts it where a tick is laid down: once per owner and tick,
when the owner first takes the tick, however many of its policies cover
it.  Both engines share that count; radio-on sets come exclusively from
scheduled policies.

Most radio-on ticks have one radio on, and such a lone tick changes
nothing unless it ends one of its processor's policies (the contract in
protocols._Proto).  So this engine gives a lone tick no event:
`_schedule` writes its on-set straight into the trace, and the tick
becomes a radio-on event only when a second radio joins it or it is the
last tick of a policy.  The fractional engine visits every radio-on tick.

A radio-on tick is quiet when every radio on already holds the clock the
exchange would give it and has nothing left to learn, so that
`transmissions`, the PHASES handlers and `tick_end` would change no state
and record nothing there.  Each protocol class states when that holds
(`quiet`, see protocols._Proto): one clock among the radios on
(`pairwise`, which never adopts, needs none), no edge contact left to
record, and no radio at a tick where its handlers act whatever the clocks
show (`synchronize`'s report ticks and policy ends, `dynamic-synch`'s
discovery rounds, main ticks and queue hand-off).  This engine writes a
quiet tick's on-set and runs none of its handlers.  The energy of the tick
is already counted, since `_schedule` counts it.  Where a class's verdict
reads processor state alone, never the tick (`QUIET_BY_STATE`: `naive`
and `pairwise`), the verdict holds until a handler runs: the engine keeps
the last quiet tick's radio set and sorted ids, forgets them at a busy
tick, a wake or the 2n audit, and gives a tick with the same radios on the
kept ids as its on-set, with no sort and no `quiet` call.  The fractional
engine runs every handler.

One tick is one communication round.  Within a radio-on tick, delivery
runs in sub-phases so that request/response exchanges happen inside a
single tick (matching the round structure of the protocol handlers) while
staying fully deterministic.  In sub-phase A every radio-on processor
emits its state-determined messages (`transmissions`: clock beacon,
discovery/initial, queue hand-off, flatten report).  Then each handler
that the protocol class names in PHASES runs in turn on the inbox of what
the sub-phase before it sent, in ascending sender id, and may emit for the
next; the last must not emit.  Most classes name one, `react`.  The queue
protocol's three answer queue positions (react), decide round-k leadership
once every same-tick response is in (react2), and take the last (absorb).

Messages are delivered only between radio-on topology neighbours, within
the tick they are sent.  The topology has no self-loops, so sub-phase A
runs only when two or more radios are on: a lone radio builds no messages,
and its handlers run on empty inboxes.  A sub-phase's messages are sorted
once (protocols.INBOX_ORDER).  On a multi-hop topology each inbox is that
list cut down to the senders its receiver hears.  On the complete topology
every radio hears every other, so the delivery is shared: each inbox is
the list less its receiver's own block of messages (a protocols.Inbox),
and the early-sync winner is read from the two leading senders the
sub-phase found once, not scanned per receiver.  The same pass keeps one
map from each sender to its first message, which every inbox of the
sub-phase shares, so an edge contact costs a set intersection with the
receiver's unmet neighbours, not a scan of its inbox.  The fractional engine
takes the filter path at each slot start, with its own hearing rule
(fractional.FracWorld).
The message log (`SimTrace.messages`) is recorded only on request.
"""

import hashlib
import heapq
import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote  # json.dumps' str escape

from .core import ConfigError, SimConfig, validate_config
from . import protocols
from .policy import PolicyString
from .protocols import Message, Stage2Record  # noqa: F401  (re-exported)


@dataclass
class PolicyRecord:
    """A policy instance as actually laid down in global time.

    Bits at global ticks earlier than effective_from were requested in the
    past and are dropped (the radio cannot be switched retroactively); this
    only happens for reschedules of already-merged heavy clusters.
    """

    owner: int
    kind: str  # basic | stage2 | naive | pairwise | dyn-initial | dyn-block | dyn-step5
    policy: PolicyString
    nominal_start: int
    effective_from: int
    phase: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def span_end(self):
        return self.nominal_start + len(self.policy) - 1

    @property
    def active_start(self):
        return max(self.nominal_start, self.effective_from)

    @property
    def fully_past(self) -> bool:
        return self.active_start > self.span_end


@dataclass
class EnergyReport:
    """Radio-on tick counts plus the synchronization completion tick."""

    per_processor: dict
    max_energy: int
    total_energy: int
    sync_complete_tick: int | None

    def to_json(self):
        return {
            "per_processor": {str(k): v for k, v in sorted(self.per_processor.items())},
            "max_energy": self.max_energy,
            "total_energy": self.total_energy,
            "sync_complete_tick": self.sync_complete_tick,
        }


@dataclass
class SimTrace:
    """Everything observable about one run; a pure function of the config.
    `_json()` writes it, less the message log, as the trace's JSON text."""

    cfg: dict
    n: int
    m: int
    k: int
    horizon: int
    wakes: list
    policies: list = field(default_factory=list)
    # tick -> sorted radio-on ids; with lone ticks skipped (World) those
    # enter when scheduled, so the dict need not be in tick order
    on_sets: dict = field(default_factory=dict)
    # (tick, owner, tau, q), each owner's in non-decreasing tick order.  The
    # whole list is too on the integer engine, not on the fractional one: it
    # logs an adoption at the receiver's slot start, up to 1/2 unit back
    clock_events: list = field(default_factory=list)
    stage2: list = field(default_factory=list)
    dyn_events: list = field(default_factory=list)
    edge_contacts: dict = field(default_factory=dict)  # (u,v) -> (tick, diff)
    # tick -> [(sender, kind, payload, receivers)], recorded only on request;
    # a quiet tick (World) builds no messages, so it logs none
    messages: dict | None = None
    flags: list = field(default_factory=list)
    energy_counts: dict = field(default_factory=dict)
    sync_complete_tick: int | None = None
    final_clocks: dict = field(default_factory=dict)  # owner -> (tau, q) at horizon

    def deterministic_view(self) -> dict:
        """The trace as JSON data: `_json()` read back, with `cfg` the
        trace's own dict, not a copy."""
        view = json.loads(self._json())
        view["cfg"] = self.cfg
        return view

    def digest(self) -> str:
        """sha256 of `_json()`; a trace's identity across runs and commits."""
        return hashlib.sha256(self._json().encode()).hexdigest()

    def _json(self) -> str:
        """The trace as JSON text: the definition of the format, hashed by
        digest() and read back by deterministic_view().

        The text is json.dumps(data, sort_keys=True)'s: object keys sorted
        as text ("10" < "2"), ", " and ": " separators, strings escaped to
        ASCII.  Times are str() strings; `cfg` is encoded as it stands.  The
        bytes come straight from the fields, with no dict per record, list
        per radio-on tick or key per tick.
        """
        q = _quote
        on = self.on_sets
        texts = {s: f"[{', '.join(map(str, s))}]" for s in set(on.values())}  # per distinct set
        # bits are 0s and 1s (PolicyString checks), so their string needs no escape
        policies = [
            f'{{"bits": "{r.policy.as_string()}", "effective_from": "{r.effective_from!s}", '
            f'"initial_len": {r.policy.initial_len}, "kind": {q(r.kind)}, '
            f'"meta": {_meta_json(r.meta)}, "nominal_start": "{r.nominal_start!s}", '
            f'"owner": {r.owner}, "phase": {"null" if r.phase is None else r.phase}}}'
            for r in self.policies]
        stage2 = [
            f'{{"clamped": {"true" if r.clamped else "false"}, "ell": {r.ell}, '
            f'"frozen_j": "{r.frozen_j!s}", "len_c": "{r.len_c!s}", '
            f'"member_ids": [{", ".join(map(str, r.member_ids))}], "mu": {r.mu}, '
            f'"next_global": "{r.next_global!s}", "next_local": "{r.next_local!s}", '
            f'"owner": {r.owner}, "phase": {r.phase}, "tick": "{r.tick!s}"}}'
            for r in self.stage2]
        dyn = [f'["{t!s}", {q(kind)}, {owner}, [{", ".join([q(str(x)) for x in payload])}]]'
               for t, kind, owner, payload in self.dyn_events]
        sct = self.sync_complete_tick
        # Dict keys here are times, ids and "u-v" pairs: digits, '-' and '/',
        # which all sort after '"'.  So sorting whole '"key": value' entries
        # sorts them by key text.
        return "".join([
            '{"cfg": ', _CFG_ENCODER.encode(self.cfg),
            ', "clock_events": [',
            ", ".join([f'["{t!s}", {o}, "{tau!s}", "{qf!s}"]'
                       for t, o, tau, qf in self.clock_events]),
            '], "dyn_events": [', ", ".join(dyn),
            '], "edge_contacts": {',
            ", ".join(sorted([f'"{u}-{v}": ["{t!s}", "{d!s}"]'
                              for (u, v), (t, d) in self.edge_contacts.items()])),
            '}, "energy": {',
            ", ".join(sorted([f'"{o}": {c}' for o, c in self.energy_counts.items()])),
            '}, "final_clocks": {',
            ", ".join(sorted([f'"{o}": ["{a!s}", "{b!s}"]'
                              for o, (a, b) in self.final_clocks.items()])),
            '}, "flags": [', ", ".join(map(q, sorted(self.flags))),
            f'], "horizon": "{self.horizon!s}", "on_sets": {{',
            ", ".join(sorted([f'"{t!s}": {texts[s]}' for t, s in on.items()])),
            '}, "policies": [', ", ".join(policies),
            '], "stage2": [', ", ".join(stage2),
            '], "sync_complete_tick": ', "null" if sct is None else f'"{sct!s}"',
            ', "wakes": [', ", ".join([f'"{w!s}"' for w in self.wakes]), "]}",
        ])

    def tau_at(self, owner: int, tick) -> int | None:
        """Displayed clock of `owner` at `tick` (None before wake)."""
        for t, o, tau, _q in reversed(self.clock_events):
            if o == owner and t <= tick:
                return tau + math.floor(tick - t)  # at the owner's last slot by tick
        return None


class World:
    """Mutable simulation state and the event loop that drives it.

    The event heap holds (key, kind, owner) tuples, key = instant * unit;
    the kind breaks same-instant ties: 0 wake, 1 radio-on instant, 2 slot
    close (pushed only by the fractional engine, fractional.FracWorld), 3
    the 2n audit.  `_on_map` holds the radio-on set of each pending key.
    With `_skip_lone` (unit 1, see the module docstring), a pending key
    with one radio on that ends none of its owner's policies has no event
    and no `_on_map` entry: it is already in `trace.on_sets`.  A visited
    tick that its protocol class calls quiet (`_quiet`) has its on-set
    written and no handler run; with the class's QUIET_BY_STATE, a visited
    tick whose radio set (`_quiet_on`) is the last quiet tick's, with no
    busy tick, wake or audit since, is quiet too, and its on-set is that
    tick's id tuple (`_quiet_ids`).  `trace.energy_counts` is counted by
    `_schedule` alone, once per policy record.  The fractional engine
    overrides only `_time_unit`, `_on_instant` and `_slot_close`.
    """

    def __init__(self, cfg: SimConfig, record_messages: bool = False):
        cfg = validate_config(cfg)
        self.unit = self._time_unit(cfg)
        self.cfg = cfg
        self.n = cfg.n
        self.m = cfg.m
        cls = protocols.PROTOCOLS[cfg.algorithm]
        self.k = cfg.k_override if cfg.k_override is not None else cls.schedule_k(cfg.n, cfg.m)
        self.horizon = cfg.max_ticks if cfg.max_ticks is not None else cls.horizon(cfg.n, self.k)
        self.adj = cfg.topology.adjacency()
        self._complete = cfg.topology.is_complete  # so _exchange shares one delivery
        self.tick = 0
        # the policies its processors lay down, by kind (protocols._Proto.policies),
        # one object per kind shared by every processor's records
        self.policies = cls.policies(self.n, self.k)

        self.trace = SimTrace(
            cfg=_cfg_echo(cfg, self.k, self.horizon),
            n=self.n, m=self.m, k=self.k, horizon=self.horizon,
            wakes=list(cfg.wake_times),
            messages={} if record_messages else None,
        )
        self.trace.energy_counts = {i: 0 for i in range(1, self.m + 1)}

        self._on_map: dict[int, set] = {}
        self._events = [(self._key(w), 0, pid) for pid, w in enumerate(cfg.wake_times, start=1)]
        self._events.append((2 * self.n * self.unit, 3, 0))
        heapq.heapify(self._events)

        self.procs = {i: cls(self, i) for i in range(1, self.m + 1)}
        self._phases = [getattr(cls, name) for name in cls.PHASES]
        self._quiet = cls.quiet
        # the last quiet tick's radio set and sorted ids, while no handler
        # runs, where the class's verdict reads no tick (QUIET_BY_STATE)
        self._quiet_repeats = cls.QUIET_BY_STATE
        self._quiet_on = self._quiet_ids = None
        self._skip_lone = self.unit == 1
        self._awake: set[int] = set()
        self._in_wake_hook = False

        # incremental synchronization tracking: tau(t) = t + delta, so the
        # clocks agree exactly when every awake global delta agrees (in event
        # keys: delta less phi plus the carry, see protocols._Proto.set_clock).
        # Clocks change only at wakes and radio-on slots; the engine settles
        # each tick before the first change that follows it.
        self._delta_counter: Counter = Counter()
        self._unequal = True
        self._settled = 0  # ticks before this one are settled
        self._last_unequal = -1

    def _time_unit(self, cfg):
        """Event keys per time unit; rejects a config of the other mode."""
        if cfg.fractional:
            raise ConfigError("fractional configs run on fractional.run_fractional;"
                              " the integer engine needs integer wake times")
        return 1

    def _key(self, t):
        """The event key of time t; t must lie on the 1/unit grid."""
        key = t * self.unit
        if key.denominator != 1:
            raise ValueError(f"time {t} is not a multiple of 1/{self.unit}")
        return int(key)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, owner, kind, policy, nominal_start, phase, meta):
        """Lay down `policy` from the owner's local tick `nominal_start`; the
        record is in global time, radio-on from the next tick (from this one
        in the wake hook)."""
        if not policy.bits or policy.bits[-1] != 1:
            raise ValueError("policy strings must end with an on-tick")
        proto = self.procs[owner]
        effective = self.tick if self._in_wake_hook else self.tick + 1
        rec = PolicyRecord(owner=owner, kind=kind, policy=policy,
                           nominal_start=nominal_start + proto.phi, effective_from=effective,
                           phase=phase, meta=meta)
        self.trace.policies.append(rec)
        unit, on_map, events = self.unit, self._on_map, self._events
        base, lo = self._key(nominal_start) + proto.off, self._key(effective)
        end = (self.horizon + 1) * unit
        lone = self.trace.on_sets if self._skip_lone else None
        alone = (owner,)
        # ones[i0:i1] are the on positions at keys in [lo, end)
        ones = policy.one_positions
        i0 = bisect_left(ones, -((base - lo) // unit))  # ceil((lo - base) / unit)
        i1 = bisect_left(ones, -((base - end) // unit))
        held = 0  # of those, the ones whose key the owner already holds
        for pos in ones[i0:i1]:
            g = base + pos * unit
            on = on_map.get(g)
            if on is not None:
                if owner in on:
                    held += 1
                    continue
                on.add(owner)
            elif lone is None:  # first radio-on slot at g
                on_map[g] = {owner}
                heapq.heappush(events, (g, 1, 0))
            else:
                first = lone.setdefault(g, alone)
                if first is not alone:  # g is already a lone tick
                    if first == alone:  # the owner's own
                        held += 1
                        continue
                    self._promote(g)  # a second radio: g needs its event
                    on_map[g].add(owner)
        self.trace.energy_counts[owner] += i1 - i0 - held  # the owner's first holds
        g = base + ones[-1] * unit  # the policy's last tick, where protocols change state
        if lone is not None and g >= lo and lone.get(g) == alone:
            self._promote(g)
        return rec

    def _promote(self, g):
        """Give the pending lone key g its radio-on event; its on-set is
        written again when the event is handled."""
        self._on_map[g] = set(self.trace.on_sets.pop(g))
        heapq.heappush(self._events, (g, 1, 0))

    # -- clock bookkeeping ---------------------------------------------------
    def _clock_change(self, pid, old_delta, new_delta):
        if old_delta is not None:
            self._delta_counter[old_delta] -= 1
            if self._delta_counter[old_delta] == 0:
                del self._delta_counter[old_delta]
        self._delta_counter[new_delta] += 1
        self._unequal = len(self._awake) < self.m or len(self._delta_counter) != 1

    def _settle(self, t):
        """Ticks before t are over: note whether they ended unsynchronized."""
        if t > self._settled:
            if self._unequal:
                self._last_unequal = t - 1
            self._settled = t

    def _wake(self, instant, pid):
        """Wake pid at `instant`: its local tick is the instant's integer part."""
        t, proto = math.floor(instant), self.procs[pid]
        self._quiet_on = None  # on_wake runs
        proto.wake = t
        self._awake.add(pid)
        self._in_wake_hook = True
        proto.set_clock(t, 0)  # clocks start at zero on wake
        proto.on_wake(t)
        self._in_wake_hook = False

    def _finish(self):
        self._settle(self.horizon + 1)
        self.trace.sync_complete_tick = None if self._unequal else self._last_unequal + 1
        for pid, proto in self.procs.items():
            if proto._delta is not None:  # clock at the owner's last tick
                last, q = math.floor(self.horizon - proto.phi), proto.carry
                self.trace.final_clocks[pid] = (proto.tau(last),
                                                Fraction(q, self.unit) if q else 0)
        return self.trace

    # -- event loop ----------------------------------------------------------
    def run(self):
        self._handle_events_before(self.horizon + 1)
        return self._finish()

    def step(self):
        """Advance one tick: handle every event queued before the next one.

        A mid-run trace's `energy_counts` count every tick scheduled so far,
        future ones included; with lone ticks skipped, its `on_sets` hold
        the lone ones too."""
        nxt = self.tick + 1
        self._handle_events_before(nxt)
        self.tick = nxt

    def _handle_events_before(self, end):
        """Pop and handle, in heap order, every queued event before `end`."""
        events, unit, end = self._events, self.unit, self._key(end)
        while events and events[0][0] < end:
            key, kind, owner = heapq.heappop(events)
            self._settle(key // unit)
            if kind == 2:  # a slot close runs at its slot's start, not at this instant
                self._slot_close(key, owner)
                continue
            if unit == 1:
                instant = key
            elif key % unit:
                instant = Fraction(key, unit)
            else:  # an integral instant on the fractional engine
                instant = key // unit
            self.tick = instant
            if kind == 0:
                self._wake(instant, owner)
            elif kind == 1:
                self._on_instant(key, instant)
            else:
                self._quiet_on = None  # the audit runs
                for pid in sorted(self._awake):
                    self.procs[pid].audit(instant)

    def _on_instant(self, key, t):
        """Radio-on tick: transmissions, then each sub-phase on what the one
        before it sent, then the end of the tick; on a quiet tick, none."""
        on = self._on_map.pop(key)
        if on == self._quiet_on:  # the last quiet tick's radios, no handler run since
            self.trace.on_sets[t] = self._quiet_ids
            return
        on_sorted = sorted(on)
        self.trace.on_sets[t] = on_ids = tuple(on_sorted)
        procs = [self.procs[pid] for pid in on_sorted]
        if self._quiet(procs, t):
            if self._quiet_repeats:
                self._quiet_on, self._quiet_ids = on, on_ids
            return
        self._quiet_on = None  # a handler runs
        # no self-loops: nobody hears a lone radio, so it builds no messages
        out = [p.transmissions(t) for p in procs] if len(procs) > 1 else ()
        for handler in self._phases:
            inbox = self._exchange(t, on_sorted, out)
            out = [handler(p, t, inbox.get(p.id, ())) for p in procs]
        if any(out):
            raise RuntimeError(f"{type(procs[0]).PHASES[-1]} phase must not emit messages")
        for p in procs:
            p.tick_end(t)

    def _exchange(self, t, on_sorted, outs):
        """Deliver one sub-phase's messages (outs[i] is what on_sorted[i]
        sent); returns every radio-on receiver's inbox ({} if none was sent,
        or if fewer than two radios are on to send and hear).

        Every inbox holds, in INBOX_ORDER, the messages its receiver hears,
        none of its own.  On the complete topology each is a protocols.Inbox
        sharing the sub-phase's `lead` and `firsts`: one pass over the
        senders finds each one's block in the sorted list by the lengths of
        `outs`, and its first message, with no pass over the messages."""
        sent = [msg for out in outs if out for msg in out] if len(on_sorted) > 1 else ()
        if not sent:
            return {}
        adj = self.adj
        if self.trace.messages is not None:
            log = self.trace.messages.setdefault(t, [])
            for pid, out in zip(on_sorted, outs):
                if out:
                    receivers = tuple(v for v in on_sorted if v in adj[pid])
                    log.extend((pid, msg.kind, msg.payload, receivers) for msg in out)
        # sorted once, stably; filtering keeps that order in every inbox
        sent.sort(key=protocols.INBOX_ORDER)
        if not self._complete:
            return {v: [msg for msg in sent if msg.sender in adj[v]] for v in on_sorted}
        # Everyone hears everyone else, and the sort left each sender's
        # messages in one block, in on_sorted order, len(out) long.
        Inbox = protocols.Inbox
        boxes = {}
        firsts = {}
        best = second = None
        lo = 0
        for v, out in zip(on_sorted, outs):
            box = boxes[v] = Inbox(sent)
            if out:
                msg = firsts[v] = sent[lo]
                hi = lo + len(out)
                del box[lo:hi]
                lo = hi
                # senders ascend, so on equal j the later one is larger
                if best is None or msg.j >= best.j:
                    best, second = msg, best
                elif second is None or msg.j >= second.j:
                    second = msg
        lead = (best, second)
        for box in boxes.values():
            box.lead = lead
            box.firsts = firsts
        return boxes

# json.dumps(obj, sort_keys=True) is this encoder's encode(obj); the echo has no cycles
_CFG_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _meta_json(meta):
    """A policy record's meta as its view writes it: values as str()."""
    if not meta:
        return "{}"
    return "{" + ", ".join([f"{_quote(k)}: {_quote(str(v))}"
                            for k, v in sorted(meta.items())]) + "}"


def _cfg_echo(cfg, k, horizon):
    """The config as the trace records it, built once per run.  Its edges are the
    sorted [u, v] pairs; combinations() yields a complete topology's in that order."""
    topo = cfg.topology
    edges = (list(map(list, combinations(range(1, topo.m + 1), 2))) if topo.is_complete
             else sorted(list(e) for e in topo.edges))
    return {
        "n": cfg.n,
        "m": cfg.m,
        "algorithm": cfg.algorithm,
        "k": k,
        "k_override": cfg.k_override,
        "seed": cfg.seed,
        "fractional": cfg.fractional,
        "horizon": str(horizon),
        "wake_times": [str(w) for w in cfg.wake_times],
        "topology": {"kind": topo.kind, "m": topo.m, "edges": edges},
    }


def run(cfg: SimConfig) -> SimTrace:
    """Simulate one configuration to its horizon and return the full trace."""
    return World(cfg).run()


def energy(trace: SimTrace) -> EnergyReport:
    """Account radio-on ticks from a completed trace."""
    per = dict(trace.energy_counts)
    total = sum(per.values())
    mx = max(per.values()) if per else 0
    return EnergyReport(per_processor=per, max_energy=mx, total_energy=total,
                        sync_complete_tick=trace.sync_complete_tick)
