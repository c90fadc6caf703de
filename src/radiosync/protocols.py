"""Per-processor protocol state machines driven by the engine.

Each processor is one object: its clock, its progress counter, its trace
hooks and its algorithm's handlers.

Four algorithms share one handler interface: on_wake, transmissions, the
sub-phase handlers their class names in PHASES (react; the queue protocol
adds react2 and absorb), tick_end and audit:

  synchronize    phased merge: basic policy, then repeated flatten
                 rescheduling, then one final basic policy;
  dynamic-synch  queue-based exclusive scheduling, two phases total;
  naive          always-on for n+1 ticks;
  pairwise       one ceil(sqrt(n))-basic policy, per-edge clock deltas.

Clock adoption follows the early-sync rule (sync_winner): take the clock of
the lexicographically largest (progress, id) sender in the inbox if it
beats your own pair.  In the phased algorithm the progress counter is the
ticks since the current policy started (and is overwritten on adoption,
which is what lines up the reschedule arithmetic across a merged
cluster); like the clock it is one number, t + delta.  A reschedule sets
it at its report tick to count from the next policy's start, which may
lie ahead, yet no read sees it early: J is read only at its processor's
own radio-on ticks, and the processor's earlier policies all end by the
report tick.  In the other algorithms every policy starts at wake, so the
counter coincides with the clock itself; messages carry the clock in the
progress field.  In fractional mode the adopted clock carries a sub-unit
offset q as well (adopt_fractional).

Handlers run in their processor's own frame: every time they see, store or
send is an int tick, global time minus `phi`, the fractional part of the
processor's wake (0 on the integer engine and for integral wakes).  Clock
values and progress counters do not depend on the frame.  Trace records
(clock events, reschedules, edge contacts, policy records) are written in
global time, local tick + phi; only the carries q and qp are Fractions.
"""

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .core import ceil_log2, compute_k
from .policy import PolicyString, basic_policy, naive_policy

HALF = Fraction(1, 2)
# the order of every inbox: by sender, then kind, then payload
INBOX_ORDER = attrgetter("sender", "kind", "payload")
_DELTA = attrgetter("_delta")
_UNMET = attrgetter("_unmet")


def ceil_sqrt(n: int) -> int:
    """Smallest k with k*k >= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.isqrt(n - 1) + 1


@dataclass(slots=True)
class Message:
    """A delivered message, slotted as a run builds thousands.  Every message
    piggybacks the sender's (tau, j), both ints; its payload is a tuple.

    q is the sender's sub-unit clock offset and qp the receiver-specific
    slot-start difference; both stay the integer 0 on the integer engine.
    """

    kind: str  # sync | init | resp | pass | report
    sender: int
    tau: int
    j: int
    payload: tuple = ()
    q: Fraction | int = 0
    qp: Fraction | int = 0


@dataclass
class Stage2Record:
    owner: int
    tick: int
    frozen_j: int
    member_ids: tuple
    len_c: int
    ell: int
    mu: int
    next_local: int
    next_global: int
    phase: int
    clamped: bool


class Inbox(list):
    """One receiver's inbox on a shared delivery (engine.World._exchange):
    the sub-phase's sorted messages less the receiver's own.  Every inbox
    of the sub-phase shares `lead`: the first messages of the two largest
    (j, sender) senders, the second None when one sender sent, which stand
    for all of a sender's messages because they share one (tau, j, q) (see
    _Proto)."""

    __slots__ = ("lead",)


def sync_winner(j, pid, inbox):
    """The early-sync winner: the first message with the lexicographically
    largest (j, sender), if that beats the receiver's own (j, pid); else None.

    On an Inbox that message is its `lead[0]`, or `lead[1]` when the
    receiver pid sent `lead[0]`; on a plain list the messages are scanned."""
    if type(inbox) is Inbox:
        best, second = inbox.lead
        if best.sender == pid:
            best = second
        if best is not None and (best.j > j or (best.j == j and best.sender > pid)):
            return best
        return None
    best = None
    for msg in inbox:
        if msg.j > j or (msg.j == j and msg.sender > pid):
            best, j, pid = msg, msg.j, msg.sender
    return best


def adopt_fractional(tau_v, q_v, qp):
    """Clock adoption with carry: returns the normalized (tau, q) pair."""
    q = q_v + qp
    # q > 1/2 iff 2 * numerator > denominator: exact, and two int
    # comparisons cost far less than two Fraction comparisons
    twice, den = 2 * q.numerator, q.denominator
    if twice > den:
        return tau_v + 1, q - 1
    if twice < -den:
        return tau_v - 1, q + 1
    return tau_v, q


def flatten_next(n: int, tau: int, len_c: int, ell: int, mu: int, k: int) -> int:
    """Local clock value at which the rescheduled policy starts.

    floor(2n + tau + (len_c - ell*k^2)/2 + mu*k^2), computed exactly
    (Python floor division rounds toward minus infinity).
    """
    if ell < 1 or not 0 <= mu < ell or len_c < 1:
        raise ValueError("need ell >= 1, 0 <= mu < ell, len_c >= 1")
    return 2 * n + tau + (len_c - ell * k * k) // 2 + mu * k * k


def dynamic_next(k: int, candidate: bool, winner: bool, ell: int, dif: int) -> int:
    """Start round (counted from wake) of a queue member's main part minus k."""
    if candidate and winner:
        return k
    return (ell - 1) * k * k - dif


class _Proto:
    """One processor: its clock, its progress counter, scheduling, adoption
    and message building, which every algorithm shares.  The owning world is
    held by weak proxy, so a dropped world is freed.

    Ticks are local (see the module docstring): `phi` is the fractional
    part of the processor's wake, its offset from the integer grid, and
    `off` the same offset in event keys (phi * world.unit).

    The handlers are each class's own (the module docstring names them,
    engine.World runs them).  `transmissions(t)` builds sub-phase A's
    messages and must not change state: the engine skips it when no radio
    can hear them (a lone radio on).  `tick_end` and `audit` do nothing
    here.

    On a lone tick (its radio the only one on) that ends none of its
    processor's policies, the handlers, on empty inboxes, change no state
    and record nothing, so the integer engine does not visit it
    (engine.World).  `dynamic-synch` changes state on lone ticks at
    `wake + k - 1` and `pass_tick`, the ends of dyn-initial and dyn-block.
    Its `first_main_tick` check needs no visit: it runs only for a
    non-leader, whose first main tick is the previous block's pass tick,
    and the only flag it can raise is `missing-pass`.

    A shared tick, too, can leave nothing to do.  `quiet(procs, t)`, given
    the processors whose radios are on at tick t, is True only when
    running `transmissions`, every PHASES handler and `tick_end` on them
    would change no state and record nothing; the integer engine then runs
    none of them (engine.World).  Where a class adopts, its conditions
    include one clock and one progress counter among the radios on.  Then
    `sync_winner` picks a sender with the receiver's own (j, tau), so
    `set_clock` writes the clock the receiver holds (the integer engine's
    carries are 0) and logs no clock event, and the progress counter it
    adopts is the one the receiver holds.  Every class states its `quiet`.
    `dynamic-synch` is quiet on one clock outside its initial rounds, main
    ticks and pass ticks: there its handlers, like `synchronize`'s between
    report ticks and policy ends, only adopt.

    QUIET_BY_STATE states that a class's `quiet` reads the processors'
    state alone, never t: then the same radios, with no handler run since,
    get the same verdict, and the integer engine judges a repeat of the
    last quiet tick's radios without a call (engine.World).  `naive`'s
    verdict reads clocks and `_unmet`, `pairwise`'s `_unmet` alone, and
    `pairwise` inherits naive's fact.
    `synchronize` and `dynamic-synch` do not state it: their verdicts turn
    on t (report ticks and policy ends; initial rounds, main ticks and
    pass ticks), which the same radios reach between two of their ticks.

    Every message one processor sends in one sub-phase carries the same
    tau, j and q: handlers build their messages after they adopt, and
    nothing changes a clock between a processor's handler and its next.
    So on a shared delivery (Inbox) `sync_winner` reads the winner from
    the senders' first messages alone.

    Each algorithm's class states its own facts, read through PROTOCOLS:
    `schedule_k(n, m)`, `horizon(n, k)` (the last simulated tick, from its
    completion guarantee), `budget(n, k)` (the energy bound per processor),
    PHASES (the fractional engine runs only ("react",)), SINGLE_HOP,
    QUIET_BY_STATE and the STRUCTURAL_CHECKS that describe its traces,
    `policies(n, k)` (its processors' policies by record kind, built once
    per world as `world.policies`, one object per kind) and `quiet(procs, t)`.
    """

    PHASES = ("react",)  # the handlers run after transmissions (see engine)
    SINGLE_HOP = False
    QUIET_BY_STATE = False
    STRUCTURAL_CHECKS = ()
    schedule_k = staticmethod(compute_k)

    def __init__(self, world, pid):
        self.world = weakref.proxy(world)
        self.trace = world.trace
        self.id = pid
        self.n, self.k = world.n, world.k
        w = world.cfg.wake_times[pid - 1]
        self.phi = w - math.floor(w) or 0  # an int 0 on the integer grid
        self.off = int(self.phi * world.unit)
        self.wake = None
        self._delta = None  # tau(t) = t + delta, t local
        self.q_frac = 0

    # clock / counter reads ------------------------------------------------
    def tau(self, t):
        return t + self._delta

    j = tau  # the progress counter; only the phased algorithm keeps its own

    # state changes ---------------------------------------------------------
    def set_clock(self, t, tau_v, q_v=0, q_prime=0):
        """Set the clock: zero at wake, a peer's on adoption, with the peer's
        carry (q_v, q_prime)."""
        old = self._delta
        old_q = self.q_frac
        if q_v or q_prime:
            tau_v, self.q_frac = adopt_fractional(tau_v, q_v, q_prime)
        else:  # the integer engine's carries: skipping the call pays (BENCH_23.json)
            self.q_frac = 0
        self._delta = tau_v - t
        if self._delta != old or self.q_frac != old_q:
            # the engine compares global deltas: delta - phi, plus the carry
            phi = self.phi
            self.world._clock_change(self.id, None if old is None else old - phi + old_q,
                                     self._delta - phi + self.q_frac)
            self.trace.clock_events.append((t + phi, self.id, self.tau(t), self.q_frac))

    def schedule(self, kind, policy, nominal_start, phase=None, meta=None):
        """Lay down a PolicyString starting at local tick nominal_start; the
        returned record is in global time."""
        return self.world._schedule(self.id, kind, policy, nominal_start,
                                    phase, meta or {})

    def tick_end(self, t):
        pass

    def audit(self, t):
        pass

    def adopt(self, t, inbox):
        """Apply the early-sync rule (see sync_winner) over a whole inbox;
        return the message whose clock was adopted, or None."""
        if not inbox:
            return None
        msg = sync_winner(self.j(t), self.id, inbox)
        if msg is not None:
            self.set_clock(t, msg.tau, msg.q, msg.qp)
        return msg

    def _msg(self, t, kind, payload=()):
        return Message(kind, self.id, t + self._delta, self.j(t), payload, self.q_frac)


class SynchronizeProto(_Proto):
    """Phased cluster merging with recentring reschedules.

    ceil(log2 n) rounds of (policy, reschedule), then one final policy.
    The reschedule samples the progress counter at full policy completion,
    waits 2n - J ticks, spends one radio-on tick exchanging (id, J) reports,
    and derives the next start so that a synchronized group lands in
    consecutive k^2 blocks recentred 4n after the group's midpoint.
    """

    # a lone tick changes state only at cur_end and stage2_tick: each ends a policy
    SINGLE_HOP = True
    STRUCTURAL_CHECKS = ("flatten", "continuity")

    @staticmethod
    def horizon(n, k):
        return ceil_log2(n) * 4 * n + 2 * n + k * k + k + 1

    @staticmethod
    def budget(n, k):
        return (2 * k + 1) * (ceil_log2(n) + 1)

    @staticmethod
    def policies(n, k):  # stage2: the one tick of a reschedule's report exchange
        return {"basic": basic_policy(k), "stage2": PolicyString((1,), 1)}

    @staticmethod
    def quiet(procs, t):
        """One clock and one j, and t is nobody's report tick or policy end
        (where react and tick_end act whatever the clocks show)."""
        if not _one_clock(procs):
            return False
        j = procs[0].j(t)
        for p in procs:
            if t == p.stage2_tick or t == p.cur_end or p.j(t) != j:
                return False
        return True

    def j(self, t):
        return t + self._jdelta

    def adopt(self, t, inbox):
        """Adopt the winner's progress counter along with its clock."""
        msg = super().adopt(t, inbox)
        if msg is not None:
            self._jdelta = msg.j - t
        return msg

    def on_wake(self, t):
        self.rounds = ceil_log2(self.n)
        self.exec_no = 1
        self.stage2_tick = None
        self.stage2_clamped = False
        self.frozen_j = None
        self._jdelta = -t  # j(t) = t + jdelta: the ticks since the current policy started
        self.schedule("basic", self.world.policies["basic"], nominal_start=t, phase=1)
        self.cur_end = t + len(self.world.policies["basic"]) - 1  # the current policy's last tick

    def transmissions(self, t):
        out = [self._msg(t, "sync")]
        if t == self.stage2_tick:
            out.append(self._msg(t, "report", (self.frozen_j,)))
        return out

    def react(self, t, inbox):
        self.adopt(t, inbox)
        if t == self.stage2_tick:
            reports = {self.id: self.frozen_j}
            for msg in inbox:
                if msg.kind == "report":
                    reports[msg.sender] = msg.payload[0]
            ids = sorted(reports)
            len_c = max(reports.values())
            ell = len(ids)
            mu = ids.index(self.id)
            tau_now = self.tau(t)
            nxt = flatten_next(self.n, tau_now, max(len_c, 1), ell, mu, self.k)
            gstart = t + (nxt - tau_now)
            self.exec_no += 1
            self._start_execution(t, gstart, nxt, ids, len_c, ell, mu)
        return []

    def _start_execution(self, t, gstart, next_local, ids, len_c, ell, mu):
        phi = self.phi
        self.trace.stage2.append(Stage2Record(
            owner=self.id, tick=t + phi, frozen_j=self.frozen_j, member_ids=tuple(ids),
            len_c=len_c, ell=ell, mu=mu, next_local=next_local,
            next_global=gstart + phi, phase=self.exec_no - 1,
            clamped=self.stage2_clamped,
        ))
        self.stage2_tick = None
        self.schedule("basic", self.world.policies["basic"], nominal_start=gstart,
                      phase=self.exec_no)
        self._jdelta = -gstart  # read next on the new policy's ticks (module docstring)
        self.cur_end = gstart + len(self.world.policies["basic"]) - 1
        if self.cur_end < t + 1:
            # fully past (radio-on from t + 1 only), so no adoption: J at
            # completion is the span
            self.frozen_j = self.cur_end - gstart
            self._after_completion(t, fully_past=True)

    def tick_end(self, t):
        if t == self.cur_end:  # None after the last policy and between policies
            self.frozen_j = self.j(t)
            self._after_completion(t)

    def _after_completion(self, t, fully_past=False):
        if self.exec_no > self.rounds:
            self.cur_end = None
            return
        natural = self.cur_end + 2 * self.n - self.frozen_j
        self.stage2_tick = max(natural, t + 1)
        self.stage2_clamped = self.stage2_tick != natural or fully_past
        self.schedule("stage2", self.world.policies["stage2"], nominal_start=self.stage2_tick,
                      phase=self.exec_no)
        self.cur_end = None


class DynamicProto(_Proto):
    """Queue-based exclusive scheduling (two phases total).

    Discovery: k rounds of initial messages from wake.  The round-1 winner
    among simultaneous wakers leads unless an active chain answers first;
    every answered processor is assigned a queue position and schedules its
    k main-part on-ticks inside an exclusive k^2 block; completing owners
    hand the queue to the next block owner at the pass tick.  Every
    processor additionally runs a full basic policy starting 2n after wake.

    Clock ordering uses the clock itself as the progress key (all activity
    is anchored at wake; a policy-progress key would let a later clock win
    across the concurrently running extra policy).
    """

    PHASES = ("react", "react2", "absorb")
    SINGLE_HOP = True
    STRUCTURAL_CHECKS = ("dynamic",)

    @staticmethod
    def horizon(n, k):
        return 4 * n + k * k + k + 2

    @staticmethod
    def budget(n, k):
        return 4 * k + 2

    @staticmethod
    def policies(n, k):  # the block: main rounds at 0, k, ..., k^2 - k, the hand-off at k^2
        return {"dyn-initial": PolicyString((1,) * k, k),
                "dyn-block": PolicyString(((1,) + (0,) * (k - 1)) * k + (1,), 1),
                "dyn-step5": basic_policy(k)}

    @staticmethod
    def quiet(procs, t):
        """One clock, and t is none of the radios' initial rounds, main
        ticks or pass tick.  On any other tick the handlers only adopt,
        as `synchronize`'s do between its report ticks and policy ends:
        init messages go out in initial rounds, pass messages and the
        hand-off at pass ticks, and responses are taken in initial rounds
        alone.  Main ticks are excluded although no run tried so far
        needs it (BENCH_19.json): the queue handlers answer there, and a
        non-leader's first main tick is where a missing hand-off raises
        `missing-pass`."""
        if not _one_clock(procs):
            return False
        for p in procs:
            if 0 <= t - p.wake < p.k or t == p.pass_tick or t in p.main_ticks:
                return False
        return True

    def on_wake(self, t):
        self.candidate = True
        self.winner = True
        self.led = False
        self.q = [self.id]
        self.known = {self.id}
        self.next_round = None
        self.block = None
        self.pass_tick = None
        self.first_main_tick = None
        self.main_ticks = set()
        policies = self.world.policies
        self.schedule("dyn-initial", policies["dyn-initial"], nominal_start=t)
        self.schedule("dyn-step5", policies["dyn-step5"], nominal_start=t + 2 * self.n)

    # -- trace hooks -----------------------------------------------------------
    def dyn_event(self, t, kind, payload=()):
        self.trace.dyn_events.append((t, kind, self.id, tuple(payload)))

    def flag(self, text):
        self.trace.flags.append(text)

    # -- message emission ----------------------------------------------------
    def transmissions(self, t):
        out = [self._msg(t, "sync")]
        r = t - self.wake + 1
        if 1 <= r <= self.k:
            out.append(self._msg(t, "init", (r,)))
        if t == self.pass_tick:
            out.append(self._msg(t, "pass", tuple(x for x in self.q if x != self.id)))
        return out

    # -- inbox handling -------------------------------------------------------
    def _enqueue_unknown(self, t, inbox):
        for msg in inbox:
            if msg.kind == "init" and msg.sender not in self.known:
                self.known.add(msg.sender)
                self.q.append(msg.sender)
                self.dyn_event(t, "enqueue", (msg.sender, len(self.q)))
                self.dyn_event(t, "q", tuple(self.q))

    def _accept_response(self, t, inbox):
        if not self.candidate:
            return
        r = t - self.wake + 1
        for msg in inbox:
            if msg.kind == "resp" and msg.payload[0] == self.id:
                ell, rhat = msg.payload[1], msg.payload[2]
                self.candidate = False
                self.dyn_event(t, "accept", (msg.sender, ell, rhat))
                self._dynamic_flattening(t, ell, rhat - r)
                return

    def _dynamic_flattening(self, t, ell, dif):
        """Schedule the exclusive main-part block (and the pass tick)."""
        k = self.k
        self.next_round = dynamic_next(k, self.candidate and self.winner,
                                       self.winner, ell, dif)
        origin = self.wake + self.next_round - 1
        self.first_main_tick = origin + k
        self.pass_tick = origin + k * k + k
        self.main_ticks = {origin + j * k for j in range(1, k + 1)}
        self.block = self.schedule(
            "dyn-block", self.world.policies["dyn-block"], nominal_start=self.first_main_tick,
            meta={"origin": origin, "slot": ell})

    def react(self, t, inbox):
        if t == self.pass_tick and not (self.q and self.q[0] == self.id):
            self.flag(f"pass-without-head p{self.id} t{t}")
        self.adopt(t, inbox)
        r = t - self.wake + 1
        if 1 <= r <= self.k:
            if r == 1:
                for msg in inbox:
                    if msg.kind == "init":
                        r_u = msg.payload[0]
                        if r_u > 1 or (r_u == 1 and msg.sender > self.id):
                            self.winner = False
            self._enqueue_unknown(t, inbox)
        if t in self.main_ticks:
            if t == self.first_main_tick and not self.led:
                passed = [msg for msg in inbox if msg.kind == "pass"]
                if passed:
                    self.q = list(passed[0].payload)
                    self.known.update(self.q)
                    self.dyn_event(t, "own", tuple(self.q))
                else:
                    self.flag(f"missing-pass p{self.id} t{t}")
            self._enqueue_unknown(t, inbox)
            # r counts rounds since wake; responses carry progress r - next
            return self._responses(t, r - self.next_round)
        return []

    def react2(self, t, inbox):
        self.adopt(t, inbox)
        out = []
        r = t - self.wake + 1
        if 1 <= r <= self.k:
            self._accept_response(t, inbox)
            if r == self.k and self.candidate and self.winner and not self.led:
                self.led = True
                self.dyn_event(t, "lead", tuple(self.q))
                self.dyn_event(t, "own", tuple(self.q))
                out = self._responses(t, 0)
                self._dynamic_flattening(t, 0, 0)
        return out

    def _responses(self, t, progress):
        """A resp (member, its position, progress) to each queue member, as `_msg` builds one."""
        tau, j, q, me = t + self._delta, self.j(t), self.q_frac, self.id
        return [Message("resp", me, tau, j, (dest, pos, progress), q)
                for pos, dest in enumerate(self.q, start=1)]

    def absorb(self, t, inbox):
        self.adopt(t, inbox)
        r = t - self.wake + 1
        if 1 <= r <= self.k:
            self._accept_response(t, inbox)
        return []

    def tick_end(self, t):
        if t == self.pass_tick and self.q:
            if self.q[0] == self.id:
                self.q.pop(0)
            self.dyn_event(t, "dequeue", (self.id,))
            self.dyn_event(t, "q", tuple(self.q))
            self.dyn_event(t, "pass-sent", tuple(self.q))

    def audit(self, t):
        if self.block is None:
            self.flag(f"unscheduled-at-2n p{self.id}")


class NaiveProto(_Proto):
    """Always-on baseline: n+1 consecutive on-ticks, early-sync adoption.
    Each edge records its first contact tick and clock delta: `_unmet`
    holds a processor's neighbours with no contact yet, and the end that
    records a pair's contact takes each end out of the other's set (every
    processor of a world has the one class, so the other's set exists)."""

    QUIET_BY_STATE = True  # quiet reads clocks and _unmet, never t (see _Proto)

    @staticmethod
    def schedule_k(n, m):
        return 1  # the policy reads no k; 1 keeps k total

    @staticmethod
    def horizon(n, k):
        return 3 * n + 1  # 2n, then the n + 1 on-ticks

    @staticmethod
    def budget(n, k):
        return n + 1

    @staticmethod
    def policies(n, k):
        return {"naive": naive_policy(n)}

    @staticmethod
    def quiet(procs, t):
        """One clock, and no edge contact left to record among procs."""
        return _one_clock(procs) and _all_met(procs)

    def __init__(self, world, pid):
        super().__init__(world, pid)
        self._unmet = set(world.adj[pid])  # neighbours with no edge contact yet

    def on_wake(self, t):
        (kind, policy), = self.world.policies.items()  # the class's one policy
        self.schedule(kind, policy, nominal_start=t)

    def transmissions(self, t):
        return [self._msg(t, "sync")]

    def react(self, t, inbox):
        self.edge_contacts(t, inbox)
        self.adopt(t, inbox)
        return []

    def edge_contacts(self, t, inbox):
        """Record each new edge to an inbox sender with its clock delta, at
        the sender's first message (inboxes are sorted by sender); both ends
        then count the edge as met."""
        unmet = self._unmet
        if not unmet:
            return
        new = [msg for msg in inbox if msg.sender in unmet]
        contacts, procs = self.trace.edge_contacts, self.world.procs
        tau, me, at = self.tau(t), self.id, t + self.phi
        for msg in new:
            other = msg.sender
            if other in unmet:  # a sender may have sent several messages
                unmet.discard(other)
                procs[other]._unmet.discard(me)
                contacts[(me, other) if me < other else (other, me)] = (at, msg.tau - tau)


class PairwiseProto(NaiveProto):
    """Neighbour-difference learning: naive's handlers on one
    ceil(sqrt(n))-basic policy per processor; each edge records its first
    overlap tick and clock delta.  Clocks are never adjusted."""

    @staticmethod
    def schedule_k(n, m):
        return ceil_sqrt(n)

    @staticmethod
    def horizon(n, k):
        return 2 * n + k * k + k  # 2n, then the k-basic policy's span

    @staticmethod
    def budget(n, k):
        return 2 * k  # the k-basic policy's on-ticks

    @staticmethod
    def policies(n, k):
        return {"pairwise": basic_policy(k)}

    @staticmethod
    def quiet(procs, t):
        """No edge contact left to record among procs (it never adopts)."""
        return _all_met(procs)

    def adopt(self, t, inbox):
        pass


def _one_clock(procs):
    """Every processor in procs holds the same clock."""
    return len(set(map(_DELTA, procs))) == 1


def _all_met(procs):
    """No processor in procs has another in its `_unmet`."""
    unmet = set().union(*map(_UNMET, procs))
    return not unmet or unmet.isdisjoint([p.id for p in procs])


# the algorithms, by name: the one place a name is looked up
PROTOCOLS = {
    "synchronize": SynchronizeProto,
    "dynamic-synch": DynamicProto,
    "naive": NaiveProto,
    "pairwise": PairwiseProto,
}
