"""Per-processor protocol state machines driven by the engine.

Four algorithms share the same handler interface (on_wake / transmissions /
react / react2 / absorb / tick_end / audit):

  synchronize    phased merge: basic policy, then repeated flatten
                 rescheduling, then one final basic policy;
  dynamic-synch  queue-based exclusive scheduling, two phases total;
  naive          always-on for n+1 ticks;
  pairwise       one ceil(sqrt(n))-basic policy, per-edge clock deltas.

Clock adoption follows the early-sync rule: take the clock of the
lexicographically largest (progress, id) sender in the inbox if it beats
your own pair.  In the phased algorithm the progress counter is the ticks
since the current policy started (and is overwritten on adoption, which is
what lines up the reschedule arithmetic across a merged cluster).  In the
other algorithms every policy starts at wake, so the counter coincides with
the clock itself; messages carry the clock in the progress field.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import ceil_log2, compute_k
from .policy import basic_policy, naive_policy


def ceil_sqrt(n: int) -> int:
    """Smallest k with k*k >= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.isqrt(n - 1) + 1


def schedule_k(cfg) -> int:
    """Effective schedule parameter for a validated config."""
    if cfg.k_override is not None:
        return cfg.k_override
    if cfg.algorithm == "pairwise":
        return ceil_sqrt(cfg.n)
    if cfg.algorithm == "naive":
        return 1  # unused by the policy; keeps horizon formulas total
    return compute_k(cfg.n, cfg.m)


def base_policy_span(cfg, k: int) -> int:
    """Span of the per-wake policy (for the naive/pairwise horizon)."""
    if cfg.algorithm == "naive":
        return cfg.n + 1
    return k * k + k


@dataclass
class Message:
    """A delivered message.  Every message piggybacks the sender's (tau, j).

    q is the sender's sub-unit clock offset and qp the receiver-specific
    slot-start difference; both stay zero on the integer engine.
    """

    kind: str  # sync | init | resp | pass | report
    sender: int
    tau: int
    j: int
    payload: tuple = ()
    q: Fraction = Fraction(0)
    qp: Fraction = Fraction(0)


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

    def to_json(self):
        return {
            "owner": self.owner,
            "tick": str(self.tick),
            "frozen_j": str(self.frozen_j),
            "member_ids": list(self.member_ids),
            "len_c": str(self.len_c),
            "ell": self.ell,
            "mu": self.mu,
            "next_local": str(self.next_local),
            "next_global": str(self.next_global),
            "phase": self.phase,
            "clamped": self.clamped,
        }


class _Entry(NamedTuple):
    sender: int
    tau: int
    j: int


def sync_winner(j, pid, inbox):
    """The early-sync winner: the first message with the lexicographically
    largest (j, sender), if that beats the receiver's own (j, pid); else None."""
    best = None
    for msg in inbox:
        if msg.j > j or (msg.j == j and msg.sender > pid):
            best, j, pid = msg, msg.j, msg.sender
    return best


def early_sync(state: tuple, inbox: list) -> tuple:
    """One adoption decision: state and messages are (id, tau, j) triples.

    Returns the updated (id, tau, j).  The winner is the lexicographic
    maximum of (j, id) over the inbox; adoption copies both tau and j.
    """
    pid, tau, j = state
    best = sync_winner(j, pid, [_Entry(*e) for e in inbox])
    if best is not None:
        tau, j = best.tau, best.j
    return (pid, tau, j)


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
    """Do-nothing defaults so each algorithm overrides only what it uses."""

    def __init__(self, ctx, world):
        self.ctx = ctx
        self.world = world

    def on_wake(self, t):
        raise NotImplementedError

    def transmissions(self, t):
        return []

    def react(self, t, inbox):
        return []

    def react2(self, t, inbox):
        return []

    def absorb(self, t, inbox):
        return []

    def tick_end(self, t):
        pass

    def audit(self, t):
        pass

    def adopt(self, t, inbox):
        """Apply the early-sync rule (see early_sync) over a whole inbox."""
        if not inbox:
            return
        ctx = self.ctx
        msg = sync_winner(self._progress(t), ctx.id, inbox)
        if msg is not None:
            ctx.adopt(t, msg.tau, j_v=msg.j if self.USES_POLICY_PROGRESS else None,
                      q_v=msg.q, q_prime=msg.qp)

    def _progress(self, t):
        return self.ctx.j(t) if self.USES_POLICY_PROGRESS else self.ctx.tau(t)

    def _msg(self, t, kind, payload=()):
        ctx = self.ctx
        return Message(kind=kind, sender=ctx.id, tau=ctx.tau(t), j=self._progress(t),
                       payload=tuple(payload), q=ctx.q_frac)


class SynchronizeProto(_Proto):
    """Phased cluster merging with recentring reschedules.

    ceil(log2 n) rounds of (policy, reschedule), then one final policy.
    The reschedule samples the progress counter at full policy completion,
    waits 2n - J ticks, spends one radio-on tick exchanging (id, J) reports,
    and derives the next start so that a synchronized group lands in
    consecutive k^2 blocks recentred 4n after the group's midpoint.
    """

    USES_POLICY_PROGRESS = True

    def on_wake(self, t):
        ctx = self.ctx
        self.k = ctx.k
        self.rounds = ceil_log2(ctx.n)
        self.exec_no = 1
        self.done = False
        self.stage2_tick = None
        self.stage2_clamped = False
        self.frozen_j = None
        ctx.set_j_anchor(t, t)
        self.cur = ctx.schedule("basic", basic_policy(self.k).bits, self.k,
                                nominal_start=t, phase=1)

    def transmissions(self, t):
        out = [self._msg(t, "sync")]
        if t == self.stage2_tick:
            out.append(self._msg(t, "report", (self.frozen_j,)))
        return out

    def react(self, t, inbox):
        ctx = self.ctx
        self.adopt(t, inbox)
        if t == self.stage2_tick:
            reports = {ctx.id: self.frozen_j}
            for msg in inbox:
                if msg.kind == "report":
                    reports[msg.sender] = msg.payload[0]
            ids = sorted(reports)
            len_c = max(reports.values())
            ell = len(ids)
            mu = ids.index(ctx.id)
            tau_now = ctx.tau(t)
            nxt = flatten_next(ctx.n, tau_now, max(len_c, 1), ell, mu, self.k)
            gstart = t + (nxt - tau_now)
            self.exec_no += 1
            self._start_execution(t, gstart, nxt, ids, len_c, ell, mu)
        return []

    def _start_execution(self, t, gstart, next_local, ids, len_c, ell, mu):
        ctx = self.ctx
        ctx.record_stage2(Stage2Record(
            owner=ctx.id, tick=t, frozen_j=self.frozen_j, member_ids=tuple(ids),
            len_c=len_c, ell=ell, mu=mu, next_local=next_local,
            next_global=gstart, phase=self.exec_no - 1,
            clamped=self.stage2_clamped,
        ))
        self.stage2_tick = None
        rec = ctx.schedule("basic", basic_policy(self.k).bits, self.k,
                           nominal_start=gstart, phase=self.exec_no)
        ctx.set_j_anchor(max(gstart, t + 1), gstart)
        self.cur = rec
        if rec.fully_past:
            # never radio-on, so no adoption: J at completion is the span
            self.frozen_j = rec.span_end - rec.nominal_start
            self._after_completion(t, rec)

    def tick_end(self, t):
        if not self.done and self.cur is not None and t == self.cur.span_end:
            self.frozen_j = self.ctx.j(t)
            self._after_completion(t, self.cur)

    def _after_completion(self, t, rec):
        ctx = self.ctx
        if self.exec_no > self.rounds:
            self.done = True
            self.cur = None
            return
        natural = rec.span_end + 2 * ctx.n - self.frozen_j
        self.stage2_tick = max(natural, t + 1)
        self.stage2_clamped = self.stage2_tick != natural or rec.fully_past
        ctx.schedule("stage2", (1,), 1, nominal_start=self.stage2_tick,
                     phase=self.exec_no)
        self.cur = None


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

    USES_POLICY_PROGRESS = False

    def on_wake(self, t):
        ctx = self.ctx
        self.k = ctx.k
        self.candidate = True
        self.winner = True
        self.led = False
        self.q = [ctx.id]
        self.known = {ctx.id}
        self.next_round = None
        self.block = None
        self.block_origin = None
        self.pass_tick = None
        self.first_main_tick = None
        self.main_ticks = set()
        self.got_pass = False
        k = self.k
        ctx.schedule("dyn-initial", (1,) * k, k, nominal_start=t)
        ctx.schedule("dyn-step5", basic_policy(k).bits, k,
                     nominal_start=t + 2 * ctx.n)

    # -- message emission ----------------------------------------------------
    def transmissions(self, t):
        ctx = self.ctx
        out = [self._msg(t, "sync")]
        r = t - ctx.wake + 1
        if 1 <= r <= self.k:
            out.append(self._msg(t, "init", (r,)))
        if self.pass_tick is not None and t == self.pass_tick:
            if self.q and self.q[0] == ctx.id:
                out.append(self._msg(t, "pass", tuple(self.q[1:])))
            else:
                ctx.flag(f"pass-without-head p{ctx.id} t{t}")
                out.append(self._msg(t, "pass", tuple(x for x in self.q if x != ctx.id)))
        return out

    # -- inbox handling -------------------------------------------------------
    def _enqueue_unknown(self, t, inbox):
        for msg in inbox:
            if msg.kind == "init" and msg.sender not in self.known:
                self.known.add(msg.sender)
                self.q.append(msg.sender)
                self.ctx.dyn_event(t, "enqueue", (msg.sender, len(self.q)))
                self.ctx.dyn_event(t, "q", tuple(self.q))

    def _accept_response(self, t, inbox):
        if not self.candidate:
            return
        ctx = self.ctx
        r = t - ctx.wake + 1
        for msg in inbox:
            if msg.kind == "resp" and msg.payload[0] == ctx.id:
                ell, rhat = msg.payload[1], msg.payload[2]
                self.candidate = False
                ctx.dyn_event(t, "accept", (msg.sender, ell, rhat))
                self._dynamic_flattening(t, ell, rhat - r)
                return

    def _dynamic_flattening(self, t, ell, dif):
        """Schedule the exclusive main-part block (and the pass tick)."""
        ctx = self.ctx
        k = self.k
        self.next_round = dynamic_next(k, self.candidate and self.winner,
                                       self.winner, ell, dif)
        origin = ctx.wake + self.next_round - 1
        self.block_origin = origin
        self.first_main_tick = origin + k
        self.pass_tick = origin + k * k + k
        self.main_ticks = {origin + j * k for j in range(1, k + 1)}
        bits = [0] * (k * k + 1)
        for j in range(1, k + 1):
            bits[j * k - k] = 1  # offsets 0, k, ..., k^2-k: the k main rounds
        bits[k * k] = 1  # the queue hand-off tick
        self.block = ctx.schedule(
            "dyn-block", tuple(bits), 1, nominal_start=self.first_main_tick,
            meta={"origin": origin, "slot": ell})

    def react(self, t, inbox):
        ctx = self.ctx
        self.adopt(t, inbox)
        out = []
        r = t - ctx.wake + 1
        if 1 <= r <= self.k:
            if r == 1:
                for msg in inbox:
                    if msg.kind == "init":
                        r_u = msg.payload[0]
                        if r_u > 1 or (r_u == 1 and msg.sender > ctx.id):
                            self.winner = False
            self._enqueue_unknown(t, inbox)
        if self.block is not None and t in self.main_ticks:
            if t == self.first_main_tick and not self.led:
                passed = [msg for msg in inbox if msg.kind == "pass"]
                if passed:
                    self.q = list(passed[0].payload)
                    self.known.update(self.q)
                    self.got_pass = True
                    ctx.dyn_event(t, "own", tuple(self.q))
                else:
                    ctx.flag(f"missing-pass p{ctx.id} t{t}")
            self._enqueue_unknown(t, inbox)
            main_r = r  # rounds since wake; responses carry progress r - next
            for pos, dest in enumerate(self.q, start=1):
                out.append(self._msg(t, "resp", (dest, pos, main_r - self.next_round)))
        return out

    def react2(self, t, inbox):
        ctx = self.ctx
        self.adopt(t, inbox)
        out = []
        r = t - ctx.wake + 1
        if 1 <= r <= self.k:
            self._accept_response(t, inbox)
            if r == self.k and self.candidate and self.winner and not self.led:
                self.led = True
                ctx.dyn_event(t, "lead", tuple(self.q))
                ctx.dyn_event(t, "own", tuple(self.q))
                for pos, dest in enumerate(self.q, start=1):
                    out.append(self._msg(t, "resp", (dest, pos, 0)))
                self._dynamic_flattening(t, 0, 0)
        return out

    def absorb(self, t, inbox):
        self.adopt(t, inbox)
        r = t - self.ctx.wake + 1
        if 1 <= r <= self.k:
            self._accept_response(t, inbox)
        return []

    def tick_end(self, t):
        ctx = self.ctx
        if self.pass_tick is not None and t == self.pass_tick and self.q:
            if self.q[0] == ctx.id:
                self.q.pop(0)
            ctx.dyn_event(t, "dequeue", (ctx.id,))
            ctx.dyn_event(t, "q", tuple(self.q))
            ctx.dyn_event(t, "pass-sent", tuple(self.q))

    def audit(self, t):
        if self.block is None:
            self.ctx.flag(f"unscheduled-at-2n p{self.ctx.id}")


class NaiveProto(_Proto):
    """Always-on baseline: n+1 consecutive on-ticks, early-sync adoption."""

    USES_POLICY_PROGRESS = False

    def on_wake(self, t):
        self.ctx.schedule("naive", naive_policy(self.ctx.n).bits,
                          self.ctx.n + 1, nominal_start=t)

    def transmissions(self, t):
        return [self._msg(t, "sync")]

    def react(self, t, inbox):
        ctx = self.ctx
        for msg in inbox:
            ctx.edge_contact(t, msg.sender, msg.tau - ctx.tau(t))
        self.adopt(t, inbox)
        return []


class PairwiseProto(_Proto):
    """Neighbour-difference learning: one ceil(sqrt(n))-basic policy per
    processor; each edge records its first overlap tick and clock delta.
    Clocks are never adjusted."""

    USES_POLICY_PROGRESS = False

    def on_wake(self, t):
        k = self.ctx.k
        self.ctx.schedule("pairwise", basic_policy(k).bits, k, nominal_start=t)

    def transmissions(self, t):
        return [self._msg(t, "sync")]

    def react(self, t, inbox):
        ctx = self.ctx
        for msg in inbox:
            ctx.edge_contact(t, msg.sender, msg.tau - ctx.tau(t))
        return []

    def adopt(self, t, inbox):
        pass


_PROTOS = {
    "synchronize": SynchronizeProto,
    "dynamic-synch": DynamicProto,
    "naive": NaiveProto,
    "pairwise": PairwiseProto,
}


def make_protocol(algorithm, ctx, world):
    return _PROTOS[algorithm](ctx, world)
