"""Sub-unit wake offsets: overlap fractions and the carry variable that
keeps displayed clocks within one unit of each other.

Processors tick on their own unit grids, shifted by rational wake offsets.
Two radio-on slots can exchange messages iff they overlap by at least half
a unit.  On adoption a processor copies the sender's clock plus its carry
variable q, adds the slot-start difference q', and renormalizes so q stays
in [-1/2, 1/2]; the exact identity

    wake + slot_index - tau - q  ==  earliest processor's wake

then holds for every synchronized processor (the "timeline anchor"), which
is how the engine detects synchronization and what the acceptance suite
asserts.  With all-integer offsets every slot aligns, q stays 0, and the
run projects tick-for-tick onto the integer engine.

All arithmetic is exact (fractions.Fraction); no floats.
"""

import heapq
import math
from dataclasses import replace
from fractions import Fraction

from .core import ConfigError
from .engine import SimTrace, World, last_slot
from .protocols import HALF
from .protocols import adopt_fractional  # noqa: F401  (this mode's carry rule)


def overlap_fraction(u_on, v_on):
    """Exact overlap length of two radio-on intervals, or None when the
    overlap is under half a unit (no communication that slot)."""
    (a1, b1), (a2, b2) = u_on, v_on
    q = min(b1, b2) - max(a1, a2)
    if q < HALF:
        return None
    return Fraction(q)


def q_prime(q, u_started_after_v: bool) -> Fraction:
    """Signed slot-start difference recovered from an overlap length."""
    q = Fraction(q)
    if not HALF <= q <= 1:
        raise ValueError("overlap must lie in [1/2, 1]")
    return 1 - q if u_started_after_v else q - 1


def timeline_anchor(wake, slot_index, tau, q) -> Fraction:
    """wake + slot - tau - q: identical across synchronized processors."""
    return Fraction(wake) + slot_index - tau - Fraction(q)


class FracWorld(World):
    """The integer engine's event loop over rational slot grids.

    It shares the integer engine's state and event loop (set-up, scheduling,
    clock and synchronization bookkeeping) and replaces only the handling
    of a radio-on instant.  Every slot start and every slot close lies on
    the grid of 1/unit with unit = 2 * lcm(wake denominators), so event
    keys stay integers.  Within an instant, wakes come first, then
    slot-start exchanges (`_on_instant`), then slot closes half a unit after
    a start (`_slot_close`, where completion sampling and reschedule
    computations run, after every message that can still reach the slot
    has arrived).  Closes at I are handled after starts at I, so at a start
    the open slots (`_slot_start`) are exactly those that started in
    [I - 1/2, I]: the slots a new one overlaps by at least half a unit.
    Protocol handlers are the same classes the integer engine drives; they
    see their own grid instants as "global ticks" (their local arithmetic
    only ever adds integers).
    """

    def __init__(self, cfg):
        super().__init__(cfg)
        self._slot_inbox: dict[int, list] = {}
        self._slot_start: dict[int, tuple] = {}  # open slot: pid -> (key, instant)

    def _time_unit(self, cfg):
        if not cfg.fractional:
            raise ConfigError("FracWorld requires fractional=True")
        if cfg.algorithm == "dynamic-synch":
            raise ConfigError(
                "fractional mode supports synchronize, naive and pairwise; the"
                " queue protocol's sub-unit hand-off timing is not defined")
        return 2 * math.lcm(*(w.denominator for w in cfg.wake_times))

    # event handlers ----------------------------------------------------------
    def _on_instant(self, key, instant):
        """Slot starts: account energy and exchange with overlapping slots."""
        starters = sorted(self._on_map.pop(key))
        close = key + self.unit // 2
        for pid in starters:
            self.trace.energy_counts[pid] += 1
            self._slot_start[pid] = (key, instant)
            self._slot_inbox[pid] = []
            heapq.heappush(self._events, (close, 2, pid))
        self.trace.on_sets[instant] = tuple(starters)

        open_slots = sorted(self._slot_start.items())
        pairs = []
        for pid in starters:
            adj = self.adj[pid]
            for nb, (s_key, s_nb) in open_slots:
                if nb in adj and not (s_key == key and nb < pid):  # both start now: once
                    pairs.append((pid, nb, s_nb))
        deliveries: dict[int, list] = {}
        for pid, nb, s_nb in pairs:
            self.tick = s_nb
            for msg in self.procs[nb].transmissions(s_nb):
                deliveries.setdefault(pid, []).append(
                    replace(msg, qp=instant - s_nb))
            self.tick = instant
            for msg in self.procs[pid].transmissions(instant):
                deliveries.setdefault(nb, []).append(
                    replace(msg, qp=s_nb - instant))
        for pid in sorted(deliveries):
            msgs = sorted(deliveries[pid],
                          key=lambda m: (m.sender, m.kind, m.payload))
            self._slot_inbox[pid].extend(msgs)
            self.tick = self._slot_start[pid][1]
            self.procs[pid].adopt(self.tick, msgs)

    def _slot_close(self, instant, pid):
        _, s = self._slot_start.pop(pid)
        inbox = self._slot_inbox.pop(pid)
        self.tick = s
        proto = self.procs[pid]
        proto.react(s, inbox)
        proto.react2(s, [])
        proto.absorb(s, [])
        proto.tick_end(s)


def run_fractional(cfg) -> SimTrace:
    """Simulate a fractional-offset configuration to its horizon."""
    return FracWorld(cfg).run()


def anchors(trace) -> dict:
    """Timeline anchor of every processor at the end of a trace."""
    out = {}
    for pid, (tau, q) in trace.final_clocks.items():
        w = trace.wakes[pid - 1]
        out[pid] = timeline_anchor(w, last_slot(w, trace.horizon) - w, tau, q)
    return out
