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

All arithmetic is exact; no floats.  Protocols run on integer ticks in
each processor's own frame (global time minus the fractional part of its
wake, see protocols._Proto), and the engine counts the carries q and q' as
ints in its event keys, steps of 1/unit, as it counts time.  Fractions
appear only in trace records (instants, on-set keys, logged carries) and
in `overlap_fraction` and `q_prime`, the definitions of the overlap and q'.
"""

import heapq
import math
from fractions import Fraction

from .core import ConfigError
from .engine import SimTrace, World
from .protocols import HALF, INBOX_ORDER, PROTOCOLS, Message
from .protocols import adopt_fractional  # noqa: F401  (this mode's carry rule)


def last_slot(wake, horizon):
    """Start of a processor's last slot at or before the horizon."""
    return wake + math.floor(horizon - wake)


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

    It shares the integer engine's state, event loop and wakes, and replaces
    only the time unit and the handling of a radio-on instant.  Every slot
    start and every slot close lies on the grid of 1/unit with unit =
    2 * lcm(wake denominators), so event keys stay integers: a processor's
    slots start at keys `t * unit + off` for its integer local ticks t (its
    frame, see protocols._Proto), and its handlers get `(key - off) // unit`.

    Within an instant, wakes come first, then slot-start exchanges
    (`_on_instant`), then slot closes half a unit after a start
    (`_slot_close`, where completion sampling and reschedule computations
    run, after every message that can still reach the slot has arrived).
    Closes at I are handled after starts at I, so at a start the open slots
    (`_slots`, one record each) are exactly those that started in
    [I - 1/2, I]: the slots a new one overlaps by at least half a unit.
    The exchange is the integer engine's filter path (World._exchange) plus
    a hearing rule and q': every open slot's messages are built once, before
    any adoption, and sorted once; a slot that starts now hears every
    adjacent open slot, an earlier one only the adjacent starters; and each
    message carries q', the receiver's slot-start key less the sender's: an
    int in 1/unit steps, as the carries are (protocols._Proto).  A
    close runs `react` and `tick_end` only, so `_time_unit` rejects a class
    with later sub-phases in PHASES (the queue protocol).
    """

    def __init__(self, cfg):
        super().__init__(cfg)
        self._slots: dict[int, tuple] = {}  # open slot: pid -> (key, instant, inbox)

    def _time_unit(self, cfg):
        if not cfg.fractional:
            raise ConfigError("FracWorld requires fractional=True")
        # the queue hand-off's later sub-phases have no sub-unit timing
        if PROTOCOLS[cfg.algorithm].PHASES != ("react",):
            raise ConfigError(f"fractional mode does not define {cfg.algorithm}'s timing")
        return 2 * math.lcm(*(w.denominator for w in cfg.wake_times))

    # event handlers ----------------------------------------------------------
    def _on_instant(self, key, instant):
        """Slot starts: open each slot, then exchange among the open slots."""
        starters = sorted(self._on_map.pop(key))
        unit, procs, slots = self.unit, self.procs, self._slots
        close = key + unit // 2
        for pid in starters:
            slots[pid] = (key, instant, [])
            heapq.heappush(self._events, (close, 2, pid))
        self.trace.on_sets[instant] = tuple(starters)
        if len(slots) < 2:
            return  # no self-loops: nobody hears a lone slot
        sent = [msg for pid, (s_key, _, _) in slots.items()
                for msg in procs[pid].transmissions((s_key - procs[pid].off) // unit)]
        sent.sort(key=INBOX_ORDER)
        for pid in sorted(slots):
            r_key, _, inbox = slots[pid]
            hears = self.adj[pid] if r_key == key else self.adj[pid].intersection(starters)
            msgs = [Message(m.kind, m.sender, m.tau, m.j, m.payload, m.q,
                            r_key - slots[m.sender][0])
                    for m in sent if m.sender in hears]
            if msgs:
                inbox.extend(msgs)
                proto = procs[pid]
                proto.adopt((r_key - proto.off) // unit, msgs)

    def _slot_close(self, close_key, pid):
        key, s, inbox = self._slots.pop(pid)
        self.tick = s
        proto = self.procs[pid]
        t = (key - proto.off) // self.unit
        proto.react(t, inbox)
        proto.tick_end(t)


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
