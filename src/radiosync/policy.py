"""Radio-use policies: finite on/off bit strings scheduled at a start tick.

A policy is the unit of radio activity in the whole simulator.  Every tick a
processor's radio is on is attributable to some scheduled policy, which is
what makes the cluster/continuity analysis well defined.
"""

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class PolicyString:
    """An on/off schedule relative to a start tick.

    bits[j] == 1 means the radio is on j ticks after the start.  The string
    is split into an initial part (the first `initial_len` positions) and a
    main part (the rest); the split drives the covering-weight bookkeeping.
    The on positions and the bit string are computed once per object.
    """

    bits: tuple[int, ...]
    initial_len: int

    def __post_init__(self):
        # int bits only: a float or bool equal to 0 or 1 would be written
        # into the trace as its own text ("1.0", "True")
        if any(type(b) is not int or b not in (0, 1) for b in self.bits):
            raise ValueError("policy bits must be the ints 0 or 1")
        if not 0 <= self.initial_len <= len(self.bits):
            raise ValueError("initial_len out of range")

    def __len__(self) -> int:
        return len(self.bits)

    @cached_property
    def one_positions(self) -> tuple[int, ...]:
        return tuple(j for j, b in enumerate(self.bits) if b)

    @property
    def mask(self) -> int:
        """Bit j of the mask set iff bits[j] == 1 (fast overlap tests)."""
        m = 0
        for j in self.one_positions:
            m |= 1 << j
        return m

    @cached_property
    def _string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def as_string(self) -> str:
        return self._string


def basic_policy(k: int) -> PolicyString:
    """The k-basic policy: k consecutive on-ticks, then one on-tick in each
    of the next k stretches of k ticks.

    Length k^2 + k, exactly 2k on-ticks, initial part of length k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s = [0] * (k * k + k)
    for i in range(k):
        s[i] = 1
        s[(i + 2) * k - 1] = 1
    return PolicyString(bits=tuple(s), initial_len=k)


def naive_policy(n: int) -> PolicyString:
    """Always-on baseline: n+1 consecutive on-ticks from wake."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return PolicyString(bits=(1,) * (n + 1), initial_len=n + 1)


def policy_len(p: PolicyString) -> int:
    """Distance between the first and last on position, plus one."""
    ones = p.one_positions
    if not ones:
        raise ValueError("policy has no on-ticks")
    return ones[-1] - ones[0] + 1


def on_ticks(p: PolicyString, start_global: int) -> set[int]:
    """Global ticks at which a policy scheduled at start_global is on."""
    return {start_global + j for j in p.one_positions}


def masks_overlap(mask_a: int, mask_b: int, d: int) -> bool:
    """True iff mask_b, started d ticks after mask_a, shares a set bit with it."""
    if d >= 0:
        return (mask_a >> d) & mask_b != 0
    return (mask_b >> (-d)) & mask_a != 0


def overlaps(p: PolicyString, off_a: int, q: PolicyString, off_b: int) -> bool:
    """True iff the two scheduled policies share a radio-on tick."""
    return masks_overlap(p.mask, q.mask, off_b - off_a)
