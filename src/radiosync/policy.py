"""Radio-use policies: finite on/off bit strings scheduled at a start tick.

A policy is the unit of radio activity in the whole simulator.  Every tick a
processor's radio is on is attributable to some scheduled policy, which is
what makes the cluster/continuity analysis well defined.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count


@dataclass(frozen=True)
class PolicyString:
    """An on/off schedule relative to a start tick.

    bits[j] == 1 means the radio is on j ticks after the start.  The string
    is split into an initial part (the first `initial_len` positions) and a
    main part (the rest); the split drives the covering-weight bookkeeping.
    The on positions, the bit string and the mask are computed once per
    object, each in one C-level pass over the bits.
    """

    bits: tuple[int, ...]
    initial_len: int

    def __post_init__(self):
        # int bits only, checked before any is hashed: a float or bool equal
        # to 0 or 1 would be written into the trace as its own text ("1.0")
        if not ({*map(type, self.bits)} <= {int} and {*self.bits} <= {0, 1}):
            raise ValueError("policy bits must be the ints 0 or 1")
        if not 0 <= self.initial_len <= len(self.bits):
            raise ValueError("initial_len out of range")

    def __len__(self) -> int:
        return len(self.bits)

    @cached_property
    def one_positions(self) -> tuple[int, ...]:
        return tuple(compress(count(), self.bits))

    @cached_property
    def mask(self) -> int:
        """Bit j of the mask set iff bits[j] == 1 (fast overlap tests)."""
        return int(self._string[::-1] or "0", 2)

    @cached_property
    def _string(self) -> str:
        return bytes(self.bits).translate(bytes.maketrans(b"\0\1", b"01")).decode()

    def as_string(self) -> str:
        return self._string


def basic_policy(k: int) -> PolicyString:
    """The k-basic policy: k consecutive on-ticks, then one on-tick in each
    of the next k stretches of k ticks.

    Length k^2 + k, exactly 2k on-ticks, initial part of length k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return PolicyString((1,) * k + ((0,) * (k - 1) + (1,)) * k, k)


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
