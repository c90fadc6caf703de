"""Shared domain types, configuration validation, and the schedule parameter.

Everything here is exact integer arithmetic; no floats anywhere so that
simulation traces are bit-reproducible.
"""

import functools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations


class ConfigError(ValueError):
    """A simulation configuration violates an invariant."""


WAKE_GENERATORS = ("uniform-spread", "seeded-random", "adversarial-clustered")


def check_int(name, value):
    """value, if it is an int (a bool is not); else a ConfigError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    return value


def compute_k(n: int, m: int) -> int:
    """Schedule parameter: ceil(sqrt(8*n/m)), computed exactly.

    Smallest positive integer k with k*k*m >= 8*n; no floating point.
    """
    check_int("n", n)
    check_int("m", m)
    if n < 1 or m < 1:
        raise ConfigError("n and m must be >= 1")
    a = -(-8 * n // m)  # ceil(8n/m); ceil-sqrt of a rational equals that of its ceiling
    return math.isqrt(a - 1) + 1


@dataclass(frozen=True)
class Topology:
    """Simple undirected graph on processors 1..m (edges as sorted pairs, kept as a
    frozenset).  The complete graph is built and checked once per m (complete_topology)."""

    m: int
    edges: frozenset[tuple[int, int]]
    kind: str = "edge-list"

    def __post_init__(self):
        check_int("m", self.m)
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if not isinstance(self.kind, str):
            raise ConfigError(f"kind must be a str, got {self.kind!r}")
        if not isinstance(self.edges, (set, frozenset)):
            raise ConfigError(f"edges must be a set of (u, v) pairs, got {self.edges!r}")
        object.__setattr__(self, "edges", frozenset(self.edges))  # not the caller's set, which may grow
        for e in self.edges:
            # int endpoints, not bools: the config echo would write True as true
            if not (isinstance(e, tuple) and len(e) == 2 and all(type(x) is int for x in e)
                    and 1 <= e[0] < e[1] <= self.m):
                raise ConfigError(f"bad edge {e!r} for m={self.m}")

    def adjacency(self) -> dict[int, frozenset[int]]:
        if self.is_complete:  # m(m-1)/2 distinct pairs u < v: every pair
            everyone = frozenset(range(1, self.m + 1))
            return {i: everyone - {i} for i in range(1, self.m + 1)}
        adj: dict[int, set[int]] = {i: set() for i in range(1, self.m + 1)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {i: frozenset(s) for i, s in adj.items()}

    @property
    def is_complete(self) -> bool:
        return len(self.edges) == self.m * (self.m - 1) // 2


def complete_topology(m: int) -> Topology:
    """The complete graph on processors 1..m, built once per m and shared.

    `Topology` is frozen and its edges are a frozenset, so every config and
    world of one m can hold the same object.  `m` is checked before the memo
    is read: `lru_cache` takes True == 1 and 2.0 == 2 for one key, so a hit
    must never stand in for a rejected argument.  An m below 1 raises in
    `Topology` and is not cached."""
    check_int("m", m)
    return _complete_topology(m)


@functools.lru_cache(maxsize=8)  # every m of any one perfbench workload; m=64 holds about 0.25 MB
def _complete_topology(m: int) -> Topology:
    return Topology(m=m, edges=frozenset(combinations(range(1, m + 1), 2)), kind="complete")


@dataclass(frozen=True)
class SimConfig:
    """One simulation: window n, m processors, wakes, topology, algorithm.

    wake_times may be an explicit list or a generator name; validate_config
    expands generators and normalizes the earliest wake to 0.  In fractional
    mode wakes are exact rationals (Fraction), otherwise ints.
    """

    n: int
    m: int
    wake_times: list | tuple | str = "uniform-spread"
    topology: Topology | str = "complete"
    algorithm: str = "synchronize"
    k_override: int | None = None
    max_ticks: int | None = None
    seed: int = 0
    fractional: bool = False


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ConfigError("n must be >= 1")
    return max(0, (n - 1).bit_length())


def generate_wakes(kind: str, n: int, m: int, seed: int) -> list[int]:
    if kind == "uniform-spread":
        if m == 1:
            return [0]
        return [(i * n) // (m - 1) for i in range(m)]
    if kind == "seeded-random":
        rng = random.Random(seed)
        return [rng.randint(0, n) for _ in range(m)]
    if kind == "adversarial-clustered":
        head = -(-m // 2)  # ceil(m/2) wake at 0, the rest at n
        return [0] * head + [n] * (m - head)
    raise ConfigError(f"unknown wake generator {kind!r}; choose from {WAKE_GENERATORS}")


def check_rational(name, value):
    """value as an exact Fraction, from an int, a Fraction or a string such as
    '1/3' (a float or a bool is refused); else a ConfigError naming it."""
    if isinstance(value, (bool, float)):
        raise ConfigError(f"{name} {value!r} is not an exact rational number"
                          " (give an int, a Fraction or a string such as '1/3')")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ConfigError(f"{name} {value!r} is not a rational number") from None


def _as_wake(value, fractional: bool):
    if fractional:
        return check_rational("wake time", value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"wake time {value!r} is not an integer (use fractional mode for rationals)")
    return value


def validate_config(cfg: SimConfig) -> SimConfig:
    """Expand generators, normalize wakes so min == 0, check all invariants.

    Returns a new, fully explicit config; raises ConfigError with a
    descriptive message on the first violated invariant.  Idempotent.
    """
    if not isinstance(cfg, SimConfig):
        raise ConfigError(f"a config must be a SimConfig, got {cfg!r}")
    for name, optional in (("n", False), ("m", False), ("k_override", True),
                           ("max_ticks", True), ("seed", False)):
        value = getattr(cfg, name)
        if value is not None or not optional:
            check_int(name, value)
    if not isinstance(cfg.fractional, bool):
        raise ConfigError(f"fractional must be a bool, got {cfg.fractional!r}")
    if not isinstance(cfg.wake_times, (list, tuple, str)):
        raise ConfigError("wake_times must be a list, a tuple or a generator name,"
                          f" got {cfg.wake_times!r}")
    if not isinstance(cfg.topology, (Topology, str)):
        raise ConfigError(f"topology must be a Topology or 'complete', got {cfg.topology!r}")
    if cfg.n < 1:
        raise ConfigError("n must be >= 1")
    if cfg.m < 1:
        raise ConfigError("m must be >= 1")
    from .protocols import PROTOCOLS  # here, not at the top: protocols imports core
    if not isinstance(cfg.algorithm, str) or cfg.algorithm not in PROTOCOLS:
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}; choose from {tuple(PROTOCOLS)}")
    if cfg.k_override is not None and cfg.k_override < 1:
        raise ConfigError("k_override must be >= 1")
    if cfg.max_ticks is not None and cfg.max_ticks < 0:
        raise ConfigError("max_ticks must be >= 0")

    if isinstance(cfg.wake_times, str):
        if cfg.fractional:
            raise ConfigError("fractional mode requires explicit wake times")
        wakes = generate_wakes(cfg.wake_times, cfg.n, cfg.m, cfg.seed)
    else:
        wakes = [_as_wake(w, cfg.fractional) for w in cfg.wake_times]
    if len(wakes) != cfg.m:
        raise ConfigError(f"expected {cfg.m} wake times, got {len(wakes)}")

    lo = min(wakes)
    wakes = [w - lo for w in wakes]
    hi = max(wakes)
    if hi > cfg.n:
        raise ConfigError(f"wake spread {hi} exceeds n={cfg.n}")

    topo = cfg.topology
    if isinstance(topo, str):
        if topo != "complete":
            raise ConfigError(
                f"topology {topo!r} must be built explicitly (see adversary.build_topology)")
        topo = complete_topology(cfg.m)
    if topo.m != cfg.m:
        raise ConfigError(f"topology has {topo.m} vertices, config has m={cfg.m}")
    if PROTOCOLS[cfg.algorithm].SINGLE_HOP and not topo.is_complete:
        raise ConfigError(f"algorithm {cfg.algorithm!r} requires the complete topology")

    return replace(cfg, wake_times=list(wakes), topology=topo)
