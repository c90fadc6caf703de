"""Lower-bound probes at desk scale: graph constructions whose bridge
vertices force radio spending, and an exhaustive wake-offset search that
defeats under-budgeted schedules.

The search certifies *oblivious* schedules only (fixed on/off strings, no
adaptivity), which is the regime where exhaustive offset enumeration is
meaningful at small n.
"""

from dataclasses import dataclass
from fractions import Fraction

from .core import (ConfigError, SimConfig, Topology, check_int, check_rational,
                   complete_topology)
from .engine import energy, run
from .policy import PolicyString, basic_policy, masks_overlap
from .protocols import PROTOCOLS, ceil_sqrt


@dataclass(frozen=True)
class OffsetWitness:
    """Wake offsets under which no two schedules ever share an on-tick."""

    offsets: tuple
    certified: bool


def two_clique(m: int) -> Topology:
    """Two complete graphs on m/2 vertices joined by a single bridge edge."""
    if check_int("m", m) < 2 or m % 2:
        raise ConfigError("two_clique needs an even m >= 2")
    half = m // 2
    edges = set()
    for group in (range(1, half + 1), range(half + 1, m + 1)):
        group = list(group)
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                edges.add((u, v))
    edges.add((1, half + 1))
    return Topology(m=m, edges=frozenset(edges), kind="two-clique")


def l_connected(m: int, ell: int) -> Topology:
    """Two m/2-cliques joined by ell+2 disjoint bridges; ell < m/4 - 2."""
    if check_int("m", m) < 2 or m % 2:
        raise ConfigError("l_connected needs an even m >= 2")
    if check_int("ell", ell) < 1:
        raise ConfigError("ell must be >= 1")
    if not 4 * ell < m - 8:  # ell < m/4 - 2, kept exact in integers
        raise ConfigError(f"need ell < m/4 - 2, got ell={ell}, m={m}")
    half = m // 2
    base = two_clique(m)
    edges = set(base.edges)
    for i in range(1, ell + 3):
        edges.add((i, half + i))
    return Topology(m=m, edges=frozenset(edges), kind=f"l-connected-{ell}")


def unit_disk(positions, radius) -> Topology:
    """Edges between points at Euclidean distance <= radius, compared on
    exact squared rationals."""
    try:
        pairs = [tuple(p) for p in positions]
    except TypeError:
        pairs = None
    if pairs is None or any(len(p) != 2 for p in pairs):
        raise ConfigError(f"positions must be (x, y) pairs, got {positions!r}")
    pts = [(check_rational("x", x), check_rational("y", y)) for x, y in pairs]
    r = check_rational("radius", radius)
    if r < 0:
        raise ConfigError(f"radius must be >= 0, got {radius!r}")
    r2 = r * r
    edges = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            if dx * dx + dy * dy <= r2:
                edges.add((i + 1, j + 1))
    return Topology(m=len(pts), edges=frozenset(edges), kind="unit-disk")


# rational points on the unit circle, scaled per placement radius
_CIRCLE_DIRECTIONS = [(1, 0), (-1, 0), (0, 1), (0, -1)]
for _a, _b, _c in [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25),
                   (20, 21, 29), (9, 40, 41), (12, 35, 37), (28, 45, 53),
                   (11, 60, 61), (33, 56, 65), (16, 63, 65), (48, 55, 73)]:
    for _sx in (1, -1):
        for _sy in (1, -1):
            _CIRCLE_DIRECTIONS.append((Fraction(_sx * _a, _c), Fraction(_sy * _b, _c)))
            _CIRCLE_DIRECTIONS.append((Fraction(_sx * _b, _c), Fraction(_sy * _a, _c)))


def unit_disk_two_clique(m: int, radius=2) -> tuple:
    """Planar realization of the two-clique construction.

    Each half sits on a circle of radius r/2 (its diameter, r, is the
    transmission range, so each half is a clique); the designated bridge
    endpoints face each other at distance exactly r and every other cross
    pair is strictly farther.  Returns (positions, radius, topology).
    """
    if check_int("m", m) < 2 or m % 2:
        raise ConfigError("unit_disk_two_clique needs an even m >= 2")
    half = m // 2
    if half > len(_CIRCLE_DIRECTIONS) - 1:
        raise ConfigError(f"placement supports at most {2 * (len(_CIRCLE_DIRECTIONS) - 1)} vertices")
    r = check_rational("radius", radius)
    rr = r / 2
    left_centre = (Fraction(0), Fraction(0))
    right_centre = (2 * r, Fraction(0))
    # the bridge endpoints take the facing extreme points; everyone else
    # takes directions with a strictly smaller facing coordinate
    dirs = [d for d in _CIRCLE_DIRECTIONS if d != (1, 0) and d != (-1, 0)]
    left = [(rr, Fraction(0))]
    right = [(2 * r - rr, Fraction(0))]
    for i in range(half - 1):
        dx, dy = dirs[i]
        left.append((left_centre[0] + rr * dx, left_centre[1] + rr * dy))
        right.append((right_centre[0] - rr * dx, right_centre[1] + rr * dy))
    positions = left + right
    return positions, r, unit_disk(positions, r)


def build_topology(spec, m: int | None = None) -> Topology:
    """Dispatch a textual topology spec to its constructor.

    Accepts "complete", "two-clique", "l-connected:L", "unit-disk" (the
    planar two-clique placement) or an explicit Topology.
    """
    if isinstance(spec, Topology):
        return spec
    if not isinstance(spec, str):
        raise ConfigError(f"topology spec must be a string or a Topology, got {spec!r}")
    if spec == "complete":
        return complete_topology(m)
    if spec == "two-clique":
        return two_clique(m)
    if spec.startswith("l-connected:"):
        try:
            ell = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"malformed topology spec {spec!r}: L must be an integer") from None
        return l_connected(m, ell)
    if spec == "unit-disk":
        return unit_disk_two_clique(m)[2]
    raise ConfigError(f"unknown topology spec {spec!r}")


def _masks(schedules):
    """Bit masks of PolicyStrings or plain 0/1 sequences, built once per search."""
    try:
        return [(s if isinstance(s, PolicyString) else PolicyString(tuple(s), 0)).mask
                for s in schedules]
    except (TypeError, ValueError):
        raise ConfigError(f"schedules must be 0/1 sequences, got {schedules!r}") from None


def search_non_overlap(schedules, n: int) -> OffsetWitness | None:
    """Find wake offsets in [0, n] under which no two schedules share an
    on-tick, or None when no such offsets exist.

    Exact for any number of schedules.  Offsets are shift-invariant, so the
    first schedule is pinned at relative offset 0; each later one tries the
    relative offsets 0..n, then -1..-n, that keep the spread of the placed
    offsets at most n and overlap no placed schedule, backtracking when none
    does.  The cost is exponential in the number of schedules, up to
    (2n + 1)^(k-1) placements for k.  The witness's least offset is 0.
    """
    if check_int("n", n) < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    masks = _masks(schedules)
    if not masks:
        return OffsetWitness(offsets=(), certified=True)
    found = _place(masks, n, [0])
    if found is None:
        return None
    low = min(found)
    return OffsetWitness(offsets=tuple(off - low for off in found), certified=True)


def _place(masks, n, offsets):
    """`offsets` extended by a placement of every mask after the placed ones
    (see search_non_overlap), or None if there is none."""
    if len(offsets) == len(masks):
        return offsets
    mask = masks[len(offsets)]
    placed = list(zip(masks, offsets))
    lo, hi = min(offsets), max(offsets)  # lo <= 0 <= hi: the first is at 0
    for d in (*range(lo + n + 1), *range(-1, hi - n - 1, -1)):
        for other, off in placed:
            if masks_overlap(other, mask, d - off):
                break
        else:
            found = _place(masks, n, offsets + [d])
            if found is not None:
                return found
    return None


def schedule_family(n: int, c: int) -> dict:
    """Structured length-bounded schedules with exactly c on-ticks each:
    evenly spaced, a solid prefix, and a truncated basic policy."""
    if check_int("n", n) < 1:
        raise ConfigError("n must be >= 1")
    if check_int("c", c) < 1 or c > n + 1:
        raise ConfigError("need 1 <= c <= n + 1")
    family = {}
    if c == 1:
        family["evenly-spaced"] = (1,)
    else:
        span = n
        positions = sorted({(i * span) // (c - 1) for i in range(c)})
        bits = [0] * (positions[-1] + 1)
        for p in positions:
            bits[p] = 1
        family["evenly-spaced"] = tuple(bits)
    family["prefix"] = (1,) * c
    k = ceil_sqrt(n)
    ones = basic_policy(k).one_positions[:c]
    bits = [0] * (ones[-1] + 1)
    for p in ones:
        bits[p] = 1
    family["basic-truncated"] = tuple(bits)
    return family


def budget_curve(n: int, c_max: int) -> list:
    """For each on-budget c, whether every structured schedule of c ones is
    defeated by some offset pair (a desk-scale probe, not a proof)."""
    check_int("n", n)
    rows = []
    for c in range(1, check_int("c_max", c_max) + 1):
        family = schedule_family(n, c)
        outcomes = {}
        for name, bits in sorted(family.items()):
            w = search_non_overlap([bits, bits], n)
            outcomes[name] = None if w is None else w.offsets
        rows.append({
            "n": n,
            "budget": c,
            "defeated": {name: off for name, off in outcomes.items() if off is not None},
            "safe": sorted(name for name, off in outcomes.items() if off is None),
            "all_defeated": all(off is not None for off in outcomes.values()),
        })
    return rows


def multi_hop_experiment(topology, n: int, algorithm: str,
                         wake_times="uniform-spread", seed: int = 0) -> dict:
    """Run a baseline algorithm on a multi-hop topology (a built Topology:
    a spec string would need m) and report energy plus per-edge
    first-contact coverage."""
    baselines = [a for a, cls in PROTOCOLS.items() if not cls.SINGLE_HOP]
    if algorithm not in baselines:
        raise ConfigError(f"multi-hop baselines are {' and '.join(baselines)}")
    if not isinstance(topology, Topology):
        raise ConfigError(f"multi_hop_experiment needs a Topology, got {topology!r}"
                          " (build a spec with build_topology(spec, m))")
    cfg = SimConfig(n=n, m=topology.m, wake_times=wake_times, topology=topology,
                    algorithm=algorithm, seed=seed)
    trace = run(cfg)
    rep = energy(trace)
    contacted = set(trace.edge_contacts)
    missing = sorted(set(topology.edges) - contacted)
    return {
        "algorithm": algorithm,
        "n": n,
        "m": topology.m,
        "topology": topology.kind,
        "edges": len(topology.edges),
        "edges_contacted": len(contacted & set(topology.edges)),
        "edges_missing": missing,
        "all_edges_contacted": not missing,
        "total_energy": rep.total_energy,
        "max_energy": rep.max_energy,
        "per_processor": rep.per_processor,
        "first_contacts": {f"{u}-{v}": (t, str(d))
                           for (u, v), (t, d) in sorted(trace.edge_contacts.items())},
        "sync_complete_tick": rep.sync_complete_tick,
    }
