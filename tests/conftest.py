"""Shared fixtures: the acceptance sweep configurations and cached traces.

The exhaustive sweep pins processor 1 at wake 0 and enumerates the rest,
(n+1)^(m-1) vectors per (n, m) pair; the random sweep draws 500 seeded
vectors mixing sizes up to the stated maxima.  Traces are simulated once
per algorithm and shared by the criteria that assert on them; their
digests are taken once too (`sweep_digests`), for criterion 10 and for the
cross-commit pins (test_golden_digests.py).
"""

import itertools
import random

import pytest

from radiosync.core import SimConfig
from radiosync.engine import run

EXHAUSTIVE_N = 12
EXHAUSTIVE_M = 4
RANDOM_VECTORS = 500
RANDOM_SEED = 20260809


def exhaustive_configs():
    for n in range(1, EXHAUSTIVE_N + 1):
        for m in range(1, EXHAUSTIVE_M + 1):
            for rest in itertools.product(range(n + 1), repeat=m - 1):
                yield n, m, [0, *rest]


def random_configs():
    rng = random.Random(RANDOM_SEED)
    sizes_n = [16, 32, 64, 128, 256, 512, 1024]
    sizes_m = [2, 3, 4, 8, 16, 32, 64]
    out = []
    for i in range(RANDOM_VECTORS):
        if i < 4:  # pin the extremes so the maxima are always exercised
            n, m = 1024, 64
        else:
            n = rng.choice(sizes_n)
            m = rng.choice(sizes_m)
        wakes = [rng.randint(0, n) for _ in range(m)]
        out.append((n, m, wakes))
    return out


def _simulate(algorithm, configs):
    out = []
    for n, m, wakes in configs:
        cfg = SimConfig(n=n, m=m, wake_times=list(wakes), algorithm=algorithm)
        out.append(((n, m, tuple(wakes)), run(cfg)))
    return out


@pytest.fixture(scope="session")
def sync_exhaustive():
    return _simulate("synchronize", exhaustive_configs())


@pytest.fixture(scope="session")
def sync_random():
    return _simulate("synchronize", random_configs())


@pytest.fixture(scope="session")
def dyn_exhaustive():
    return _simulate("dynamic-synch", exhaustive_configs())


@pytest.fixture(scope="session")
def dyn_random():
    return _simulate("dynamic-synch", random_configs())


@pytest.fixture(scope="session")
def sweep_digests(sync_exhaustive, sync_random, dyn_exhaustive, dyn_random):
    """Each sweep fixture's trace digests, in config order, keyed by name."""
    fixtures = {"sync_exhaustive": sync_exhaustive, "sync_random": sync_random,
                "dyn_exhaustive": dyn_exhaustive, "dyn_random": dyn_random}
    return {name: [tr.digest() for _key, tr in traces] for name, traces in fixtures.items()}
