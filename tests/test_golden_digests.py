"""Pinned trace digests: each config in golden_digests.json must still
produce the SimTrace.digest() recorded for it.

The corpus covers all four algorithms on the complete topology, naive and
pairwise on multi-hop topologies, k_override and max_ticks, and the
fractional engine with rational and with integral wakes: naive and
pairwise on multi-hop topologies with wake denominators 1-10, and one
synchronize config with wake denominators 7, 9, 11 and 13 (a fine time
base).  A digest may
change only with an intended change of behaviour, named in CHANGES.md.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from radiosync.adversary import build_topology
from radiosync.core import SimConfig
from radiosync.engine import run
from radiosync.fractional import run_fractional

CASES = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


def _config(spec) -> SimConfig:
    wakes = spec["wakes"]
    if not isinstance(wakes, str):
        wakes = [Fraction(w) if spec["fractional"] else int(w) for w in wakes]
    return SimConfig(n=spec["n"], m=spec["m"], wake_times=wakes,
                     topology=build_topology(spec["topology"], spec["m"]),
                     algorithm=spec["algorithm"], k_override=spec["k_override"],
                     max_ticks=spec["max_ticks"], seed=spec["seed"],
                     fractional=spec["fractional"])


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden_digest(case):
    cfg = _config(case["config"])
    trace = run_fractional(cfg) if cfg.fractional else run(cfg)
    assert trace.digest() == case["digest"]
