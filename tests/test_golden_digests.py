"""Pinned trace digests: each config in golden_digests.json must still
produce the SimTrace.digest() recorded for it.

The corpus covers all four algorithms on the complete topology, naive and
pairwise on multi-hop topologies, k_override and max_ticks, and the
fractional engine with rational and with integral wakes: naive and
pairwise on multi-hop topologies with wake denominators 1-10, and one
synchronize config with wake denominators 7, 9, 11 and 13 (a fine time
base).  Fractional synchronize is also pinned with max_ticks cutting a run
short, with k_override reschedules that are clamped or fully past, and at
the scale point n=1024 m=64 (eighth-unit wakes); naive and pairwise with
wakes that all share one non-zero fractional part (integral once
normalized to an earliest wake of 0), and with every wake but the earliest
at one fractional part.

The four acceptance-sweep fixtures (conftest.py, 19,400 traces) are pinned
as well: sweep_digests.json holds one sha256 over each fixture's ordered
digests.  A digest may change only with an intended change of behaviour,
named in CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from radiosync.adversary import build_topology
from radiosync.core import SimConfig
from radiosync.engine import run
from radiosync.fractional import run_fractional

HERE = Path(__file__).parent
CASES = json.loads((HERE / "golden_digests.json").read_text())
SWEEP_PINS = json.loads((HERE / "sweep_digests.json").read_text())


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


@pytest.mark.parametrize("fixture", sorted(SWEEP_PINS))
def test_sweep_pin(fixture, sweep_digests):
    digests = sweep_digests[fixture]
    pin = SWEEP_PINS[fixture]
    assert len(digests) == pin["configs"]
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == pin["sha256"]


def _case(case_id):
    return next(c for c in CASES if c["id"] == case_id)


@pytest.mark.parametrize("case_id, clamped, fully_past", [
    ("fractional-synchronize-n16-m4-k3-clamped", 1, 0),
    ("fractional-synchronize-n4-m8-k8-fully-past", 9, 2),
])
def test_k_override_cases_reach_the_clamped_branches(case_id, clamped, fully_past):
    # the pinned k_override configs exercise the reschedule paths that
    # start late (clamped) or wholly in the past
    trace = run_fractional(_config(_case(case_id)["config"]))
    assert sum(rec.clamped for rec in trace.stage2) == clamped
    assert sum(rec.fully_past for rec in trace.policies) == fully_past


def test_max_ticks_case_cuts_the_run_short():
    trace = run_fractional(_config(_case("fractional-synchronize-n32-m6-max150")["config"]))
    assert trace.horizon == 150 and trace.stage2
    assert any(rec.nominal_start <= 150 < rec.span_end for rec in trace.policies)
