"""The benchmark's workloads: job lists drawn from the seed.

One pass of a workload is a fixed list of jobs; a run repeats the list
until its time is up.  The job shapes (algorithm, n, m) are fixed per
workload and only the wake offsets come from the seed, so the cost mix of
a pass is the same on every seed.  Where a workload mixes two shapes,
their sizes are chosen so that both take about the same time: the median
and the tail percentile then fall inside one cluster of job times, rather
than into the gap between two clusters, where they would jump from run to
run.
"""

import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction

WORKLOADS = ("sync-sparse", "naive-dense", "cli-export", "sweep-mixed")
SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Job:
    """One configuration, taken from validation to a checked result.

    kind is "int" (integer engine), "frac" (fractional engine) or "cli"
    (``radiosync run`` through ``cli.main``).  analyses names the analysis
    checkers an "int" job runs on its trace.
    """

    kind: str
    algorithm: str
    n: int
    m: int
    wakes: tuple
    analyses: tuple = ()
    argv: tuple = ()

    @property
    def group(self) -> str:
        return f"{self.kind}:{self.algorithm}"


SPARSE_ANALYSES = ("flatten", "continuity", "clusters", "discontinuity")
CLI_CHECKS = {"synchronize": "sync,flatten,budget", "dynamic-synch": "sync,dynamic,budget"}

# (algorithm, n, m) of one pass
_SHAPES = {
    ("sync-sparse", "full"): [("synchronize", 16384, 16), ("synchronize", 8192, 64)] * 4,
    ("sync-sparse", "smoke"): [("synchronize", 256, 16), ("synchronize", 128, 64)],
    ("naive-dense", "full"): [("naive", 256, 64)] * 8,
    ("naive-dense", "smoke"): [("naive", 32, 8)] * 2,
    ("cli-export", "full"): [("dynamic-synch", 1024, 64), ("synchronize", 384, 32)] * 3,
    ("cli-export", "smoke"): [("dynamic-synch", 64, 8), ("synchronize", 32, 4)],
}

# sweep-mixed: blocks of tiny integer configs, each followed by one
# fractional synchronize config
_SWEEP = {"full": (24, 25), "smoke": (2, 12)}  # (blocks, tiny jobs per block)
_TINY = [(alg, n, m) for n in range(1, 13) for m in range(1, 5)
         for alg in ("synchronize", "dynamic-synch")]
_FRAC_SHAPES = ((32, 16), (64, 8), (128, 4), (256, 2))
_FRAC_DENOMINATORS = (1, 2, 3, 4, 8, 16)


def make_jobs(workload: str, seed: int, size: str = "full") -> list:
    """The job list of one pass; the same seed always gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    rng = random.Random(f"{workload}/{size}/{seed}")
    if workload == "sweep-mixed":
        return _sweep_jobs(rng, size)
    kind = "cli" if workload == "cli-export" else "int"
    analyses = SPARSE_ANALYSES if workload == "sync-sparse" else ()
    return [Job(kind, alg, n, m, _int_wakes(rng, n, m), analyses)
            for alg, n, m in _SHAPES[workload, size]]


def _int_wakes(rng, n, m):
    return tuple(rng.randint(0, n) for _ in range(m))


def _sweep_jobs(rng, size):
    blocks, per_block = _SWEEP[size]
    jobs = []
    for b in range(blocks):
        for i in range(per_block):
            alg, n, m = _TINY[(b * per_block + i) % len(_TINY)]
            check = "flatten" if alg == "synchronize" else "dynamic"
            jobs.append(Job("int", alg, n, m, _int_wakes(rng, n, m), (check,)))
        n, m = _FRAC_SHAPES[(b // len(_FRAC_DENOMINATORS)) % len(_FRAC_SHAPES)]
        den = _FRAC_DENOMINATORS[b % len(_FRAC_DENOMINATORS)]
        wakes = tuple(Fraction(rng.randint(0, n * den), den) for _ in range(m))
        jobs.append(Job("frac", "synchronize", n, m, wakes))
    return jobs


def prepare_cli(jobs: list, workdir: str) -> list:
    """Write each cli job's wake file and fill in its argument list."""
    out = []
    for i, job in enumerate(jobs):
        if job.kind != "cli":
            out.append(job)
            continue
        base = os.path.join(workdir, f"job{i}")
        with open(base + ".wakes", "w") as fh:
            fh.write("".join(f"{w}\n" for w in job.wakes))
        argv = ("run", "--n", str(job.n), "--m", str(job.m),
                "--algorithm", job.algorithm, "--wake", f"explicit:{base}.wakes",
                "--check", CLI_CHECKS[job.algorithm],
                "--out", base + ".json", "--trace", base + ".csv")
        out.append(replace(job, argv=argv))
    return out
