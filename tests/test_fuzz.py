"""Input fuzz: every malformed input must end in ConfigError (exit code 2).

Arbitrary SimConfig field values, given to both engines, and arbitrary
argument lists, given to `radiosync` in this process (cli.main), must
either run or end in ConfigError, or in exit code 2 for the command line;
no other exception may escape.  Sizes stay small (n <= 32, m <= 8, k <= 8,
max_ticks <= 200) so that every example that runs is one short simulation.
"""

import contextlib
import io
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from radiosync import cli
from radiosync.core import WAKE_GENERATORS, ConfigError, SimConfig, Topology
from radiosync.engine import run
from radiosync.fractional import run_fractional
from radiosync.protocols import PROTOCOLS

# values of the wrong type for an int field
NOT_INTS = st.sampled_from([None, True, False, 2.0, "8", Fraction(3), [1]])
WAKES = (st.integers(-2, 34) | st.fractions(-2, 34, max_denominator=6)
         | st.sampled_from([0.5, "1/3", "7/2", "x", "1/0", None, True, 1j]))
# per field, values that are malformed or out of range
CONFIG_JUNK = {
    "n": st.integers(-1, 0) | NOT_INTS,
    "m": st.integers(-1, 0) | NOT_INTS,
    "wake_times": (st.lists(WAKES, max_size=9) | st.lists(WAKES, max_size=9).map(tuple)
                   | st.sampled_from(["bogus", None, 5, {0: 0}])),
    "topology": (st.sampled_from(["two-clique", None, 5, [(1, 2)]])
                 | st.tuples(st.integers(-1, 8) | NOT_INTS,
                             st.frozensets(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                                           max_size=12)
                             | st.sampled_from([None, [(1, 2)], 5]))),
    "algorithm": st.sampled_from(["bogus", None, ["naive"]]),
    "k_override": st.integers(-1, 0) | NOT_INTS,
    "max_ticks": st.just(-1) | NOT_INTS,
    "seed": NOT_INTS.filter(lambda v: v is not None),
    "fractional": st.sampled_from([None, 0, 1, "no"]),
}


@st.composite
def config_fields(draw):
    """SimConfig keyword arguments: a config that may run, with up to two
    fields made malformed.  `topology` may be the (m, edges) arguments of a
    Topology, built by the test."""
    n, m = draw(st.integers(1, 32)), draw(st.integers(1, 8))
    algorithm = draw(st.sampled_from(list(PROTOCOLS)))
    fractional = draw(st.booleans())
    wake = st.fractions(0, n, max_denominator=6) if fractional else st.integers(0, n)
    wakes = st.lists(wake, min_size=m, max_size=m)
    topology = st.just("complete")
    if not PROTOCOLS[algorithm].SINGLE_HOP and m > 1:
        pairs = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
        topology |= st.tuples(st.just(m), st.frozensets(st.sampled_from(pairs)))
    fields = dict(
        n=n, m=m, algorithm=algorithm, fractional=fractional,
        wake_times=draw(wakes if fractional else wakes | st.sampled_from(WAKE_GENERATORS)),
        topology=draw(topology),
        k_override=draw(st.none() | st.integers(1, 8)),
        max_ticks=draw(st.none() | st.integers(0, 200)),
        seed=draw(st.integers(-5, 10**6)),
    )
    for name in draw(st.lists(st.sampled_from(list(CONFIG_JUNK)), unique=True, max_size=2)):
        fields[name] = draw(CONFIG_JUNK[name])
    return fields


@settings(max_examples=300, deadline=None)
@given(config_fields())
def test_any_config_runs_or_raises_config_error(fields):
    try:
        if isinstance(fields["topology"], tuple):
            fields["topology"] = Topology(*fields["topology"])
        cfg = SimConfig(**fields)
    except ConfigError:
        return
    for engine in (run, run_fractional):
        with contextlib.suppress(ConfigError):
            engine(cfg)


# input files for the command line, in the directory the fuzz runs in
CLI_FILES = {
    "ints.txt": b"0\n5\n\n3\n",
    "rationals.txt": b"0\n7/2\n9/4\n",
    "junk.txt": b"1 x\n1/0\n",
    "edges.txt": b"1 2\n2 3\n",
    "self-loop.txt": b"1 1\n",
    "binary.txt": b"\xff\xfe0\n",
}
NUMBER_JUNK = st.sampled_from(["", "x", "1.5", "-", "1/2", "0x10", "1e3", "0", "-1"])
CLI_OUTPUTS = ["no-such-dir/out.csv", ".", ""]
# per flag, values that are malformed, out of range or name a bad file
CLI_JUNK = {
    "--n": NUMBER_JUNK | NUMBER_JUNK.map("8,".__add__),
    "--m": NUMBER_JUNK,
    "--algorithm": st.just("bogus"),
    "--wake": (st.just("bogus")
               | st.sampled_from(["junk.txt", "binary.txt", "missing.txt", ".", ""])
               .map("explicit:".__add__)),
    "--seed": NUMBER_JUNK,
    "--topology": (st.sampled_from(["l-connected:x", "l-connected:", "l-connected:9", "bogus"])
                   | st.sampled_from(["self-loop.txt", "binary.txt", "junk.txt", "missing.txt",
                                      "."]).map("edges:".__add__)),
    "--k": NUMBER_JUNK,
    "--max-ticks": NUMBER_JUNK,
    "--check": st.sampled_from(["bogus", "sync,bogus"]),
    "--out": st.sampled_from(CLI_OUTPUTS),
    "--trace": st.sampled_from(CLI_OUTPUTS),
    "--bogus": st.none(),
}


def cli_flags(sweep):
    """Per flag, values that are well formed; None for a flag that takes no
    value.  A sweep takes lists of n and m, and only `run` takes --check,
    --trace and --fractional."""
    def sizes(hi):
        one = st.integers(1, hi).map(str)
        return st.lists(one, min_size=1, max_size=3).map(",".join) if sweep else one
    return {
        "--n": sizes(32),
        "--m": sizes(8),
        "--algorithm": st.sampled_from([*PROTOCOLS, "dynamic"]),
        "--wake": st.sampled_from(["uniform", "random", "clustered", "explicit:ints.txt",
                                   "explicit:rationals.txt"]),
        "--seed": st.integers(-5, 10**6).map(str),
        "--topology": st.sampled_from(["complete", "two-clique", "unit-disk", "l-connected:1",
                                       "edges:edges.txt"]),
        "--k": st.integers(1, 8).map(str),
        "--max-ticks": st.integers(0, 200).map(str),
        "--out": st.just("out.json"),
        **({} if sweep else {
            "--check": st.lists(st.sampled_from(cli.CHECKS), unique=True).map(",".join),
            "--trace": st.just("trace.csv"),
            "--fractional": st.none(),
        }),
    }


@st.composite
def argvs(draw):
    """An argument list that may run, with up to two flags given malformed
    values, and now and then a bad command or a required flag left out."""
    command = draw(st.sampled_from(["run"] * 5 + ["sweep"] * 4 + ["bogus"]))
    good = cli_flags(command == "sweep")
    optional = [f for f in good if f not in ("--n", "--m")]
    flags = {"--n": good["--n"], "--m": good["--m"]}
    for flag in draw(st.lists(st.sampled_from(optional), unique=True, max_size=5)):
        flags[flag] = good[flag]
    for flag in draw(st.lists(st.sampled_from(list(CLI_JUNK)), unique=True, max_size=2)):
        flags[flag] = CLI_JUNK[flag]
    if draw(st.integers(0, 9)) == 9:
        del flags[draw(st.sampled_from(["--n", "--m"]))]
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        value = draw(flags[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """Run in a directory holding CLI_FILES: relative paths find them, and
    `sweep` without --out writes its default file there."""
    path = tmp_path_factory.mktemp("cli-fuzz")
    for name, content in CLI_FILES.items():
        (path / name).write_bytes(content)
    cwd = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(cwd)


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
# a wake file that is not text once raised UnicodeDecodeError
@example(argv=["run", "--n", "8", "--m", "1", "--wake", "explicit:binary.txt"])
@example(argv=["run", "--n", "8", "--m", "2", "--algorithm", "naive",
               "--topology", "edges:binary.txt"])
def test_any_argv_runs_or_exits_two(cli_dir, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
    assert (code == 2) == err.getvalue().startswith("error:"), (argv, err.getvalue())
