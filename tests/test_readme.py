"""README's code example runs, its command lines parse, and the package's public names are
pinned, so the documented interface cannot drift from the code."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import testsched
from testsched import cli, offline

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs():
    # the one python block, "Library in one minute": the threshold rule's cost, then the optimum
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue() == "15.3 11.5\n"


def test_the_command_lines_parse():
    # each command of the "Command line" block, continuations joined, parsed but not run
    block = re.search(r"^## Command line\n\n```\n(.*?)^```$", README.read_text(), re.M | re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == 9
    parser = cli.build_parser()
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "testsched"
        parser.parse_args(argv[1:])


def test_the_oracle_cap_is_the_codes():
    # the offline paragraph states the largest n the exhaustive oracle takes
    cap = re.search(r"`brute_force_optimum` \(n <= (\d+)\)", README.read_text()).group(1)
    assert int(cap) == offline.BRUTE_FORCE_MAX_N


PUBLIC_NAMES = [
    "AdaptiveSource",
    "ConfigurationError",
    "Instance",
    "InstanceError",
    "Job",
    "OnlineAlgorithm",
    "ProtocolError",
    "StaticSource",
    "Trace",
    "TraceError",
    "brute_force_optimum",
    "build_algorithm",
    "cost_of_trace",
    "load_instance",
    "load_trace",
    "optimal_sum",
    "parse_algorithm",
    "run",
    "run_expected",
    "validate_instance",
]


def test_the_public_names_are_pinned():
    # an added or removed public name shows in review as a one-line diff here
    assert testsched.__all__ == PUBLIC_NAMES
    assert all(hasattr(testsched, name) for name in PUBLIC_NAMES)
