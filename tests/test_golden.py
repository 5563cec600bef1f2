"""Exact stdout of scan, bands and explain on a small fixed tenant, and of check-family.

golden_tenant.json is a generated tenant (seed 3, five management groups
nested three deep) plus hand-placed principals: two joined to nested
groups, one with no grants, one with a single grant, an ultracycle of
reads on a level-3 management group (radius 1/128 = 0.0078125, an exact
tie at six digits that rounds to even), a read/write pair on one scope,
and four read clusters that give a spread ratio of 71/128 = 0.5546875
(a tie that rounds up). golden_stdout.json maps each command line to the
bytes it must print.

golden_check_family.json maps each check-family command line, run from the
repository root, to its stdout; every one exits 1. counterexample_family.json
is the three-grant counterexample. golden_family.json has two alternates (one
carries a subscription under a management group, one moves a resource), a
clean principal the carve-out touches, a principal of two grants (not
checked) and two dirty ones whose printed ratios include 2, 4 and 8.

Every command runs three ways: in process, as `python -X dev -W error -m
perimetric.cli` on this checkout's sources, and through the installed
`perimetric` console script, with no PYTHONPATH, when one is on PATH (CI
installs the package and fails when it is not there). A fresh interpreter
must exit as the command does, print the golden bytes and write nothing to
stderr: -X dev -W error turns a leaked file handle or any warning into one.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import invoke

FIXTURES = Path(__file__).parent / "fixtures"
TENANT = FIXTURES / "golden_tenant.json"
GOLDEN = FIXTURES / "golden_stdout.json"
FAMILY_GOLDEN = FIXTURES / "golden_check_family.json"
ROOT = FIXTURES.parent.parent

COMMANDS = [
    "scan --format csv",
    "scan --format json",
    "bands --format csv",
    "bands --format json",
    "bands --format csv --anonymize --seed 3",
    "bands --format json --anonymize --seed 3",
    "explain spn-zero",
    "explain spn-one",
    "explain spn-ultra",
    "explain spn-rw",
]

FAMILY_COMMANDS = [
    "check-family tests/fixtures/counterexample_family.json",
    "check-family tests/fixtures/golden_family.json",
]


def _stdout(command: str) -> str:
    verb, *rest = command.split()
    result = invoke([verb, str(TENANT), *rest])
    assert result.exit_code == 0, result.output
    return result.stdout


def _family_stdout(command: str) -> str:
    verb, path = command.split()
    result = invoke([verb, str(ROOT / path)])
    assert result.exit_code == 1, result.output
    return result.stdout


def _golden(path=GOLDEN) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))


def _runner(name: str) -> tuple[list[str], dict[str, str]]:
    """The command prefix and environment of a fresh-interpreter runner."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    if name == "script":
        script = shutil.which("perimetric")
        if script is None:
            pytest.skip("no perimetric console script on PATH")
        return [script], env
    module = [sys.executable, "-X", "dev", "-W", "error", "-m", "perimetric.cli"]
    return module, {**env, "PYTHONPATH": str(ROOT / "src")}


def test_every_command_is_pinned():
    assert sorted(_golden()) == sorted(COMMANDS)
    assert sorted(_golden(FAMILY_GOLDEN)) == sorted(FAMILY_COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden_bytes(command):
    assert _stdout(command) == _golden()[command]


@pytest.mark.parametrize("command", FAMILY_COMMANDS)
def test_check_family_stdout_matches_golden_bytes(command):
    assert _family_stdout(command) == _golden(FAMILY_GOLDEN)[command]


@pytest.mark.parametrize("command", COMMANDS + FAMILY_COMMANDS)
@pytest.mark.parametrize("runner", ["module", "script"])
def test_a_fresh_interpreter_prints_the_golden_bytes(runner, command):
    prefix, env = _runner(runner)
    verb, *rest = command.split()
    if verb == "check-family":
        args, golden, code = rest, _golden(FAMILY_GOLDEN), 1
    else:
        args, golden, code = [str(TENANT), *rest], _golden(), 0
    result = subprocess.run([*prefix, verb, *args], cwd=ROOT, env=env, capture_output=True, timeout=60)
    assert (result.returncode, result.stderr.decode(errors="replace")) == (code, "")
    assert result.stdout == golden[command].encode("utf-8")


if __name__ == "__main__":
    # Re-record the golden bytes (only when an output change is intended):
    #   PYTHONPATH=src:tests python tests/test_golden.py
    for path, commands, stdout in ((GOLDEN, COMMANDS, _stdout), (FAMILY_GOLDEN, FAMILY_COMMANDS, _family_stdout)):
        golden = {command: stdout(command) for command in commands}
        path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
