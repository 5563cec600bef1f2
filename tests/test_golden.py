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
"""

import json
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


def test_every_command_is_pinned():
    assert sorted(_golden()) == sorted(COMMANDS)
    assert sorted(_golden(FAMILY_GOLDEN)) == sorted(FAMILY_COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden_bytes(command):
    assert _stdout(command) == _golden()[command]


@pytest.mark.parametrize("command", FAMILY_COMMANDS)
def test_check_family_stdout_matches_golden_bytes(command):
    assert _family_stdout(command) == _golden(FAMILY_GOLDEN)[command]


if __name__ == "__main__":
    # Re-record the golden bytes (only when an output change is intended):
    #   PYTHONPATH=src:tests python tests/test_golden.py
    for path, commands, stdout in ((GOLDEN, COMMANDS, _stdout), (FAMILY_GOLDEN, FAMILY_COMMANDS, _family_stdout)):
        golden = {command: stdout(command) for command in commands}
        path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
